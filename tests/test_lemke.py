"""Tests for the complementary pivoting baseline."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.blas import dger

from sparselcp import lemke
from sparselcp.core import LcpInstance, SolverConfig, support_mask
from sparselcp.lemke import (PivotLimit, RayTermination, Tableau, lemke_solve)
from sparselcp.merit import MeritModel, merit_value
from sparselcp.nhtp import solve as nhtp_solve
from sparselcp.problems import GeneratorSpec, generate
from sparselcp.tuning import support_count

PHI2 = MeritModel.phi_r(2)


def enumerate_solutions(M, q, tol=1e-9):
    """Reference oracle: try every complementary basis.  For each index
    subset S solve M[S,S] x_S = -q_S with x = 0 elsewhere and keep the
    candidates with x >= 0 and M x + q >= 0."""
    n = len(q)
    found = []
    for size in range(n + 1):
        for S in itertools.combinations(range(n), size):
            x = np.zeros(n)
            if size:
                sub = M[np.ix_(S, S)]
                if abs(np.linalg.det(sub)) < 1e-12:
                    continue
                x[list(S)] = np.linalg.solve(sub, -q[list(S)])
            y = M @ x + q
            if x.min() >= -tol and y.min() >= -tol:
                found.append(x)
    return found


def test_identity_instance():
    # M = I: the solution is x_i = max(-q_i, 0)
    q = np.array([-1.0, 2.0, -3.0])
    x, _ = lemke_solve(LcpInstance(np.eye(3), q))
    assert np.allclose(x, [1.0, 0.0, 3.0], atol=1e-12)


def test_nonnegative_q_needs_no_pivot():
    inst = LcpInstance(np.eye(2), np.array([0.5, 0.0]))
    x, pivots = lemke_solve(inst)
    assert pivots == 0
    assert np.all(x == 0.0)


def test_ray_termination():
    with pytest.raises(RayTermination):
        lemke_solve(LcpInstance(np.array([[-1.0]]), np.array([-1.0])))


def test_pivot_limit():
    inst = LcpInstance(np.eye(2), np.array([-1.0, -2.0]))
    with pytest.raises(PivotLimit):
        lemke_solve(inst, max_pivots=1)
    # the default budget is ample for this instance
    x, _ = lemke_solve(inst)
    assert np.allclose(x, [1.0, 2.0], atol=1e-12)


def test_rejects_bad_arguments():
    # checked before any pivot, also where q >= 0 needs none
    for q in ([-1.0, -2.0], [1.0, 2.0]):
        inst = LcpInstance(np.eye(2), np.array(q))
        for limit in (0, -3):
            with pytest.raises(ValueError, match="max_pivots"):
                lemke_solve(inst, max_pivots=limit)


@pytest.mark.parametrize("limit", [2.5, 20.0])
def test_pivot_budget_must_be_an_integer(limit):
    # max_pivots = 2.5 used to report "no termination within 2.5 pivots"
    inst = LcpInstance(np.eye(2), np.array([-1.0, -2.0]))
    with pytest.raises(TypeError):
        lemke_solve(inst, max_pivots=limit)
    x, _ = lemke_solve(inst, max_pivots=np.int64(20))
    assert np.allclose(x, [1.0, 2.0], atol=1e-12)


def test_matches_complementary_basis_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        M = A @ A.T + n * np.eye(n)  # positive definite, solution unique
        q = rng.standard_normal(n) * 2.0
        inst = LcpInstance(M, q)
        x, _ = lemke_solve(inst)
        candidates = enumerate_solutions(M, q)
        assert candidates, "oracle found no complementary solution"
        dists = [np.linalg.norm(x - c) for c in candidates]
        assert min(dists) <= 1e-8 * max(1.0, np.linalg.norm(x))


def test_solves_random_planted_families():
    worst = 0.0
    for seed in range(40):
        n = 20 + (seed % 3) * 10
        spec = GeneratorSpec("sdp_gaussian", n, s_star=2, m=n // 2, seed=seed)
        inst = generate(spec)
        x, _ = lemke_solve(inst)
        f2 = merit_value(PHI2, inst, x)
        worst = max(worst, f2)
        assert x.min() >= -1e-10
        assert (inst.M @ x + inst.q).min() >= -1e-8
        # round-off in the basic values is snapped to exactly 0
        assert np.count_nonzero(x) == support_count(x)
    assert worst <= 1e-12


def test_agrees_with_newton_pursuit_on_full_budget():
    rng = np.random.default_rng(41)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        A = rng.standard_normal((n, n))
        M = A @ A.T + n * np.eye(n)
        q = rng.standard_normal(n)
        inst = LcpInstance(M, q)
        x_piv, _ = lemke_solve(inst)
        rep = nhtp_solve(inst, PHI2, SolverConfig(s=n))
        # positive definite M has a unique solution; both solvers find
        # it, though the quartic flat of the merit near a coordinate
        # with tiny slack limits the Newton iterate to ~1e-6 there
        assert np.linalg.norm(x_piv - rep.x) <= 1e-5 * max(1.0,
                                                           np.linalg.norm(x_piv))


def test_tableau_layout():
    M = np.array([[2.0, 1.0], [0.0, 3.0]])
    q = np.array([-1.0, 4.0])
    tab = Tableau.initial(M, q)
    # the slacks are basic, so only the z and artificial columns and the
    # constant column are stored
    assert tab.body.shape == (2, 4)
    assert tab.basis.tolist() == [0, 1]
    assert tab.nonbasic.tolist() == [2, 3, 4]
    assert tab.basis.dtype == tab.nonbasic.dtype == np.intp
    assert np.array_equal(tab.body[:, :2], -M)
    assert np.array_equal(tab.body[:, 2], [-1.0, -1.0])
    assert np.array_equal(tab.body[:, 3], q)


def test_initial_builds_the_body_in_place():
    # the -M block is written straight into the body: no n x n temporary
    # is made on the way
    n = 1000
    M = np.random.default_rng(5).standard_normal((n, n))
    tracemalloc.start()
    try:
        tab = Tableau.initial(M, -np.ones(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tab.body.flags.f_contiguous
    assert peak <= 1.01 * tab.body.nbytes


def test_pivot_updates_a_tableau_built_from_a_c_ordered_body():
    # dger updates the Fortran body of initial() in place and returns a
    # C-ordered one as an updated copy, which pivot() keeps
    M = np.array([[2.0, 1.0], [0.0, 3.0]])
    q = np.array([-1.0, 4.0])
    ref = Tableau.initial(M, q)
    tab = Tableau(basis=np.arange(2), nonbasic=np.arange(2, 5),
                  body=np.ascontiguousarray(ref.body))
    assert ref.pivot(0, 4) == tab.pivot(0, 4) == 0
    assert np.array_equal(tab.body, ref.body)
    # w_0 leaves and takes the artificial's slot
    assert tab.nonbasic.tolist() == ref.nonbasic.tolist() == [2, 3, 0]
    assert tab.body[:, 2].tolist() == [-1.0, -1.0]
    # the right-hand side is now -q_0, q_1 - q_0
    assert tab.body[0, 3] == 1.0 and tab.body[1, 3] == 5.0


def test_solution_rejects_a_non_complementary_basis():
    # w_1 and z_1 basic together: no Lemke path reaches this basis
    tab = Tableau(basis=np.array([0, 2]), nonbasic=np.array([1, 3, 4]),
                  body=np.zeros((2, 4)))
    with pytest.raises(AssertionError, match="complementary pair"):
        tab.solution()


def test_returns_solution_and_pivot_count():
    inst = LcpInstance(np.eye(1), np.array([-2.0]))
    out = lemke_solve(inst)
    assert isinstance(out, tuple) and len(out) == 2
    x, pivots = out
    assert isinstance(x, np.ndarray)
    assert x[0] == pytest.approx(2.0, abs=1e-12)
    assert pivots >= 1


def _textbook_pivot(self, row, var):
    """Tableau.pivot by np.outer with the driving column scaled instead
    of the pivot row: the same update with different rounding."""
    j = self.slot(var)
    body = self.body
    d = body[:, j].copy()
    prow = body[row].copy()
    body -= np.outer(d / d[row], prow)
    body[row] = prow / d[row]
    # the leaving variable's unit column, updated the same way
    body[:, j] = -(d / d[row])
    body[row, j] = 1.0 / d[row]
    leaving = int(self.basis[row])
    self.basis[row] = var
    self.nonbasic[j] = leaving
    return leaving


def test_path_does_not_depend_on_update_rounding(monkeypatch):
    # rank-deficient M (m < n): the path crosses degenerate bases, where
    # a lowest-index tie-break lets the last bits choose the pivot row
    insts = [generate(GeneratorSpec("sdp_gaussian", 300, m=150, seed=seed))
             for seed in range(4)]
    paths = [lemke_solve(inst) for inst in insts]
    monkeypatch.setattr(Tableau, "pivot", _textbook_pivot)
    for inst, (x, pivots) in zip(insts, paths):
        x_ref, pivots_ref = lemke_solve(inst)
        assert pivots == pivots_ref
        assert np.array_equal(np.flatnonzero(x), np.flatnonzero(x_ref))
        assert np.count_nonzero(x) == support_count(x)


def _slack_block(tab):
    """B^-1 rebuilt from a tableau: the unit column of each basic slack
    and the stored column of each nonbasic one."""
    n = tab.n
    binv = np.zeros((n, n))
    rows = np.flatnonzero(tab.basis < n)
    binv[rows, tab.basis[rows]] = 1.0
    slots = np.flatnonzero(tab.nonbasic < n)
    binv[:, tab.nonbasic[slots]] = tab.body[:, slots]
    return binv


def _lexmin_by_division(binv, d, tied):
    """The tied row with the lexicographically smallest row of binv / d,
    every slack column divided out."""
    quotients = binv[tied] / d[tied][:, None]
    # lexsort's last key is its primary one; full ties keep row order
    return tied[np.lexsort(quotients.T[::-1])[0]]


def test_tie_break_on_basic_slack_columns():
    # n = 3; slacks 0 and 1 basic in rows 0 and 1, z_2 (id 5) in row 2;
    # slack 2 is nonbasic, its column stored in slot 1
    body = np.zeros((3, 5))
    body[:, 1] = [0.5, 0.2, 0.7]
    tab = Tableau(basis=np.array([0, 1, 5]), nonbasic=np.array([3, 2, 4, 6]),
                  body=body)
    d = np.array([2.0, 1.0, 4.0])
    for tied, row in (([0, 1], 1), ([0, 2], 2), ([1, 2], 2),
                      ([0, 1, 2], 2)):
        tied = np.array(tied)
        assert lemke._lexmin_row(tab, d, tied) == row
        assert _lexmin_by_division(_slack_block(tab), d, tied) == row
    # z_1 (id 4) basic in row 1 instead: slack 1 is nonbasic too, stored
    # in slot 2 after slack 2.  Read in slack order, slack 1's quotients
    # 0.7 / 4 < 0.2 / 1 give row 2; slack 2's, 0.1 / 1 < 0.7 / 4, would
    # give row 1
    body[:, 1] = [0.5, 0.1, 0.7]
    body[:, 2] = [0.3, 0.2, 0.7]
    tab = Tableau(basis=np.array([0, 4, 5]), nonbasic=np.array([3, 2, 1, 6]),
                  body=body)
    tied = np.array([1, 2])
    assert lemke._lexmin_row(tab, d, tied) == 2
    assert _lexmin_by_division(_slack_block(tab), d, tied) == 2


def test_tie_break_is_the_lexicographic_minimum(monkeypatch):
    # on every tie of a degenerate path, the shortcut for basic slack
    # columns picks the row a full division of B^-1 by d would pick
    ties = []
    fast = lemke._lexmin_row

    def checked(tab, d, tied):
        row = fast(tab, d, tied)
        ties.append(row == _lexmin_by_division(_slack_block(tab), d, tied))
        return row

    monkeypatch.setattr(lemke, "_lexmin_row", checked)
    for seed in range(2):
        lemke_solve(generate(GeneratorSpec("sdp_gaussian", 300, m=150,
                                           seed=seed)))
    assert len(ties) > 50 and all(ties)


def _full_tableau_lemke(inst):
    """Lemke on the full n x (2n+2) tableau, the unit columns of the
    basic variables kept: slacks 0..n-1, z n..2n-1, the artificial 2n,
    then the constant column.  Each pivot is one dger over the whole
    body, and each tie divides the whole slack block by the driving
    column."""
    M, q = inst.M, inst.q
    n = len(q)
    body = np.zeros((n, 2 * n + 2), order="F")
    np.fill_diagonal(body[:, :n], 1.0)
    body[:, n:2 * n] = -M
    body[:, 2 * n] = -1.0
    body[:, -1] = q
    basis = np.arange(n)

    def pivot(row, col):
        nonlocal body
        scaled = body[row] / body[row, col]
        body = dger(-1.0, body[:, col].copy(), scaled, a=body, overwrite_a=1)
        body[row] = scaled
        leaving = int(basis[row])
        basis[row] = col
        return leaving

    leaving = pivot(int(np.flatnonzero(q == q.min())[-1]), 2 * n)
    pivots = 1
    while leaving != 2 * n:
        driving = leaving + n if leaving < n else leaving - n
        d = body[:, driving]
        elig = d > 1e-9
        assert elig.any()
        ratios = np.full(n, np.inf)
        np.divide(body[:, -1], d, out=ratios, where=elig)
        rmin = ratios.min()
        tied = np.flatnonzero(ratios <= rmin + 1e-9 * max(1.0, abs(rmin)))
        row = _lexmin_by_division(body[:, :n], d, tied)
        leaving = pivot(row, driving)
        pivots += 1
    z = (basis >= n) & (basis < 2 * n)
    x = np.zeros(n)
    x[basis[z] - n] = body[z, -1]
    x[~support_mask(x)] = 0.0
    return x, pivots, basis, body


def test_condensed_tableau_matches_the_full_tableau(monkeypatch):
    # dger updates each column on its own, so leaving out the unit
    # columns of the basic variables changes no stored bit and no pivot
    # decision, also on degenerate paths (m < n)
    made = []
    initial = Tableau.initial

    def recorded(M, q):
        made.append(initial(M, q))
        return made[-1]

    monkeypatch.setattr(Tableau, "initial", staticmethod(recorded))
    insts = [generate(GeneratorSpec("sdp_gaussian", 300, m=150, seed=seed))
             for seed in range(4)]
    insts.append(generate(GeneratorSpec("sdp_uniform", 300, seed=0)))
    for inst in insts:
        x, pivots = lemke_solve(inst)
        x_ref, pivots_ref, basis, body = _full_tableau_lemke(inst)
        assert pivots == pivots_ref
        assert x.tobytes() == x_ref.tobytes()
        # every stored column too; array_equal reads -0.0 == 0.0
        tab = made.pop()
        assert np.array_equal(tab.basis, basis)
        assert np.array_equal(tab.body[:, :-1], body[:, tab.nonbasic])
        assert np.array_equal(tab.body[:, -1], body[:, -1])


def test_peak_memory_is_the_condensed_body():
    # the n x (n+2) body and O(n) vectors: the full tableau took twice that
    n = 300
    inst = generate(GeneratorSpec("sdp_gaussian", n, m=150, seed=0))
    tracemalloc.start()
    try:
        lemke_solve(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * n * (n + 2) * 8
