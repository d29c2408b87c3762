"""Tests for the complementary pivoting baseline."""

import itertools

import numpy as np
import pytest

from sparselcp.core import LcpInstance, SolverConfig
from sparselcp.lemke import (PivotLimit, RayTermination, Tableau, lemke_solve)
from sparselcp.merit import MeritModel, merit_value
from sparselcp.nhtp import solve as nhtp_solve
from sparselcp.problems import GeneratorSpec, generate

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
    assert tab.body.shape == (2, 6)
    assert tab.basis == [0, 1]
    assert np.array_equal(tab.body[:, :2], np.eye(2))
    assert np.array_equal(tab.body[:, 2:4], -M)
    assert np.array_equal(tab.body[:, 4], [-1.0, -1.0])
    assert np.array_equal(tab.body[:, 5], q)


def test_returns_solution_and_pivot_count():
    inst = LcpInstance(np.eye(1), np.array([-2.0]))
    out = lemke_solve(inst)
    assert isinstance(out, tuple) and len(out) == 2
    x, pivots = out
    assert isinstance(x, np.ndarray)
    assert x[0] == pytest.approx(2.0, abs=1e-12)
    assert pivots >= 1
