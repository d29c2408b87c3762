"""Tests for the Newton hard-thresholding pursuit solver."""

import tracemalloc

import numpy as np
import pytest

from dense_merit import dense_gradient, dense_hessian
from sparselcp import nhtp, tuning
from sparselcp.core import (LcpInstance, SolverConfig, Termination,
                            certificate, top_s_by_magnitude)
from sparselcp.merit import (MeritModel, gradient_from_xy, merit_gradient,
                             merit_value, value_from_xy)
from sparselcp.nhtp import (line_search, newton_direction, residual,
                            select_support, solve)
from sparselcp.problems import GeneratorSpec, generate, is_success
from sparselcp.tuning import TuningConfig, nhtpt_solve

PHI2 = MeritModel.phi_r(2)


def one_dim_state(M_val, q_val, u_val, s=1):
    """The equilibrated one-dimensional LCP and its iterate at u:
    (inst, scale, q, u, v, f, g, T), with scale = 1 / m_scale and
    q = inst.q / q_scale."""
    inst = LcpInstance(np.array([[M_val]]), np.array([q_val]))
    scale, q = 1.0 / inst.m_scale, inst.q / inst.q_scale
    u = np.array([float(u_val)])
    v = scale * inst.M @ u + q
    return (inst, scale, q, u, v, value_from_xy(PHI2, u, v),
            gradient_from_xy(PHI2, inst.M, u, v, scale=scale), np.arange(s))


def solve_with_history(inst, model, config):
    """solve with a callback: (report, fs), fs the objective at every
    iterate, the start included."""
    fs = []
    rep = solve(inst, model, config, callback=lambda k, x, f: fs.append(f))
    return rep, fs


def test_equilibration_scales(monkeypatch):
    # what solve hands its helpers: mu = max |M_ij| = 2 and
    # rho = max(1, ||q||_inf) = 3, so the solver runs on M / 2, q / 3
    # and hands out x = (3 / 2) u, here for the u = 1 the finish certifies
    calls = []
    real = nhtp._finish

    def finish(inst, scale, q, x, s):
        out = real(inst, scale, q, x, s)
        calls.append((scale, q.copy(), None if out is None else out[0]))
        return out

    monkeypatch.setattr(nhtp, "_finish", finish)
    rep = solve(LcpInstance(np.array([[2.0]]), np.array([-3.0])), PHI2,
                SolverConfig(s=1))
    assert calls
    assert all(sc == 0.5 and q.tolist() == [-1.0] for sc, q, _ in calls)
    u = calls[-1][2]
    assert u.tolist() == [1.0]
    assert rep.x.tolist() == (1.5 * u).tolist() == [1.5]
    # a zero M scales by 1 and a small q by 1: the LCP itself.  From
    # zero the residual ends this solve at once, so it starts at (1, 0)
    calls.clear()
    q0 = np.array([0.5, -0.25])
    solve(LcpInstance(np.zeros((2, 2)), q0), PHI2, SolverConfig(s=1),
          x0=np.array([1.0, 0.0]))
    assert len(calls) == 1
    assert calls[0][0] == 1.0 and np.array_equal(calls[0][1], q0)


def test_newton_direction_worked_example():
    # M = [[2]], q = [-3] equilibrate to [[1]], [-1].  At u = 2, v = 1:
    # gradient 6, Hessian 13, no dropped coordinates, so the direction
    # solves 13 d = -6
    inst, scale, _, u, v, _, g, T = one_dim_state(2.0, -3.0, 2.0)
    d = newton_direction(u, v, g, T, T, PHI2, inst, inst.columns(T), scale,
                         5.0)
    assert d is not None
    assert d[0] == pytest.approx(-6.0 / 13.0, rel=1e-14)


def test_residual_worked_example():
    # full support (s = n): residual is just the gradient norm
    u, _, _, g, T = one_dim_state(2.0, -3.0, 2.0)[3:]
    assert residual(u, g, T, 5.0, 1) == 6.0


def test_residual_off_support_charge():
    # x = (2, 0.5, 0), grad = (0, 0, 1), T = {0, 1}, eta = 5, s = 2:
    # the stacked part vanishes and the off-support charge is
    # |grad_2| - x_(2)/eta = 1 - 0.5/5 = 0.9
    res = residual(np.array([2.0, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]),
                   np.array([0, 1]), 5.0, 2)
    assert res == pytest.approx(0.9, abs=1e-15)


def test_select_support_uses_gradient_step():
    # x - eta*grad = (1, 5, 0) so the single slot goes to index 1
    T = select_support(np.array([1.0, 0.0, 0.0]),
                       np.array([0.0, -1.0, 0.0]), 5.0, 1)
    assert T.tolist() == [1]
    assert T.size == 1


def test_fallback_direction_is_restricted_steepest_descent(monkeypatch):
    # with every Newton direction refused, each search runs along -g on T
    # and -u off T; on this draw the working set moves while the descent
    # crawls, so some searches drop a nonzero coordinate of u
    seen = []
    real = nhtp.line_search

    def search(x, f, g, T, direction, model, cols, scale, q):
        seen.append((x.copy(), g.copy(), T.copy(), direction.copy()))
        return real(x, f, g, T, direction, model, cols, scale, q)

    monkeypatch.setattr(nhtp, "newton_direction", lambda *args: None)
    monkeypatch.setattr(nhtp, "line_search", search)
    inst = generate(GeneratorSpec("sdp_gaussian", 40, s_star=4, m=20,
                                  seed=1))
    solve(inst, PHI2, SolverConfig(s=4))
    assert len(seen) > 1
    dropped = 0
    for x, g, T, d in seen:
        off = np.ones(x.size, dtype=bool)
        off[T] = False
        assert np.array_equal(d[T], -g[T])
        assert np.array_equal(d[off], -x[off])
        dropped += np.any(x[off] != 0.0)
    assert dropped > 0


def test_line_search_accepts_descent_and_rejects_ascent():
    # f(x) = x^4/2 on the ray y = x: descending direction takes a full
    # step to zero, ascending direction can never satisfy the bound
    inst = LcpInstance(np.array([[1.0]]), np.array([0.0]))
    x = np.array([1.0])
    f = merit_value(PHI2, inst, x)
    g = merit_gradient(PHI2, inst, x)
    assert f == 0.5 and g[0] == 2.0
    T = np.array([0])
    # unit scales: the LCP itself
    cols = inst.columns(T)
    step = line_search(x, f, g, T, np.array([-1.0]), PHI2, cols, 1.0, inst.q)
    assert step is not None
    alpha, x_new, y_new, f_new, bt = step
    assert alpha == 1.0 and bt == 0
    assert x_new[0] == 0.0 and y_new[0] == 0.0 and f_new == 0.0
    assert line_search(x, f, g, T, np.array([1.0]), PHI2, cols, 1.0,
                       inst.q) is None
    # the fixed Armijo constants: along d = -4, alpha = 1 gives x = -3,
    # f = 9, and alpha = 1/2 gives x = -1, f = 1, both above
    # 0.5 - 1e-4 * 8 alpha; the second halving, alpha = 1/4, reaches
    # x = 0, f = 0.  So the trials are 1, 1/2, 1/4: beta = 0.5
    alpha, x_new, y_new, f_new, bt = line_search(
        x, f, g, T, np.array([-4.0]), PHI2, cols, 1.0, inst.q)
    assert alpha == 0.25 and bt == 2
    assert x_new[0] == 0.0 and y_new[0] == 0.0 and f_new == 0.0


def test_line_search_zeroes_coordinates_off_support():
    # the candidate keeps only support coordinates; the tiny second entry
    # of x is dropped exactly, not shrunk
    inst = LcpInstance(np.eye(2), np.array([-1.0, -1.0]))
    x = np.array([0.5, 1e-8])
    T = np.array([0])
    step = line_search(x, merit_value(PHI2, inst, x),
                       merit_gradient(PHI2, inst, x), T,
                       np.array([0.5, 0.0]), PHI2, inst.columns(T), 1.0,
                       inst.q)  # unit scales
    assert step is not None
    assert step[1][0] == 1.0  # full step on the supported coordinate
    assert step[1][1] == 0.0  # off-support coordinate dropped


def test_solve_trivial_nonnegative_q():
    # q >= 0 means x = 0 solves the problem; the solver certifies it
    # immediately without iterating
    rng = np.random.default_rng(7)
    Z = rng.standard_normal((6, 6))
    inst = LcpInstance(Z @ Z.T, np.abs(rng.standard_normal(6)))
    rep, fs = solve_with_history(inst, PHI2, SolverConfig(s=2))
    assert rep.termination is Termination.RESIDUAL_MET
    assert rep.iterations == 0
    assert np.all(rep.x == 0.0)
    assert rep.objective == 0.0
    assert fs == [0.0]


def test_solve_one_dimensional_recovery():
    # y = x - 1: the global minimum of the merit sits at x = 1
    inst = LcpInstance(np.array([[1.0]]), np.array([-1.0]))
    rep = solve(inst, PHI2, SolverConfig(s=1), x0=np.array([2.0]))
    assert abs(rep.x[0] - 1.0) <= 1e-8
    assert rep.objective <= 1e-16
    assert rep.termination in (Termination.RESIDUAL_MET,
                               Termination.OBJECTIVE_STALLED)


def test_solve_recovers_planted_solutions():
    # small planted instances are occasionally trapped at a stationary
    # point, so require a strong majority rather than a clean sweep, and
    # a tight error on every recovered seed
    hits = 0
    for seed in range(10):
        spec = GeneratorSpec("sdp_gaussian", 60, s_star=3, m=30, seed=seed)
        inst = generate(spec)
        rep = solve(inst, PHI2, SolverConfig(s=3))
        if is_success(rep.x, inst.ground_truth):
            hits += 1
            err = np.linalg.norm(rep.x - inst.ground_truth)
            assert err <= 1e-8 * np.linalg.norm(inst.ground_truth)
    assert hits >= 7


def test_iterates_stay_sparse_and_monotone():
    seen = []

    def watch(k, x, f):
        seen.append((k, np.count_nonzero(x), f))

    spec = GeneratorSpec("sdp_gaussian", 50, s_star=4, m=25, seed=5)
    inst = generate(spec)
    rep = solve(inst, PHI2, SolverConfig(s=4), callback=watch)
    ks = [k for k, _, _ in seen]
    assert ks == list(range(rep.iterations + 1))
    assert all(nnz <= 4 for _, nnz, _ in seen)
    fs = [f for _, _, f in seen]
    assert fs[-1] == rep.objective
    assert all(b <= a for a, b in zip(fs, fs[1:]))  # monotone descent


def test_report_fields_are_consistent():
    spec = GeneratorSpec("sdp_uniform", 40, s_star=2, m=20, seed=1)
    inst = generate(spec)
    cfg = SolverConfig(s=2)
    rep, fs = solve_with_history(inst, PHI2, cfg)
    assert rep.objective == fs[-1]
    assert rep.iterations == len(fs) - 1
    assert rep.support.size == 2
    assert set(np.nonzero(rep.x)[0]) <= set(rep.support.tolist())
    assert rep.wall_time >= 0.0
    # the reported residual is reproducible from the final point; the
    # solver updates y incrementally, so recomputing it as M x + q moves
    # near-cancelling gradient entries by ~1e-14 in absolute terms
    x, g = rep.x, merit_gradient(PHI2, inst, rep.x)
    eta = cfg.eta
    T = select_support(x, g, eta, cfg.s)
    assert residual(x, g, T, eta, cfg.s) == pytest.approx(
        rep.residual, rel=1e-3, abs=1e-12)


def test_working_sets_are_sorted_index_arrays_of_size_s(monkeypatch):
    # real outputs only: a selection, a solve from zero, a solve whose
    # oversized start is trimmed, and one budget-search round
    def check(support, s, x=None):
        assert support.dtype == np.intp
        assert support.size == s
        assert np.all(np.diff(support) > 0)
        if x is not None:
            assert set(np.nonzero(x)[0]) <= set(support.tolist())

    check(top_s_by_magnitude(np.array([0.0, -3.0, 1.0, 3.0, 2.0]), 3), 3)
    inst = generate(GeneratorSpec("sdp_gaussian", 30, s_star=3, m=15,
                                  seed=6))
    rep = solve(inst, PHI2, SolverConfig(s=4))
    check(rep.support, 4, rep.x)
    # five nonzeros trimmed to budget 3 land on the solution, so the
    # report carries the trimmed starting set itself
    small = LcpInstance(np.eye(5), np.array([-1.0, -1.0, -1.0, 1.0, 1.0]))
    rep = solve(small, PHI2, SolverConfig(s=3),
                x0=np.array([1.0, 1.0, 1.0, 0.1, 0.2]))
    assert rep.iterations == 0 and rep.support.tolist() == [0, 1, 2]
    check(rep.support, 3, rep.x)
    # one nonzero under budget 3 is padded with the lowest free indices
    pad = LcpInstance(np.eye(5), np.array([1.0, 1.0, 1.0, 1.0, -1.0]))
    rep = solve(pad, PHI2, SolverConfig(s=3), x0=np.eye(5)[4])
    assert rep.iterations == 0 and rep.support.tolist() == [0, 1, 4]
    check(rep.support, 3, rep.x)
    monkeypatch.setattr(tuning, "_MAX_ROUNDS", 1)
    rep, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1),
                              TuningConfig(s0=2))
    assert rounds == 1
    check(rep.support, 2, rep.x)


def test_eta_halving_retries_pin_the_report():
    # an eta of 1e6 is far too large in equilibrated units, so this solve
    # halves it 19 times, each retry selecting, solving and searching
    # again from the same point.  The budget is one below the planted 5,
    # so no point the finish builds certifies and the retries run
    inst = generate(GeneratorSpec("sdp_gaussian", 500, seed=0))
    rep = solve(inst, PHI2, SolverConfig(s=4, eta=1e6))
    assert rep.iterations == 6
    assert rep.termination is Termination.RESIDUAL_MET
    assert rep.support.tolist() == [150, 203, 226, 408]


def test_eta_halving_retries_run_one_failed_search_each(monkeypatch):
    # the solve above runs 25 line searches: each of its 19 eta halvings
    # follows one that tried all 51 step sizes, and each of its 6 steps
    # ends one that accepted alpha = 1
    counted = []
    real = nhtp.line_search

    def search(*args):
        out = real(*args)
        counted.append(51 if out is None else out[4])
        return out

    monkeypatch.setattr(nhtp, "line_search", search)
    inst = generate(GeneratorSpec("sdp_gaussian", 500, seed=0))
    rep = solve(inst, PHI2, SolverConfig(s=4, eta=1e6))
    assert rep.iterations == 6
    assert len(counted) == 25
    assert counted.count(51) == 19
    assert sum(counted) == 969  # 19 failures of 51 trials; no backtracks


def test_residual_met_is_not_a_claim_of_a_solution():
    # s = 1 is below the planted 4: the solve ends at a spurious
    # s-stationary point whose merit is positive, and the certificate of
    # the point it reports is far from 0
    inst = generate(GeneratorSpec("sdp_gaussian", 40, s_star=4, m=20,
                                  seed=8))
    rep = solve(inst, PHI2, SolverConfig(s=1))
    assert rep.termination is Termination.RESIDUAL_MET
    assert rep.residual <= 1e-16
    assert rep.objective == pytest.approx(0.557, abs=1e-3)
    x = rep.x
    assert certificate(x, inst.M @ x + inst.q, inst.q) == pytest.approx(
        0.974, abs=1e-3)


def test_finish_certifies_through_rounding_level_negatives():
    # from one of the two planted indices, one pass brings in the other.
    # At the solution 54 off-support v_i of the equilibrated LCP come out
    # negative by about 1e-17, so only a tolerance on v lets the finish
    # certify it
    inst = generate(GeneratorSpec("sdp_gaussian", 200, seed=0))
    scale, q = 1.0 / inst.m_scale, inst.q / inst.q_scale
    nu = inst.q_scale / inst.m_scale
    gt = inst.ground_truth
    planted = np.flatnonzero(gt)
    u = gt / nu
    u[planted[1]] = 0.0
    u_f, v_f = nhtp._finish(inst, scale, q, u, 2)
    assert np.flatnonzero(u_f).tolist() == planted.tolist()
    assert np.allclose(nu * u_f, gt, rtol=0.0, atol=1e-12)
    assert np.allclose(v_f, scale * (inst.M @ u_f) + q, rtol=0.0, atol=1e-12)
    off = gt == 0.0
    assert np.count_nonzero(v_f[off] < 0.0) == 54
    assert v_f[off].min() >= -1e-12  # ||q / rho||_inf = 1
    assert certificate(u_f, v_f, q) <= 1e-12
    # no room for the second index, and nothing to start from
    assert nhtp._finish(inst, scale, q, u, 1) is None
    assert nhtp._finish(inst, scale, q, np.zeros(inst.n), 2) is None


def test_finish_gives_up_when_its_passes_run_out(monkeypatch):
    # from u = (1, 0) on M = I, q = (-1, -1), the first pass solves on
    # F = {0} and leaves v = (0, -1); index 1 swaps in and the second pass
    # certifies (1, 1).  With one pass allowed, the swap is made and no
    # pass is left to solve with it
    inst = LcpInstance(np.eye(2), np.array([-1.0, -1.0]))
    u = np.array([1.0, 0.0])
    x_f, v_f = nhtp._finish(inst, 1.0, inst.q, u, 2)
    assert x_f.tolist() == [1.0, 1.0] and v_f.tolist() == [0.0, 0.0]
    monkeypatch.setattr(nhtp, "_FINISH_PASSES", 1)
    assert nhtp._finish(inst, 1.0, inst.q, u, 2) is None


def test_finished_point_is_an_iterate(monkeypatch):
    # the finish certifies x^2 here, where the pursuit alone took 7
    # iterations: that point, scaled back to the units of (M, q),
    # reaches callback as an s-sparse iterate that does not raise f, and
    # the report is built from it
    polished = []
    real = nhtp._finish

    def finish(*args):
        out = real(*args)
        if out is not None:
            polished.append(out[0])
        return out

    monkeypatch.setattr(nhtp, "_finish", finish)
    seen = []
    inst = generate(GeneratorSpec("sdp_gaussian", 40, s_star=2, m=20,
                                  seed=9))
    rep = solve(inst, PHI2, SolverConfig(s=2),
                callback=lambda k, x, f: seen.append((k, x.copy(), f)))
    assert len(polished) == 1
    assert [k for k, _, _ in seen] == [0, 1, 2] and rep.iterations == 2
    nu = inst.q_scale / inst.m_scale
    assert nu != 1.0
    assert np.array_equal(seen[-1][1], nu * polished[0])
    assert np.array_equal(rep.x, nu * polished[0])
    fs = [f for _, _, f in seen]
    assert fs[-1] == rep.objective
    assert all(np.count_nonzero(x) <= 2 for _, x, _ in seen)
    assert all(b <= a for a, b in zip(fs, fs[1:]))
    assert rep.support.tolist() == np.flatnonzero(inst.ground_truth).tolist()
    assert rep.termination is Termination.RESIDUAL_MET


def test_finish_recovers_the_stall_prone_family():
    # sdp_uniform at s = s*: without the finish, 5 of these 10 solves
    # stalled at f = 2.4e4 to 3.3e5, far from the planted solution
    for seed in range(10):
        inst = generate(GeneratorSpec("sdp_uniform", 1000, s_star=10,
                                      seed=seed))
        rep = solve(inst, PHI2, SolverConfig(s=10))
        assert rep.termination in (Termination.CERTIFIED,
                                   Termination.RESIDUAL_MET), seed
        assert is_success(rep.x, inst.ground_truth), seed


def test_row_reads_leave_the_solve_bit_identical(monkeypatch):
    # s = 10 drops coordinates (the T x J block) and retries eta, so every
    # read of M[:, T] runs; a symmetric M is read by rows unless patched
    inst = generate(GeneratorSpec("sdp_gaussian", 300, seed=1))
    assert inst.symmetric
    config = SolverConfig(s=10)
    rows, rows_fs = solve_with_history(inst, PHI2, config)
    read = []

    def column_read(self, idx):
        read.append(len(idx))
        return self.M[:, idx]

    monkeypatch.setattr(LcpInstance, "columns", column_read)
    cols, cols_fs = solve_with_history(inst, PHI2, config)
    assert read
    assert np.array_equal(rows.x, cols.x)
    assert rows_fs == cols_fs
    assert rows.iterations == cols.iterations
    assert np.array_equal(rows.support, cols.support)
    assert rows.termination is cols.termination


@pytest.mark.parametrize("n", [300, 1000])
@pytest.mark.parametrize("model", [PHI2, MeritModel.psi2()],
                         ids=lambda m: m.kind)
def test_row_skipping_derivatives_leave_the_solve_unchanged(monkeypatch,
                                                           model, n):
    # the derivatives skip the rows of M whose b-partials vanish; the
    # solve must take the same path as with one product over every row
    spec = GeneratorSpec("sdp_gaussian", n, seed=2)
    inst = generate(spec)
    config = SolverConfig(s=spec.resolved_s_star)
    skipping = solve(inst, model, config)
    monkeypatch.setattr(nhtp.mer, "gradient_from_xy", dense_gradient)
    monkeypatch.setattr(nhtp.mer, "merit_hessian", dense_hessian)
    dense = solve(inst, model, config)
    assert skipping.iterations == dense.iterations
    assert skipping.termination is dense.termination
    assert np.array_equal(skipping.support, dense.support)
    assert np.allclose(skipping.x, dense.x, rtol=1e-10, atol=1e-12)


def test_power_of_two_scalings_give_bit_identical_solves():
    # scaling M by 2^k and q by 2^j, with ||q||_inf >= 1 either way,
    # leaves the equilibrated LCP bit for bit the same: the solve takes
    # the same path and hands out exactly 2^(j - k) times the point
    inst = generate(GeneratorSpec("sdp_gaussian", 500, seed=0))
    config = SolverConfig(s=4)  # one below the planted 5: a longer path
    base, base_fs = solve_with_history(inst, PHI2, config)
    assert base.iterations == 6
    for k, j in ((3, -2), (-5, 4), (10, 10)):
        scaled = LcpInstance(inst.M * 2.0**k, inst.q * 2.0**j)
        assert np.abs(scaled.q).max() >= 1.0
        rep, fs = solve_with_history(scaled, PHI2, config)
        assert np.array_equal(rep.x, base.x * 2.0**(j - k)), (k, j)
        assert rep.iterations == base.iterations
        assert np.array_equal(rep.support, base.support)
        assert rep.termination is base.termination
        assert fs == base_fs


def traced_peak(fn, *args):
    """fn(*args) and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_allocates_nothing_of_the_size_of_m():
    # the equilibrated LCP is never formed: every product with M carries
    # the scale instead, so the solve's own peak stays a small fraction
    # of M (about 2.4 % here; one copy of M would be 100 %)
    spec = GeneratorSpec("sdp_gaussian", 2000, seed=0)
    inst = generate(spec)
    _, peak = traced_peak(solve, inst, PHI2,
                          SolverConfig(s=spec.resolved_s_star))
    assert peak <= 0.1 * inst.M.nbytes


def test_solve_peak_is_one_gather_of_the_working_set():
    # one n x s gather of M[:, T] per iterate, read by both Hessian
    # blocks and the line search, plus the T x T block's two |a| x s
    # products: 1.82 n s 8 bytes here.  Holding a second gather, as the
    # finish or separate gathers per block would, reads 2.16
    n, s = 2000, 60
    inst = generate(GeneratorSpec("sdp_gaussian", n, s_star=s, seed=0))
    _, peak = traced_peak(solve, inst, PHI2, SolverConfig(s=s))
    assert peak < 1.95 * n * s * 8


def test_finish_holds_one_gather_at_a_time(monkeypatch):
    # from the planted support with one index swapped for a wrong one,
    # the finish takes two passes over |F| = 60 before it certifies; its
    # peak is one n x |F| gather plus O(n) vectors (1.13 n |F| 8 bytes),
    # where keeping the last pass's gather through the next reads 2.07
    n, s = 2000, 60
    inst = generate(GeneratorSpec("sdp_gaussian", n, s_star=s, seed=0))
    scale, q = 1.0 / inst.m_scale, inst.q / inst.q_scale
    planted = np.flatnonzero(inst.ground_truth)
    u = inst.ground_truth * (inst.m_scale / inst.q_scale)
    u[planted[0]] = 0.0
    u[np.setdiff1d(np.arange(n), planted)[0]] = 1.0
    sizes = []
    real = LcpInstance.columns

    def columns(self, idx):
        sizes.append(len(idx))
        return real(self, idx)

    monkeypatch.setattr(LcpInstance, "columns", columns)
    out, peak = traced_peak(nhtp._finish, inst, scale, q, u, s)
    assert sizes == [s, s]
    assert out is not None
    assert peak < 1.5 * n * s * 8


def test_one_gather_of_the_working_set_per_newton_iterate(monkeypatch):
    # both Hessian blocks and the line search read M[:, T] from one
    # gather per iterate; the T x J block gathers only its |J| columns.
    # Gathers are counted from the end of the finish, whose own are of
    # F, to the end of each search.  On this path the third search runs
    # with a T x J block
    window, per_search, others = [], [], []
    real_columns = LcpInstance.columns
    real_finish = nhtp._finish
    real_search = nhtp.line_search

    def columns(self, idx):
        window.append(np.array(idx))
        return real_columns(self, idx)

    def finish(*args):
        out = real_finish(*args)
        window.clear()
        return out

    def search(x, f, g, T, *rest):
        out = real_search(x, f, g, T, *rest)
        per_search.append(sum(np.array_equal(idx, T) for idx in window))
        others.append(len(window) - per_search[-1])
        window.clear()
        return out

    monkeypatch.setattr(LcpInstance, "columns", columns)
    monkeypatch.setattr(nhtp, "_finish", finish)
    monkeypatch.setattr(nhtp, "line_search", search)
    inst = generate(GeneratorSpec("sdp_gaussian", 500, seed=0))
    rep = solve(inst, PHI2, SolverConfig(s=4))
    assert rep.iterations == 6
    assert per_search == [1] * 6
    assert others == [0, 0, 1, 0, 0, 0]


def test_oversized_start_is_trimmed():
    first = []

    def watch(k, x, f):
        if k == 0:
            first.append(x.copy())

    spec = GeneratorSpec("sdp_gaussian", 10, s_star=2, m=5, seed=3)
    inst = generate(spec)
    x0 = np.arange(1.0, 11.0)  # 10 nonzeros, budget 3
    solve(inst, PHI2, SolverConfig(s=3), x0=x0, callback=watch)
    assert np.count_nonzero(first[0]) == 3
    # the three largest magnitudes survive
    assert set(np.nonzero(first[0])[0]) == {7, 8, 9}


def test_solve_input_validation():
    inst = LcpInstance(np.eye(2), np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        solve(inst, PHI2, SolverConfig(s=3))  # s > n
    with pytest.raises(ValueError):
        solve(inst, PHI2, SolverConfig(s=1), x0=np.ones(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            solve(inst, PHI2, SolverConfig(s=1), x0=np.array([1.0, bad]))


def test_iteration_cap_termination(monkeypatch):
    monkeypatch.setattr(nhtp, "_MAX_ITER", 1)
    monkeypatch.setattr(nhtp, "_TOL", 0.0)
    spec = GeneratorSpec("sdp_uniform_nox", 30, s_star=3, seed=2)
    inst = generate(spec)
    rep = solve(inst, PHI2, SolverConfig(s=3))
    assert rep.termination in (Termination.ITERATION_CAP,
                               Termination.OBJECTIVE_STALLED)
    if rep.termination is Termination.ITERATION_CAP:
        assert rep.iterations == 1


def test_line_search_failure_on_non_decreasable_merit():
    # f(0) = q^2 / 2 overflows for q = -1e300 in the units of (M, q), but
    # divided by rho = 1e300 the LCP is M = 1, q = -1: x = rho * 1 solves
    inst = LcpInstance(np.array([[1.0]]), np.array([-1e300]))
    rep = solve(inst, PHI2, SolverConfig(s=1))
    assert rep.termination is Termination.RESIDUAL_MET
    assert rep.x.tolist() == [1e300]
    assert certificate(rep.x, inst.M @ rep.x + inst.q, inst.q) == 0.0
    # from x0 = 1e300 the merit does overflow to inf at the start (mu =
    # rho = 1, so equilibration leaves the start as it is), and every
    # Armijo comparison fails; the solver walks its step-size ladder down
    # to the floor and reports the failure instead of looping forever
    inst = LcpInstance(np.array([[1.0]]), np.array([1.0]))
    with np.errstate(over="ignore"):
        rep = solve(inst, PHI2, SolverConfig(s=1), x0=np.array([1e300]))
    assert rep.termination is Termination.LINE_SEARCH_FAILED
    assert rep.iterations == 0
    assert np.isinf(rep.objective)


def test_explicit_eta_is_honored():
    # solving still works with a custom step scale, and changing the
    # scale changes the iterate path, so the option cannot be a no-op
    spec = GeneratorSpec("zmatrix", 50)
    inst = generate(spec)
    rep = solve(inst, PHI2, SolverConfig(s=1, eta=2.0))
    assert np.linalg.norm(rep.x - inst.ground_truth) <= 1e-8
    # on this draw the finish first certifies from x^2, and the two paths
    # part at x^2: from zero, the first selection does not depend on eta
    planted = generate(GeneratorSpec("sdp_gaussian", 40, s_star=4, m=20,
                                     seed=1))
    default = solve_with_history(planted, PHI2, SolverConfig(s=4))[1]
    custom = solve_with_history(planted, PHI2, SolverConfig(s=4, eta=0.5))[1]
    assert default[:2] == custom[:2]
    assert default[2] != custom[2]


def test_solver_is_deterministic():
    spec = GeneratorSpec("sdp_gaussian", 45, s_star=3, m=22, seed=12)
    inst = generate(spec)
    a, a_fs = solve_with_history(inst, PHI2, SolverConfig(s=3))
    b, b_fs = solve_with_history(inst, PHI2, SolverConfig(s=3))
    assert np.array_equal(a.x, b.x)
    assert a_fs == b_fs
    assert a.termination is b.termination


def test_other_merits_drive_the_quadratic_objective_down():
    spec = GeneratorSpec("sdp_gaussian", 40, s_star=2, m=20, seed=4)
    inst = generate(spec)
    for model in (MeritModel.fischer_burmeister(), MeritModel.natural_min(),
                  MeritModel.psi2()):
        rep = solve(inst, model, SolverConfig(s=2))
        f2 = merit_value(PHI2, inst, rep.x)
        assert f2 <= 1e-6, model.kind
