"""Tests for the Newton hard-thresholding pursuit solver."""

import numpy as np
import pytest

from sparselcp import nhtp
from sparselcp.core import (LcpInstance, SolverConfig, Termination,
                            top_s_by_magnitude)
from sparselcp.merit import MeritModel, merit_gradient, merit_value
from sparselcp.nhtp import (IterateState, fallback_direction, line_search,
                            newton_direction, residual, select_support, solve)
from sparselcp.problems import GeneratorSpec, generate, is_success
from sparselcp.tuning import TuningConfig, nhtpt_solve

PHI2 = MeritModel.phi_r(2)


def one_dim_state(M_val, q_val, x_val, eta=5.0, s=1):
    inst = LcpInstance(np.array([[M_val]]), np.array([q_val]))
    x = np.array([float(x_val)])
    y = inst.M @ x + inst.q
    T = np.arange(s)
    return inst, IterateState(x=x, y=y, support=T, prev_support=T,
                              value=merit_value(PHI2, inst, x),
                              grad=merit_gradient(PHI2, inst, x), eta=eta)


def test_newton_direction_worked_example():
    # M = [[2]], q = [-3], x = 2: gradient 10, Hessian 33, no dropped
    # coordinates, so the direction solves 33 d = -10
    inst, state = one_dim_state(2.0, -3.0, 2.0)
    d = newton_direction(state, PHI2, inst)
    assert d is not None
    assert d[0] == pytest.approx(-10.0 / 33.0, rel=1e-14)


def test_residual_worked_example():
    # full support (s = n): residual is just the gradient norm
    _, state = one_dim_state(2.0, -3.0, 2.0)
    assert residual(state.x, state.grad, state.support, state.eta, 1) == 10.0


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


def test_fallback_direction_shape():
    inst = LcpInstance(np.eye(2), np.zeros(2))
    state = IterateState(x=np.array([2.0, 1.0]), y=np.zeros(2),
                         support=np.array([0]), prev_support=np.array([0, 1]),
                         value=0.0, grad=np.array([10.0, 7.0]), eta=5.0)
    d = fallback_direction(state)
    assert d.tolist() == [-10.0, -1.0]


def test_line_search_accepts_descent_and_rejects_ascent():
    # f(x) = x^4/2 on the ray y = x: descending direction takes a full
    # step to zero, ascending direction can never satisfy the bound
    inst = LcpInstance(np.array([[1.0]]), np.array([0.0]))
    x = np.array([1.0])
    f = merit_value(PHI2, inst, x)
    g = merit_gradient(PHI2, inst, x)
    assert f == 0.5 and g[0] == 2.0
    T = np.array([0])
    state = IterateState(x=x, y=inst.M @ x + inst.q, support=T,
                         prev_support=T, value=f, grad=g, eta=5.0)
    cfg = SolverConfig(s=1)
    step = line_search(state, np.array([-1.0]), PHI2, inst, cfg)
    assert step is not None
    alpha, x_new, y_new, f_new, bt = step
    assert alpha == 1.0 and bt == 0
    assert x_new[0] == 0.0 and y_new[0] == 0.0 and f_new == 0.0
    assert line_search(state, np.array([1.0]), PHI2, inst, cfg) is None


def test_line_search_zeroes_coordinates_off_support():
    # the candidate keeps only support coordinates; the tiny second entry
    # of x is dropped exactly, not shrunk
    inst = LcpInstance(np.eye(2), np.array([-1.0, -1.0]))
    x = np.array([0.5, 1e-8])
    state = IterateState(x=x, y=inst.M @ x + inst.q, support=np.array([0]),
                         prev_support=np.array([0, 1]),
                         value=merit_value(PHI2, inst, x),
                         grad=merit_gradient(PHI2, inst, x), eta=5.0)
    step = line_search(state, np.array([0.5, 0.0]), PHI2, inst,
                       SolverConfig(s=1))
    assert step is not None
    assert step[1][0] == 1.0  # full step on the supported coordinate
    assert step[1][1] == 0.0  # off-support coordinate dropped


def test_solve_trivial_nonnegative_q():
    # q >= 0 means x = 0 solves the problem; the solver certifies it
    # immediately without iterating
    rng = np.random.default_rng(7)
    Z = rng.standard_normal((6, 6))
    inst = LcpInstance(Z @ Z.T, np.abs(rng.standard_normal(6)))
    rep = solve(inst, PHI2, SolverConfig(s=2))
    assert rep.termination is Termination.RESIDUAL_MET
    assert rep.iterations == 0
    assert np.all(rep.x == 0.0)
    assert rep.objective == 0.0
    assert rep.f_trace == [0.0]


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
    assert fs == rep.f_trace
    assert all(b <= a for a, b in zip(fs, fs[1:]))  # monotone descent


def test_report_fields_are_consistent():
    spec = GeneratorSpec("sdp_uniform", 40, s_star=2, m=20, seed=1)
    inst = generate(spec)
    cfg = SolverConfig(s=2)
    rep = solve(inst, PHI2, cfg)
    assert rep.objective == rep.f_trace[-1]
    assert rep.iterations == len(rep.f_trace) - 1
    assert rep.support.size == 2
    assert set(np.nonzero(rep.x)[0]) <= set(rep.support.tolist())
    assert rep.backtracks_total >= 0
    assert rep.wall_time >= 0.0
    # the reported residual is reproducible from the final point; the
    # solver updates y incrementally, so recomputing it as M x + q moves
    # near-cancelling gradient entries by ~1e-14 in absolute terms
    x, g = rep.x, merit_gradient(PHI2, inst, rep.x)
    eta = cfg.eta_for(inst.n)
    T = select_support(x, g, eta, cfg.s)
    assert residual(x, g, T, eta, cfg.s) == pytest.approx(
        rep.residual, rel=1e-3, abs=1e-12)


def test_working_sets_are_sorted_index_arrays_of_size_s():
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
    rep, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1),
                              TuningConfig(s0=2, max_rounds=1))
    assert rounds == 1
    check(rep.support, 2, rep.x)


def test_eta_retries_do_not_repeat_work(monkeypatch):
    # this solve halves eta 18 times, mostly reselecting the working set
    # at the same point; none of those retries may rebuild a T x T
    # Hessian or rerun a line search on a direction that already failed
    searched, built, selected = [], [], []
    real_search, real_hessian = nhtp.line_search, nhtp.mer.merit_hessian
    real_select = nhtp.select_support

    def search(state, d, *args):
        searched.append((state.x.tobytes(), state.support.tobytes(),
                         d.tobytes()))
        return real_search(state, d, *args)

    def hessian(model, inst, x, rows, cols, **kw):
        if np.array_equal(rows, cols):
            built.append((x.tobytes(), np.asarray(rows).tobytes()))
        return real_hessian(model, inst, x, rows, cols, **kw)

    def select(x, *args):
        T = real_select(x, *args)
        selected.append((x.tobytes(), T.tobytes()))
        return T

    monkeypatch.setattr(nhtp, "line_search", search)
    monkeypatch.setattr(nhtp.mer, "merit_hessian", hessian)
    monkeypatch.setattr(nhtp, "select_support", select)
    inst = generate(GeneratorSpec("sdp_gaussian", 500, seed=0))
    rep = solve(inst, PHI2, SolverConfig(s=5))
    assert len(set(selected)) < len(selected)  # same T at the same x
    assert len(set(searched)) == len(searched)
    assert len(set(built)) == len(built)
    assert rep.iterations == 6
    assert rep.termination is Termination.RESIDUAL_MET
    assert rep.backtracks_total == 922  # 18 halvings of 51, plus 4
    assert rep.support.tolist() == [44, 150, 203, 226, 408]


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


def test_iteration_cap_termination():
    spec = GeneratorSpec("sdp_uniform_nox", 30, s_star=3, seed=2)
    inst = generate(spec)
    rep = solve(inst, PHI2, SolverConfig(s=3, max_iter=1, tol=0.0))
    assert rep.termination in (Termination.ITERATION_CAP,
                               Termination.OBJECTIVE_STALLED)
    if rep.termination is Termination.ITERATION_CAP:
        assert rep.iterations == 1


def test_line_search_failure_on_non_decreasable_merit():
    # the merit overflows to inf at the start, so every Armijo comparison
    # fails; the solver walks its step-size ladder down to the floor and
    # reports the failure instead of looping forever
    inst = LcpInstance(np.array([[1.0]]), np.array([-1e300]))
    with np.errstate(over="ignore"):
        rep = solve(inst, PHI2, SolverConfig(s=1))
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
    planted = generate(GeneratorSpec("sdp_gaussian", 40, s_star=2, m=20,
                                     seed=9))
    default = solve(planted, PHI2, SolverConfig(s=2))
    custom = solve(planted, PHI2, SolverConfig(s=2, eta=2.0))
    assert default.f_trace != custom.f_trace


def test_solver_is_deterministic():
    spec = GeneratorSpec("sdp_gaussian", 45, s_star=3, m=22, seed=12)
    inst = generate(spec)
    a = solve(inst, PHI2, SolverConfig(s=3))
    b = solve(inst, PHI2, SolverConfig(s=3))
    assert np.array_equal(a.x, b.x)
    assert a.f_trace == b.f_trace
    assert a.termination is b.termination


def test_other_merits_drive_the_quadratic_objective_down():
    spec = GeneratorSpec("sdp_gaussian", 40, s_star=2, m=20, seed=4)
    inst = generate(spec)
    for model in (MeritModel.fischer_burmeister(), MeritModel.natural_min(),
                  MeritModel.psi2()):
        rep = solve(inst, model, SolverConfig(s=2))
        f2 = merit_value(PHI2, inst, rep.x)
        assert f2 <= 1e-6, model.kind
