"""Acceptance suite: one test per shipping criterion, each printing a
single pass/fail line with its measured numbers.

Run with `pytest -s tests/test_acceptance.py` to see every line.
"""

import numpy as np
import pytest
import scipy.optimize

from sparselcp.core import LcpInstance, SolverConfig, Termination
from sparselcp.lemke import PivotLimit, RayTermination, lemke_solve
from sparselcp.merit import (MeritModel, merit_gradient, merit_hessian,
                             merit_value, value_from_xy)
from sparselcp.nhtp import solve
from sparselcp.problems import GeneratorSpec, generate, is_success
from sparselcp.tuning import TuningConfig, lemke_seeded_s, nhtpt_solve

PHI2 = MeritModel.phi_r(2)
ALL_MODELS = [MeritModel.phi_r(2), MeritModel.phi_r(2.5), MeritModel.phi_r(3),
              MeritModel.fischer_burmeister(), MeritModel.natural_min(),
              MeritModel.psi2()]

_instances = {}


def family(example, n, s_star=None, m=None, seed=0):
    key = (example, n, s_star, m, seed)
    if key not in _instances:
        _instances[key] = generate(GeneratorSpec(example, n, s_star=s_star,
                                                 m=m, seed=seed))
    return _instances[key]


def check(label, ok, detail):
    print(f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_exact_recovery_scaling():
    """Deterministic family: exact recovery at three sizes."""
    worst_err = worst_f2 = worst_iters = 0.0
    time_at_5000 = None
    for n in (100, 1000, 5000):
        inst = family("zmatrix", n)
        rep = solve(inst, PHI2, SolverConfig(s=1))
        err = np.linalg.norm(rep.x - inst.ground_truth)
        f2 = merit_value(PHI2, inst, rep.x)
        worst_err = max(worst_err, err)
        worst_f2 = max(worst_f2, f2)
        worst_iters = max(worst_iters, rep.iterations)
        if n == 5000:
            time_at_5000 = rep.wall_time
    ok = (worst_err <= 1e-10 and worst_f2 <= 1e-14 and worst_iters <= 50
          and time_at_5000 < 1.0)
    check("criterion 1", ok,
          f"worst err={worst_err:.2e} f2={worst_f2:.2e} "
          f"iters={worst_iters:.0f} time@5000={time_at_5000:.3f}s")


def test_criterion_2_exponent_ordering():
    """Higher merit exponents converge less tightly, in order."""
    inst = family("zmatrix", 5000)
    errs = {}
    for r in (2.0, 2.5, 3.0):
        rep = solve(inst, MeritModel.phi_r(r), SolverConfig(s=1))
        errs[r] = np.linalg.norm(rep.x - inst.ground_truth)
    ok = (errs[2.0] <= errs[2.5] <= errs[3.0]
          and errs[2.5] <= 1e-4 and errs[3.0] <= 1e-2)
    check("criterion 2", ok,
          f"err(2)={errs[2.0]:.2e} err(2.5)={errs[2.5]:.2e} "
          f"err(3)={errs[3.0]:.2e}")


def _recovery_runs(s):
    errors = []
    successes = 0
    for seed in range(50):
        inst = family("sdp_gaussian", 500, s_star=5, m=250, seed=seed)
        rep = solve(inst, PHI2, SolverConfig(s=s))
        err = (np.linalg.norm(rep.x - inst.ground_truth)
               / np.linalg.norm(inst.ground_truth))
        if is_success(rep.x, inst.ground_truth):
            successes += 1
            errors.append(err)
    return successes / 50.0, errors


def test_criterion_3_random_family_recovery():
    """Planted random instances: high success with tiny median error."""
    rate, errors = _recovery_runs(5)
    median = float(np.median(errors)) if errors else float("inf")
    ok = median <= 1e-8 and rate >= 0.9
    check("criterion 3", ok, f"success={rate:.2f} median_err={median:.2e}")


def test_criterion_4_oversized_budget_robustness():
    """Doubling the sparsity budget does not hurt recovery."""
    rate_star, errs_star = _recovery_runs(5)
    rate_double, errs_double = _recovery_runs(10)
    worst = max(errs_star + errs_double) if errs_star + errs_double else 1.0
    ok = rate_double >= rate_star - 0.1 and worst <= 1e-8
    check("criterion 4", ok,
          f"success(s*)={rate_star:.2f} success(2s*)={rate_double:.2f} "
          f"worst_err_on_success={worst:.2e}")


def test_criterion_5_merit_race():
    """The quadratic kernel wins the iteration race on the exact family."""
    phi_iters = psi_not_fewer = 0
    phi_ok = fb_ok = mn_ok = True
    for seed in range(50):
        inst = family("zmatrix", 200, seed=seed)
        rep_phi = solve(inst, PHI2, SolverConfig(s=2))
        f2_phi = merit_value(PHI2, inst, rep_phi.x)
        phi_ok &= f2_phi <= 1e-10 and rep_phi.iterations <= 10
        phi_iters = rep_phi.iterations
        rep_psi = solve(inst, MeritModel.psi2(), SolverConfig(s=2))
        psi_not_fewer += rep_psi.iterations >= rep_phi.iterations
        fb = solve(inst, MeritModel.fischer_burmeister(), SolverConfig(s=2))
        fb_ok &= merit_value(PHI2, inst, fb.x) <= 1e-6
        mn = solve(inst, MeritModel.natural_min(), SolverConfig(s=2))
        mn_ok &= merit_value(PHI2, inst, mn.x) <= 1e-6
    ok = phi_ok and psi_not_fewer >= 35 and fb_ok and mn_ok
    check("criterion 5", ok,
          f"phi_iters={phi_iters} psi_not_fewer={psi_not_fewer}/50 "
          f"fb_ok={fb_ok} min_ok={mn_ok}")


def test_criterion_6_pivoting_baseline():
    """Lemke solves the planted family and its support seeds the budget."""
    no_ray = exact_seed = 0
    worst_f2 = 0.0
    for seed in range(50):
        inst = family("sdp_gaussian", 500, s_star=5, m=250, seed=seed)
        try:
            x, _ = lemke_solve(inst)
        except (RayTermination, PivotLimit):
            continue
        no_ray += 1
        worst_f2 = max(worst_f2, merit_value(PHI2, inst, x))
        exact_seed += lemke_seeded_s(inst) == 5
    ok = (no_ray >= 48 and worst_f2 <= 1e-12  # >= 95% of 50
          and exact_seed >= 0.9 * no_ray)
    check("criterion 6", ok,
          f"no_ray={no_ray}/50 worst_f2={worst_f2:.2e} "
          f"exact_seed={exact_seed}/{no_ray}")


def test_criterion_7_budget_search_round_bound():
    """Doubling from 1 reaches a sparsity-8 plant within 4 rounds."""
    worst_round = 0
    ok = True
    for seed in range(50):
        inst = family("sdp_gaussian", 500, s_star=8, m=250, seed=seed)
        rep, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1),
                                  TuningConfig(s0=1, rho=2))
        worst_round = max(worst_round, rounds)
        ok &= rounds <= 4 and rep.objective < 1e-8
    check("criterion 7", ok, f"worst_accepting_round={worst_round} (bound 4)")


def pair_value(model, a, b):
    return value_from_xy(model, np.array([float(a)]), np.array([float(b)]))


def test_criterion_8a_kernel_zero_set():
    """Kernels vanish exactly on the complementarity set, nowhere else."""
    rng = np.random.default_rng(808)
    comp = [(0.0, 0.0)]
    for t in rng.uniform(0.0, 3.0, size=200):
        comp += [(float(t), 0.0), (0.0, float(t))]
    away = []
    while len(away) < 10**4:
        a, b = rng.uniform(-3.0, 3.0, size=2)
        if a <= -0.1 or b <= -0.1 or (a >= 0.1 and b >= 0.1):
            away.append((float(a), float(b)))
    bad = 0
    for model in ALL_MODELS:
        exact = model.kind in ("phi_r", "psi2")
        for a, b in comp:
            v = pair_value(model, a, b)
            bad += not (v == 0.0 if exact else v <= 1e-9)
        for a, b in away:
            bad += not pair_value(model, a, b) > 1e-9
    check("criterion 8a", bad == 0,
          f"violations={bad} over {len(ALL_MODELS)} kernels, "
          f"{len(comp)}+{len(away)} pairs each")


def _nonkink_points(rng, inst, count):
    pts = []
    while len(pts) < count:
        x = rng.uniform(-2.0, 2.0, size=inst.n)
        y = inst.M @ x + inst.q
        if (np.abs(x).min() > 0.05 and np.abs(y).min() > 0.05
                and np.abs(x - y).min() > 0.05
                and np.abs(x * y).min() > 0.01):
            pts.append(x)
    return pts


def test_criterion_8b_gradient_finite_difference():
    """Analytic gradients match central differences off the kinks."""
    rng = np.random.default_rng(812)
    Z = rng.standard_normal((6, 6))
    inst = LcpInstance(Z @ Z.T / 6.0, rng.standard_normal(6))
    pts = _nonkink_points(rng, inst, 100)
    h = 1e-6
    worst = 0.0
    for model in ALL_MODELS:
        for x in pts:
            g = merit_gradient(model, inst, x)
            fd = np.empty(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                fd[i] = (merit_value(model, inst, x + e)
                         - merit_value(model, inst, x - e)) / (2 * h)
            rel = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
            worst = max(worst, rel)
    check("criterion 8b", worst <= 1e-5,
          f"worst relative gradient gap={worst:.2e} at 100 points x "
          f"{len(ALL_MODELS)} kernels")


def test_criterion_8c_hessian_symmetry():
    rng = np.random.default_rng(813)
    Z = rng.standard_normal((8, 8))
    inst = LcpInstance(Z @ Z.T / 8.0, rng.standard_normal(8))
    rows = np.arange(8)
    worst = 0.0
    for model in ALL_MODELS:
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0, size=8)
            H = merit_hessian(model, inst, x, rows, rows)
            worst = max(worst, float(np.abs(H - H.T).max()))
    check("criterion 8c", worst <= 1e-12, f"worst asymmetry={worst:.2e}")


def test_criterion_8d_hessian_psd_on_psd_instances():
    """Merit Hessians on positive semidefinite instances.

    This check FAILS by design of the mathematics, not the code: the
    merit is not convex even for positive semidefinite M.  Witness
    M = [[1, 1], [1, 1]], q = (-1, -1.99): the quadratic-kernel Hessian
    has eigenvalues below -1 on a coarse grid.  The implementation is
    faithful; the property itself does not hold.
    """
    rng = np.random.default_rng(814)
    min_eig = np.inf
    cases = [LcpInstance(np.array([[1.0, 1.0], [1.0, 1.0]]),
                         np.array([-1.0, -1.99]))]
    for _ in range(10):
        Z = rng.standard_normal((4, 4))
        cases.append(LcpInstance(Z @ Z.T, rng.standard_normal(4)))
    for inst in cases:
        rows = np.arange(inst.n)
        for _ in range(200):
            x = rng.uniform(-2.0, 3.0, size=inst.n)
            H = merit_hessian(PHI2, inst, x, rows, rows)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(
                0.5 * (H + H.T)).min()))
    check("criterion 8d", min_eig >= -1e-8, f"min eigenvalue={min_eig:.2e}")


def test_criterion_8e_monotone_descent_and_sparsity():
    """Every benchmark run descends monotonically through s-sparse points."""
    runs = []
    for example, n, s, seed in (("zmatrix", 150, 1, 0),
                                ("zmatrix", 150, 3, 1),
                                ("sdp_gaussian", 120, 4, 2),
                                ("sdp_gaussian", 200, 2, 3),
                                ("sdp_uniform", 120, 3, 4),
                                ("sdp_uniform_nox", 120, 5, 5)):
        inst = family(example, n, s_star=min(s, max(1, n // 30)), seed=seed)
        for model in ALL_MODELS:
            seen = []
            rep = solve(inst, model, SolverConfig(s=s),
                        callback=lambda k, x, f: seen.append(
                            (np.count_nonzero(x), f)))
            monotone = all(b <= a for (_, a), (_, b) in zip(seen, seen[1:]))
            sparse = all(nnz <= s for nnz, _ in seen)
            runs.append((example, model.kind, monotone, sparse))
    bad = [r for r in runs if not (r[2] and r[3])]
    check("criterion 8e", not bad,
          f"{len(runs)} runs, violations={bad if bad else 'none'}")


def test_criterion_8f_residual_stop_implies_stationarity():
    """Residual-stop runs satisfy the restricted optimality conditions."""
    delta = 1e-8
    verified = 0
    runs = [("zmatrix", 200, 1, 0), ("zmatrix", 100, 2, 0),
            ("sdp_gaussian", 80, 2, 11), ("sdp_gaussian", 60, 3, 12),
            ("sdp_uniform", 60, 2, 13)]
    ok = True
    for example, n, s, seed in runs:
        inst = family(example, n, s_star=min(s, n), seed=seed)
        cfg = SolverConfig(s=s)
        rep = solve(inst, PHI2, cfg)
        if rep.termination is not Termination.RESIDUAL_MET:
            continue
        verified += 1
        x = rep.x
        g = merit_gradient(PHI2, inst, x)
        supp = np.nonzero(x)[0]
        eta = cfg.eta
        if len(supp) < s:
            ok &= np.abs(g).max() <= delta
        else:
            mask = np.zeros(n, dtype=bool)
            mask[supp] = True
            ok &= np.abs(g[mask]).max(initial=0.0) <= delta
            bound = np.abs(x[supp]).min() / eta + delta
            ok &= np.abs(g[~mask]).max(initial=0.0) <= bound
    check("criterion 8f", ok and verified >= 2,
          f"verified {verified} residual-stop runs at delta={delta:g}")


def test_criterion_9_tiny_instance_brute_force():
    """On full-budget tiny instances the solver matches a grid search."""

    def f2_inline(M, q, X):
        Y = X @ M.T + q
        ap = np.maximum(X, 0.0)
        bp = np.maximum(Y, 0.0)
        am = np.maximum(-X, 0.0)
        bm = np.maximum(-Y, 0.0)
        return 0.5 * (((ap * bp) ** 2) + am * am + bm * bm).sum(axis=1)

    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        Z = rng.standard_normal((n, n + 1))
        M = Z @ Z.T
        q = rng.standard_normal(n)
        rep = solve(LcpInstance(M, q), PHI2, SolverConfig(s=n))
        axes = np.meshgrid(*([np.linspace(-6.0, 6.0, 41)] * n),
                           indexing="ij")
        X = np.stack([a.ravel() for a in axes], axis=1)
        vals = f2_inline(M, q, X)
        brute = np.inf
        for i in np.argsort(vals)[:5]:
            out = scipy.optimize.minimize(
                lambda v: f2_inline(M, q, v[None, :])[0], X[i],
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000})
            brute = min(brute, float(out.fun))
        worst = max(worst, abs(rep.objective - brute))
    check("criterion 9", worst <= 1e-8,
          f"worst objective gap={worst:.2e} over 100 instances")
