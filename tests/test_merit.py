"""Tests for the merit kernels: values, gradients, Hessian blocks."""

import tracemalloc

import numpy as np
import pytest

from dense_merit import dense_gradient, dense_hessian
from sparselcp import merit
from sparselcp.core import LcpInstance
from sparselcp.merit import (_BLOCK_ENTRIES, KINDS, MeritModel,
                             gradient_from_xy, merit_gradient, merit_hessian,
                             merit_value, value_from_xy)

ALL_MODELS = [MeritModel.phi_r(2), MeritModel.phi_r(2.5), MeritModel.phi_r(3),
              MeritModel.fischer_burmeister(), MeritModel.natural_min(),
              MeritModel.psi2()]


def pair_value(model, a, b):
    """Kernel value at one scalar pair via the vector interface."""
    return value_from_xy(model, np.array([float(a)]), np.array([float(b)]))


def test_model_validation():
    with pytest.raises(ValueError):
        MeritModel("nope")
    for bad in (1.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            MeritModel.phi_r(bad)
    assert MeritModel.psi2().kind == "psi2"
    assert MeritModel.natural_min().kind == "min"
    assert set(KINDS) == {"phi_r", "fb", "min", "psi2"}


def test_quadratic_kernel_worked_example():
    # M = [[2]], q = [-3], x = 2 gives y = 1, both parts positive:
    #   value   = (1/2) (2*1)^2          = 2
    #   grad    = a b^2 + M a^2 b        = 2 + 2*4 = 10
    #   hessian = b^2 + 2*(2ab)M + M^2 a^2 = 1 + 8 + 8 + 16 = 33
    inst = LcpInstance(np.array([[2.0]]), np.array([-3.0]))
    model = MeritModel.phi_r(2)
    assert merit_value(model, inst, np.array([2.0])) == 2.0
    g = merit_gradient(model, inst, np.array([2.0]))
    assert g[0] == 10.0
    H = merit_hessian(model, inst, np.array([2.0]), np.array([0]),
                      np.array([0]))
    assert H.shape == (1, 1) and H[0, 0] == 33.0


def test_negative_part_worked_example():
    # x = -1 with y = 0: only the |x_-|^2 term is active
    inst = LcpInstance(np.array([[1.0]]), np.array([1.0]))
    model = MeritModel.phi_r(2)
    assert merit_value(model, inst, np.array([-1.0])) == 0.5
    assert merit_gradient(model, inst, np.array([-1.0]))[0] == -1.0


def pair_partials(model, a, b):
    """Kernel partials (d psi/d a, d psi/d b) at one scalar pair.  The
    gradient at x = a, y = b is d/da alone for M = [[0]] and d/da + d/db
    for M = [[1]]; the difference is exact for the small integers used."""
    x, y = np.array([float(a)]), np.array([float(b)])
    da = gradient_from_xy(model, np.zeros((1, 1)), x, y)[0]
    return da, gradient_from_xy(model, np.ones((1, 1)), x, y)[0] - da


def test_scalar_kernel_helpers():
    assert pair_value(MeritModel.phi_r(2), -1.0, 2.0) == 0.5
    assert pair_value(MeritModel.phi_r(3), 2.0, 1.0) == pytest.approx(
        8.0 / 3.0, rel=1e-15)
    assert pair_value(MeritModel.phi_r(2), 0.0, 0.0) == 0.0
    assert pair_partials(MeritModel.phi_r(2), -1.0, -1.0) == (-1.0, -1.0)
    # r = 3 at a = 2, b = 1: d/da = a^2 b^3 = 4, d/db = a^3 b^2 = 8
    assert pair_partials(MeritModel.phi_r(3), 2.0, 1.0) == (4.0, 8.0)


def test_squared_penalty_kernel_values():
    model = MeritModel.psi2()
    assert pair_value(model, 2.0, 1.0) == 2.0      # (1/2)(ab)^2
    assert pair_value(model, -1.0, 2.0) == 0.5     # (1/2) min(a,0)^2
    assert pair_value(model, 1.0, -3.0) == 4.5
    assert pair_value(model, 3.0, 0.0) == 0.0
    assert pair_value(model, 2.0, -1.0) == 0.5     # product negative, b part


def test_smoothed_kernels_near_ideal_values():
    # with eps = 1e-10 the smoothed residuals match the ideal formulas
    # to about sqrt(eps)
    fb = MeritModel.fischer_burmeister()
    assert pair_value(fb, 3.0, 4.0) == pytest.approx(2.0, abs=1e-8)
    # the smoothed residual a + b - sqrt((a-b)^2 + eps) tends to
    # 2 min(a, b), so the ideal kernel value is 2 min(a, b)^2
    mn = MeritModel.natural_min()
    assert pair_value(mn, 1.0, 3.0) == pytest.approx(2.0, abs=1e-8)
    assert pair_value(mn, -2.0, 5.0) == pytest.approx(8.0, abs=1e-7)


def test_kernel_zero_set_is_the_complementarity_set():
    """psi(a,b) vanishes exactly on {a >= 0, b >= 0, ab = 0} (to the
    smoothing floor for fb and min), and is positive bounded away."""
    rng = np.random.default_rng(88)
    comp = [(0.0, 0.0)]
    for t in rng.uniform(0.0, 3.0, size=200):
        comp.append((float(t), 0.0))
        comp.append((0.0, float(t)))
    away = []
    while len(away) < 10**4:
        a, b = rng.uniform(-3.0, 3.0, size=2)
        if a <= -0.1 or b <= -0.1 or (a >= 0.1 and b >= 0.1):
            away.append((float(a), float(b)))
    for model in ALL_MODELS:
        exact = model.kind in ("phi_r", "psi2")
        for a, b in comp:
            v = pair_value(model, a, b)
            assert v == 0.0 if exact else v <= 1e-9, (model.kind, a, b, v)
        for a, b in away:
            assert pair_value(model, a, b) > 1e-9, (model.kind, a, b)


def random_nonkink_points(rng, inst, count):
    """Points where every kernel in play is twice differentiable: all
    x_i, y_i, x_i - y_i, and x_i y_i stay away from zero."""
    pts = []
    while len(pts) < count:
        x = rng.uniform(-2.0, 2.0, size=inst.n)
        y = inst.M @ x + inst.q
        if (np.abs(x).min() > 0.05 and np.abs(y).min() > 0.05
                and np.abs(x - y).min() > 0.05
                and np.abs(x * y).min() > 0.01):
            pts.append(x)
    return pts


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    n = 6
    Z = rng.standard_normal((n, n))
    inst = LcpInstance(Z @ Z.T / n, rng.standard_normal(n))
    pts = random_nonkink_points(rng, inst, 100)
    h = 1e-6
    for model in ALL_MODELS:
        for x in pts:
            g = merit_gradient(model, inst, x)
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (merit_value(model, inst, x + e)
                         - merit_value(model, inst, x - e)) / (2 * h)
            denom = max(1.0, np.linalg.norm(g))
            assert np.linalg.norm(fd - g) <= 1e-5 * denom, model.kind


def test_hessian_block_is_symmetric():
    rng = np.random.default_rng(17)
    n = 8
    Z = rng.standard_normal((n, n))
    inst = LcpInstance(Z @ Z.T / n, rng.standard_normal(n))
    rows = np.arange(n)
    for model in ALL_MODELS:
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=n)
            H = merit_hessian(model, inst, x, rows, rows)
            assert np.abs(H - H.T).max() <= 1e-12, model.kind


def test_hessian_matches_finite_difference_of_gradient():
    rng = np.random.default_rng(29)
    n = 5
    Z = rng.standard_normal((n, n))
    inst = LcpInstance(Z @ Z.T / n, rng.standard_normal(n))
    pts = random_nonkink_points(rng, inst, 8)
    h = 1e-6
    rows = np.arange(n)
    for model in ALL_MODELS:
        for x in pts:
            H = merit_hessian(model, inst, x, rows, rows)
            fd = np.empty((n, n))
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[:, i] = (merit_gradient(model, inst, x + e)
                            - merit_gradient(model, inst, x - e)) / (2 * h)
            scale = max(1.0, np.abs(H).max())
            assert np.abs(fd - H).max() <= 1e-4 * scale, model.kind


def test_restricted_block_agrees_with_full_hessian():
    rng = np.random.default_rng(31)
    n = 9
    Z = rng.standard_normal((n, n))
    inst = LcpInstance(Z @ Z.T / n, rng.standard_normal(n))
    model = MeritModel.phi_r(2)
    x = rng.uniform(-1.0, 1.0, size=n)
    full = merit_hessian(model, inst, x, np.arange(n), np.arange(n))
    for _ in range(10):
        R = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        C = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        block = merit_hessian(model, inst, x, R, C)
        assert np.allclose(block, full[np.ix_(R, C)], atol=1e-12)
    # unsorted and repeated index lists address the same entries
    for R, C in (([4, 0, 7], [7, 2, 0, 4]), ([1, 1], [1]),
                 ([3, 5, 3], [5, 3, 3, 8])):
        block = merit_hessian(model, inst, x, R, C)
        assert np.allclose(block, full[np.ix_(R, C)], atol=1e-12), (R, C)


def test_quadratic_kernel_matches_closed_forms_bit_for_bit():
    # phi_2 equals its quadratic closed forms exactly, term by term, on a
    # grid with signed zeros, both kinks and subnormals.  The pairs
    # (a_i, b_i) are read through the vector interface with M chosen so
    # that each term lands alone: M = 0 leaves psi_a and psi_aa; with the
    # pairs in the second half of a 2N-vector, M = [[0, 0], [I, 0]] puts
    # psi_b in grad_i and psi_bb in H_ii; with them in the first half,
    # M = [[0, I], [0, 0]] puts psi_ab in H[i, N + i].  The padding pairs
    # (0, 0) and (1, 0) zero every term that could add to those entries.
    tiny = np.finfo(np.float64).smallest_subnormal
    vals = np.array([0.0, -0.0, tiny, -tiny, 3e-310, -3e-310, 1e-160,
                     -1e-160, 0.5, -0.75, 1.0, -1.0, 3.0, -2.5, 1e75])
    a, b = (g.ravel() for g in np.meshgrid(vals, vals))
    ap, am = np.maximum(a, 0.0), np.maximum(-a, 0.0)
    bp, bm = np.maximum(b, 0.0), np.maximum(-b, 0.0)

    def xi(u, v):
        vp = np.maximum(v, 0.0)
        return np.where(u > 0.0, vp * vp, 1.0)

    model = MeritModel.phi_r(2)
    value = [pair_value(model, s, t) for s, t in zip(a, b)]
    assert np.array_equal(value, 0.5 * ((ap * bp) ** 2 + am * am + bm * bm))

    N = a.size
    idx = np.arange(N)
    Z, I, zeros, ones = np.zeros((N, N)), np.eye(N), np.zeros(N), np.ones(N)
    lower = np.block([[Z, Z], [I, Z]])
    upper = lower.T.copy()
    assert np.array_equal(gradient_from_xy(model, Z, a, b),
                          ap * bp * bp - am)
    grad = gradient_from_xy(model, lower, np.concatenate([zeros, a]),
                            np.concatenate([zeros, b]))
    assert np.array_equal(grad[:N], ap * ap * bp - bm)

    haa = merit_hessian(model, LcpInstance(Z, zeros), a, idx, idx, y=b)
    assert np.array_equal(np.diag(haa), xi(a, b))
    hab = merit_hessian(model, LcpInstance(upper, np.zeros(2 * N)),
                        np.concatenate([a, zeros]), idx, N + idx,
                        y=np.concatenate([b, zeros]))
    assert np.array_equal(np.diag(hab), 2.0 * ap * bp)
    hbb = merit_hessian(model, LcpInstance(lower, np.zeros(2 * N)),
                        np.concatenate([ones, a]), idx, idx,
                        y=np.concatenate([zeros, b]))
    assert np.array_equal(np.diag(hbb), xi(b, a))


def test_higher_exponent_derivatives_survive_overflowing_factors():
    # r = 3 at a = 1e120, b = 1e-120: a^3 overflows and b^3 underflows,
    # but ab = 1 and every partial is finite:
    #   psi_a = (ab)^2 b = 1e-120     psi_b = (ab)^2 a = 1e120
    #   psi_aa = 2 (ab) b^2 = 2e-240  psi_ab = 3 (ab)^2 = 3
    #   psi_bb = 2 (ab) a^2 = 2e240
    model = MeritModel.phi_r(3)
    a, b = 1e120, 1e-120
    x, y = np.array([a]), np.array([b])
    assert gradient_from_xy(model, np.zeros((1, 1)), x, y)[0] == \
        pytest.approx(1e-120, rel=1e-14)
    assert gradient_from_xy(model, np.ones((1, 1)), x, y)[0] == \
        pytest.approx(1e120, rel=1e-14)
    # one term per entry, with the placements of the bit-for-bit test
    # above: the padding pairs (1, 0) and (0, 0) add nothing
    upper = np.array([[0.0, 1.0], [0.0, 0.0]])
    haa = merit_hessian(model, LcpInstance(np.zeros((1, 1)), np.zeros(1)),
                        x, [0], [0], y=y)[0, 0]
    hab = merit_hessian(model, LcpInstance(upper, np.zeros(2)),
                        np.array([a, 0.0]), [0], [1],
                        y=np.array([b, 0.0]))[0, 0]
    hbb = merit_hessian(model, LcpInstance(upper.T.copy(), np.zeros(2)),
                        np.array([1.0, a]), [0], [0],
                        y=np.array([0.0, b]))[0, 0]
    assert haa == pytest.approx(2e-240, rel=1e-14)
    assert hab == pytest.approx(3.0, rel=1e-14)
    assert hbb == pytest.approx(2e240, rel=1e-14)


def test_quadratic_kernel_kink_curvature_selection():
    # with M = 0 the Hessian block reduces to the pure d^2/da^2 term;
    # the selection at a = 0 is the constant endpoint 1
    inst = LcpInstance(np.array([[0.0]]), np.array([2.0]))
    model = MeritModel.phi_r(2)
    at_kink = merit_hessian(model, inst, np.array([0.0]), [0], [0])
    assert at_kink[0, 0] == 1.0
    interior = merit_hessian(model, inst, np.array([3.0]), [0], [0])
    assert interior[0, 0] == 4.0  # b_+^2 with y = 2


def test_gradient_from_xy_matches_instance_gradient():
    rng = np.random.default_rng(53)
    n = 7
    M = rng.standard_normal((n, n))
    q = rng.standard_normal(n)
    inst = LcpInstance(M, q)
    x = rng.standard_normal(n)
    y = M @ x + q
    for model in ALL_MODELS:
        assert np.array_equal(gradient_from_xy(model, M, x, y),
                              merit_gradient(model, inst, x))
        assert value_from_xy(model, x, y) == merit_value(model, inst, x)


def test_higher_exponents_flatten_near_solution():
    # at a near-solution point the r = 3 merit is much smaller than r = 2,
    # reflecting the flatter landscape of higher exponents
    inst = LcpInstance(np.array([[1.0]]), np.array([-1.0]))
    x = np.array([1.0 + 1e-3])
    v2 = merit_value(MeritModel.phi_r(2), inst, x)
    v3 = merit_value(MeritModel.phi_r(3), inst, x)
    assert 0 < v3 < v2


def point_with_active_rows(rng, n, count):
    """(x, y) at which phi_r's and psi2's b-partials are nonzero on exactly
    count rows: x, y > 0 there and x <= 0 < y elsewhere."""
    x = np.zeros(n)
    y = rng.uniform(0.5, 2.0, size=n)
    active = rng.choice(n, size=count, replace=False)
    x[active] = rng.uniform(0.5, 2.0, size=count)
    off = np.setdiff1d(np.arange(n), active)[::2]
    x[off] = -rng.uniform(0.5, 2.0, size=off.size)
    return x, y


def signed_zero_b_partials(kernel):
    """The kernel with every exact zero of psi_b and psi_bb made -0.0."""
    def signed(a, b, r, order):
        parts = kernel(a, b, r, order)
        if order:
            parts[-1][parts[-1] == 0.0] = -0.0
        return parts
    return signed


@pytest.mark.parametrize("model", [MeritModel.phi_r(2), MeritModel.phi_r(3),
                                   MeritModel.fischer_burmeister(),
                                   MeritModel.natural_min(),
                                   MeritModel.psi2()],
                         ids=lambda m: f"{m.kind}{m.r:g}")
def test_active_rows_match_dense_formulas(monkeypatch, model):
    # n = 600 puts three blocks of rows below n/2; M is not symmetric, so
    # the gradient must read rows of M, not columns
    n = 600
    block = _BLOCK_ENTRIES // n
    rng = np.random.default_rng(61)
    inst = LcpInstance(rng.standard_normal((n, n)), rng.standard_normal(n))
    monkeypatch.setitem(merit._KERNELS, model.kind,
                        signed_zero_b_partials(merit._KERNELS[model.kind]))
    R = np.sort(rng.choice(n, size=12, replace=False))
    C = np.array([R[3], 5, 598, 5, R[0]])
    for count in (0, 1, block - 1, block, block + 1, n // 2, n // 2 + 1, n):
        x, y = point_with_active_rows(rng, n, count)
        db = merit._KERNELS[model.kind](x, y, model.r, 1)[1]
        hbb = merit._KERNELS[model.kind](x, y, model.r, 2)[2]
        if model.kind in ("phi_r", "psi2"):
            assert np.count_nonzero(db) == np.count_nonzero(hbb) == count
            assert count == n or np.signbit(db[db == 0.0]).all()
        got = (gradient_from_xy(model, inst.M, x, y),
               merit_hessian(model, inst, x, R, R, y=y),
               merit_hessian(model, inst, x, R, C, y=y))
        ref = (dense_gradient(model, inst.M, x, y),
               dense_hessian(model, inst, x, R, R, y=y),
               dense_hessian(model, inst, x, R, C, y=y))
        grad_dense = 2 * np.count_nonzero(db) > n
        hess_dense = 2 * np.count_nonzero(hbb) > n
        for g, r, d in zip(got, ref, (grad_dense, hess_dense, hess_dense)):
            if d:  # the one-product path keeps every bit
                assert np.array_equal(g, r), (count, g.shape)
            else:
                np.testing.assert_allclose(g, r, rtol=1e-12,
                                           atol=1e-12 * np.abs(r).max())


def test_gradient_memory_stays_within_one_block():
    # a quarter of the rows active: gathering them all at once would
    # hold 500 x 2000 doubles (8 MB)
    n = 2000
    rng = np.random.default_rng(67)
    M = rng.standard_normal((n, n))
    x, y = point_with_active_rows(rng, n, n // 4)
    model = MeritModel.phi_r(2)
    expected = dense_gradient(model, M, x, y)
    tracemalloc.start()
    try:
        g = gradient_from_xy(model, M, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(g, expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())
    assert peak < 8 * _BLOCK_ENTRIES + 6 * (8 * n)  # a block, 6 vectors
