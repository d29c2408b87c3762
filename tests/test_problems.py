"""Tests for instance generators, the pinned random stream, and matrix
class predicates."""

import math
import tracemalloc

import numpy as np
import pytest

from sparselcp.merit import MeritModel, merit_value
from sparselcp.problems import (CombinatorialLimit, GeneratorSpec, Rng,
                                generate, is_ps_matrix, is_psd, is_success,
                                is_z_matrix)

PHI2 = MeritModel.phi_r(2)

MASK = (1 << 64) - 1


def ref_mix(z):
    """Reference SplitMix64 finalizer in plain Python integers."""
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def ref_raw(seed, count, offset=0):
    gamma = 0x9E3779B97F4A7C15
    return [ref_mix((seed + (offset + k) * gamma) & MASK)
            for k in range(1, count + 1)]


def ref_uniforms(seed, count, offset=0):
    return [(r >> 11) * 2.0**-53 for r in ref_raw(seed, count, offset)]


def ref_normals(seed, count):
    pairs = (count + 1) // 2
    u = ref_uniforms(seed, 2 * pairs)
    out = []
    for i in range(pairs):
        rho = np.sqrt(-2.0 * np.log(1.0 - np.float64(u[2 * i])))
        angle = 2.0 * np.pi * np.float64(u[2 * i + 1])
        out.append(float(rho * np.cos(angle)))
        out.append(float(rho * np.sin(angle)))
    return out[:count]


def ref_permutation(seed, n, offset=0):
    a = list(range(n))
    u = ref_uniforms(seed, n - 1, offset) if n > 1 else []
    for step, i in enumerate(range(n - 1, 0, -1)):
        j = int(u[step] * (i + 1))
        a[i], a[j] = a[j], a[i]
    return a


def test_raw_stream_matches_reference():
    for seed in (0, 1, 42, 2**63, MASK):
        got = Rng(seed).raw(16).tolist()
        assert got == ref_raw(seed, 16), seed


def test_stream_position_is_continuous():
    r = Rng(7)
    first = r.raw(3).tolist()
    second = r.raw(5).tolist()
    assert first + second == ref_raw(7, 8)
    # interleaving draw kinds keeps one shared position counter
    r2 = Rng(7)
    r2.uniforms(3)
    assert r2.raw(5).tolist() == ref_raw(7, 5, offset=3)


def test_uniform_mappings_match_reference():
    u = Rng(99).uniforms(64)
    assert u.tolist() == ref_uniforms(99, 64)
    assert np.all((0.0 <= u) & (u < 1.0))
    uo = Rng(99).uniforms_open(64)
    raw = ref_raw(99, 64)
    assert uo.tolist() == [((r >> 11) + 0.5) * 2.0**-53 for r in raw]
    assert np.all((0.0 < uo) & (uo < 1.0))


def test_normals_match_reference_box_muller():
    for count in (1, 2, 7, 32):
        got = Rng(5).normals(count).tolist()
        assert got == ref_normals(5, count), count


def test_permutation_matches_reference_fisher_yates():
    for n in (1, 2, 3, 7, 20):
        got = Rng(13).permutation(n).tolist()
        assert got == ref_permutation(13, n), n
        assert sorted(got) == list(range(n))


def test_spec_validation_and_defaults():
    with pytest.raises(ValueError):
        GeneratorSpec("bogus", 10)
    with pytest.raises(ValueError):
        GeneratorSpec("zmatrix", 0)
    with pytest.raises(ValueError):
        GeneratorSpec("sdp_gaussian", 10, s_star=11)
    with pytest.raises(ValueError):
        GeneratorSpec("sdp_gaussian", 10, m=0)
    assert GeneratorSpec("sdp_gaussian", 10).resolved_m == 5
    assert GeneratorSpec("sdp_uniform_nox", 10).resolved_m == 2
    assert GeneratorSpec("sdp_gaussian", 1).resolved_m == 1
    assert GeneratorSpec("sdp_gaussian", 250).resolved_s_star == 3
    assert GeneratorSpec("sdp_gaussian", 99, s_star=7).resolved_s_star == 7
    assert GeneratorSpec("zmatrix", 1).resolved_s_star == 1


def test_z_matrix_family_is_exact():
    inst = generate(GeneratorSpec("zmatrix", 3))
    third = 1.0 / 3.0
    assert np.array_equal(inst.M, np.eye(3) - np.full((3, 3), third))
    assert np.array_equal(inst.q, np.array([third - 1.0, third, third]))
    assert inst.ground_truth.tolist() == [1.0, 0.0, 0.0]
    # the planted solution is exact in floating point, not just close
    assert merit_value(PHI2, inst, inst.ground_truth) == 0.0
    assert np.array_equal(inst.M @ inst.ground_truth + inst.q, np.zeros(3))
    assert is_z_matrix(inst.M)
    assert is_psd(inst.M)


def test_z_matrix_family_plants_one_nonzero():
    # zmatrix always plants e_1, whatever s_star asks for
    assert GeneratorSpec("zmatrix", 500).resolved_s_star == 1
    spec = GeneratorSpec("zmatrix", 500, s_star=5)
    assert spec.resolved_s_star == 1
    assert np.count_nonzero(generate(spec).ground_truth) == 1


def test_generation_frees_the_factor():
    # the instance freezes the generated M in place instead of copying
    # it; the gaussian peak is M plus the half-size factor Z, released
    # once M = Z Z^T exists, and the zmatrix peak is M alone
    for spec, bound in ((GeneratorSpec("sdp_gaussian", 1000, m=500), 1.85),
                        (GeneratorSpec("zmatrix", 1000), 1.1)):
        tracemalloc.start()
        try:
            inst = generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * inst.M.nbytes, spec.example


def test_z_matrix_family_ignores_scale():
    for n in (1, 2, 100):
        inst = generate(GeneratorSpec("zmatrix", n, seed=123))
        assert merit_value(PHI2, inst, inst.ground_truth) == 0.0


def test_planted_families_have_exact_solutions():
    for example in ("sdp_gaussian", "sdp_uniform"):
        for n, s_star, seed in ((1, 1, 0), (2, 1, 3), (30, 4, 7), (57, 3, 9)):
            spec = GeneratorSpec(example, n, s_star=s_star, seed=seed)
            inst = generate(spec)
            gt = inst.ground_truth
            supp = np.nonzero(gt)[0]
            assert len(supp) == s_star
            assert np.all(gt[supp] >= 0.1)
            y = inst.M @ gt + inst.q
            assert np.array_equal(y[supp], np.zeros(s_star))
            assert y.min() >= 0.0
            assert merit_value(PHI2, inst, gt) == 0.0
            assert is_psd(inst.M, tol=1e-8)
            if example == "sdp_uniform":
                assert inst.M.min() > 0.0


def test_gaussian_family_off_support_q():
    spec = GeneratorSpec("sdp_gaussian", 40, s_star=3, seed=11)
    inst = generate(spec)
    gt = inst.ground_truth
    supp = np.nonzero(gt)[0]
    off = np.setdiff1d(np.arange(40), supp)
    Mx = inst.M @ gt
    assert np.array_equal(inst.q[off], np.abs(Mx)[off])
    assert np.array_equal(inst.q[supp], -Mx[supp])


def test_factor_shapes_drive_rank():
    spec = GeneratorSpec("sdp_gaussian", 12, s_star=2, m=3, seed=2)
    inst = generate(spec)
    assert np.linalg.matrix_rank(inst.M, tol=1e-8) == 3


def test_family_without_planted_solution():
    spec = GeneratorSpec("sdp_uniform_nox", 41, s_star=5, seed=6)
    inst = generate(spec)
    assert inst.ground_truth is None
    assert int((inst.q < 0.0).sum()) == 5
    assert np.all(inst.q != 0.0)
    assert inst.M.min() > 0.0
    assert is_psd(inst.M, tol=1e-8)


def test_generation_is_bitwise_deterministic():
    for example in ("zmatrix", "sdp_gaussian", "sdp_uniform",
                    "sdp_uniform_nox"):
        spec = GeneratorSpec(example, 25, s_star=3, seed=77)
        a = generate(spec)
        b = generate(spec)
        assert a.M.tobytes() == b.M.tobytes()
        assert a.q.tobytes() == b.q.tobytes()
        if a.ground_truth is not None:
            assert a.ground_truth.tobytes() == b.ground_truth.tobytes()
        c = generate(GeneratorSpec(example, 25, s_star=3, seed=78))
        if example != "zmatrix":  # that family has no randomness
            assert a.q.tobytes() != c.q.tobytes()


def test_gaussian_factor_matches_reference_stream():
    spec = GeneratorSpec("sdp_gaussian", 4, s_star=1, m=2, seed=31)
    inst = generate(spec)
    Z = np.array(ref_normals(31, 8)).reshape(4, 2)
    assert np.array_equal(inst.M, Z @ Z.T)


def test_is_z_matrix_cases():
    assert is_z_matrix(np.array([[5.0, -1.0], [0.0, 2.0]]))
    assert not is_z_matrix(np.array([[5.0, 0.1], [0.0, 2.0]]))
    assert is_z_matrix(np.array([[-3.0]]))  # diagonal sign is unrestricted


def test_is_psd_against_known_spectra():
    rng = np.random.default_rng(70)
    for trial in range(100):
        n = int(rng.integers(1, 21))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.0, 2.0, size=n)
        if trial % 2:
            lam[int(rng.integers(0, n))] = -1e-3  # one clearly negative mode
        if trial % 5 == 0:
            lam[0] = 0.0  # singular boundary stays PSD
        M = (Q * lam) @ Q.T
        assert is_psd(M, tol=1e-8) == bool(lam.min() >= 0.0), trial


def test_is_ps_matrix_minor_orders():
    M = np.array([[1.0, 3.0], [3.0, 1.0]])  # det = -8
    assert is_ps_matrix(M, 1)
    assert not is_ps_matrix(M, 2)
    assert is_ps_matrix(np.diag([1.0, 2.0, 3.0]), 3)
    assert not is_ps_matrix(np.zeros((2, 2)), 1)
    rng = np.random.default_rng(15)
    A = rng.standard_normal((6, 6))
    assert is_ps_matrix(A @ A.T + 6 * np.eye(6), 6)
    with pytest.raises(CombinatorialLimit):
        is_ps_matrix(np.eye(21), 1)


def test_is_success_threshold():
    x_star = np.array([10.0, 0.0])
    assert is_success(np.array([10.05, 0.0]), x_star)   # 0.5% error
    assert not is_success(np.array([10.2, 0.0]), x_star)  # 2% error


def test_default_sparsity_is_one_percent():
    assert GeneratorSpec("sdp_gaussian", 500).resolved_s_star == 5
    assert GeneratorSpec("sdp_gaussian", 5000).resolved_s_star == 50
    assert math.ceil(0.01 * 101) == GeneratorSpec("sdp_gaussian",
                                                  101).resolved_s_star
