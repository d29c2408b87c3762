"""Tests for core types, dense solves, thresholding, and instance files."""

import tracemalloc

import numpy as np
import pytest

import sparselcp
from sparselcp.core import (LcpInstance, SingularError, SolverConfig,
                            Termination, certificate, dense_solve,
                            load_instance, save_instance, top_s_by_magnitude)
from sparselcp.problems import GeneratorSpec, generate


def gauss_solve(A, b):
    """Reference solver: textbook Gaussian elimination with partial
    pivoting and back substitution, written independently of dense_solve."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for col in range(n):
        p = col + int(np.argmax(np.abs(A[col:, col])))
        if p != col:
            A[[col, p]] = A[[p, col]]
            b[[col, p]] = b[[p, col]]
        for row in range(col + 1, n):
            m = A[row, col] / A[col, col]
            A[row, col:] -= m * A[col, col:]
            b[row] -= m * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def test_dense_solve_matches_reference_elimination():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        A = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        b = rng.standard_normal(n)
        d = dense_solve(A, b)
        ref = gauss_solve(A, b)
        assert np.linalg.norm(d - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))
        assert np.linalg.norm(A @ d - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def test_dense_solve_exact_small_system():
    # [[2, 1], [1, 3]] x = [3, 5] has the solution (4/5, 7/5)
    d = dense_solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 5.0]))
    assert np.allclose(d, [0.8, 1.4], atol=1e-14)


def test_dense_solve_singular_raises():
    with pytest.raises(SingularError):
        dense_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
    with pytest.raises(SingularError):
        dense_solve(np.zeros((3, 3)), np.zeros(3))
    # far-below-threshold pivot after elimination
    with pytest.raises(SingularError):
        dense_solve(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
                    np.array([1.0, 1.0]))


def test_dense_solve_shape_errors():
    with pytest.raises(ValueError):
        dense_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        dense_solve(np.eye(2), np.ones(3))


def test_top_s_basic_and_ties():
    assert top_s_by_magnitude(np.array([3.0, -5.0, 2.0]), 2).tolist() == [0, 1]
    assert top_s_by_magnitude(np.array([0.0, 0.1]), 1).tolist() == [1]
    # exact ties go to the lowest index
    assert top_s_by_magnitude(np.array([1.0, -1.0, 1.0]), 2).tolist() == [0, 1]
    assert top_s_by_magnitude(np.zeros(4), 2).tolist() == [0, 1]


def test_top_s_permutation_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        # distinct magnitudes so the selection is unambiguous
        z = (1.0 + np.arange(n)) * rng.choice([-1.0, 1.0], size=n)
        rng.shuffle(z)
        s = int(rng.integers(1, n + 1))
        base = set(top_s_by_magnitude(z, s).tolist())
        perm = rng.permutation(n)
        permuted = set(top_s_by_magnitude(z[perm], s).tolist())
        assert {int(perm[i]) for i in permuted} == base


def stable_top_s(z, s):
    """Reference selection: a stable sort on -|z|, which ranks NaN last."""
    return np.sort(np.argsort(-np.abs(z), kind="stable")[:s])


def test_top_s_matches_stable_sort():
    rng = np.random.default_rng(11)
    specials = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, np.inf, -np.inf,
                         np.nan])
    for trial in range(10_000):
        n = int(rng.integers(1, 13))
        if trial % 2:
            z = rng.choice(specials, size=n)
        else:
            z = rng.standard_normal(n)
        for s in range(1, n + 1):
            got = top_s_by_magnitude(z, s)
            assert got.dtype == np.intp
            assert np.array_equal(got, stable_top_s(z, s)), (z, s)


def test_top_s_ranks_nan_below_every_number():
    # a partition that ranked NaN as the largest magnitude would return
    # [1, 5] here: both infinities, then one NaN short of the 2 at index 0
    z = np.array([2.0, -np.inf, -1.0, -1.0, np.nan, -np.inf, np.nan, -1.0])
    assert top_s_by_magnitude(z, 3).tolist() == [0, 1, 5]
    # with fewer numbers than s, the lowest-index NaNs fill the rest
    z = np.array([np.nan, 1.0, np.nan, np.nan])
    assert top_s_by_magnitude(z, 3).tolist() == [0, 1, 2]


def test_columns_match_the_column_gather():
    sym = generate(GeneratorSpec("sdp_gaussian", 40, seed=2))
    rng = np.random.default_rng(3)
    plain = LcpInstance(rng.standard_normal((40, 40)), np.zeros(40))
    assert sym.symmetric and not plain.symmetric
    for inst in (sym, plain):
        for idx in ([3, 7, 21], [21, 3, 7], [7, 7, 0, 7], [], [39]):
            idx = np.array(idx, dtype=np.intp)
            got, want = inst.columns(idx), inst.M[:, idx]
            assert got.shape == want.shape == (40, idx.size)
            assert got.strides == want.strides
            assert np.array_equal(got, want)


def test_symmetric_is_exact_to_the_bit():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((600, 600))
    M = A + A.T
    assert LcpInstance(M.copy(), np.zeros(600)).symmetric
    # one ulp off in the off-diagonal tile (0, 2) of the check
    M[5, 590] = np.nextafter(M[5, 590], np.inf)
    assert not LcpInstance(M, np.zeros(600)).symmetric
    # +0 and -0 are equal numbers but different bits
    Z = np.zeros((3, 3))
    Z[0, 2] = -0.0
    assert not LcpInstance(Z, np.zeros(3)).symmetric


def test_top_s_range_errors():
    with pytest.raises(ValueError):
        top_s_by_magnitude(np.ones(3), 0)
    with pytest.raises(ValueError):
        top_s_by_magnitude(np.ones(3), 4)


def test_instance_validation_and_freezing():
    inst = LcpInstance(np.eye(2), np.array([1.0, -1.0]),
                       ground_truth=np.array([0.0, 1.0]))
    assert inst.n == 2
    assert not inst.M.flags.writeable
    with pytest.raises(ValueError):
        inst.M[0, 0] = 9.0
    # an owned float64 array is kept and frozen; a view is copied and
    # leaves its base writable; a list is converted
    M = np.eye(2)
    base = np.array([1.0, -1.0, 0.0])
    inst = LcpInstance(M, base[:2], ground_truth=[0.0, 1.0])
    assert np.shares_memory(inst.M, M) and not M.flags.writeable
    assert not np.shares_memory(inst.q, base) and base.flags.writeable
    assert not inst.q.flags.writeable
    assert inst.ground_truth.dtype == np.float64
    assert np.array_equal(inst.ground_truth, [0.0, 1.0])
    with pytest.raises(ValueError):
        LcpInstance(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        LcpInstance(np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        LcpInstance(np.eye(2), np.ones(2), ground_truth=np.ones(3))
    # non-finite data is rejected up front, whichever array carries it
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="M must be finite"):
            LcpInstance(np.array([[1.0, bad], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(ValueError, match="q must be finite"):
            LcpInstance(np.eye(2), np.array([1.0, bad]))
        with pytest.raises(ValueError, match="ground truth must be finite"):
            LcpInstance(np.eye(2), np.ones(2),
                        ground_truth=np.array([bad, 0.0]))


def test_solver_config_validation():
    for bad in (dict(s=0), dict(s=1, eta=0.0), dict(s=1, eta=np.inf)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


@pytest.mark.parametrize("s", [2.5, 3.0, np.float64(2.0)])
def test_solver_config_budget_must_be_an_integer(s):
    # a float budget used to build and then fail in numpy's partition
    with pytest.raises(TypeError):
        SolverConfig(s=s)
    assert SolverConfig(s=np.int64(3)).s == 3


def test_eta_default_is_two_at_every_dimension():
    # eta is one number in equilibrated units, whatever n
    assert SolverConfig(s=1).eta == 2.0
    assert SolverConfig(s=1, eta=0.25).eta == 0.25


def test_termination_values_are_stable_strings():
    assert Termination.RESIDUAL_MET.value == "residual_met"
    assert Termination.CERTIFIED.value == "certified"
    assert Termination.OBJECTIVE_STALLED.value == "objective_stalled"
    assert Termination.ITERATION_CAP.value == "iteration_cap"
    assert Termination.LINE_SEARCH_FAILED.value == "line_search_failed"


def test_certificate_worked_example():
    # x_- = 0.5, y_- = 3, x * y = (0, -0.5, 0): the worst is 3, and
    # ||q||_inf = 4 scales it to 0.75
    x = np.array([2.0, -0.5, 0.0])
    y = np.array([0.0, 1.0, -3.0])
    assert certificate(x, y, np.array([-4.0, 1.0, 2.0])) == 0.75
    # a small q scales by 1, not by ||q||
    assert certificate(x, y, np.array([0.5, 0.0, 0.0])) == 3.0
    # a solution scores exactly 0, never -0
    z = np.array([0.0, -0.0, 1.0])
    cert = certificate(z, np.array([2.0, 0.0, -0.0]), np.zeros(3))
    assert cert == 0.0 and np.copysign(1.0, cert) == 1.0


def test_instance_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    n = 7
    M = rng.standard_normal((n, n)) * np.pi
    q = rng.standard_normal(n) / 3.0
    gt = np.where(rng.random(n) < 0.5, 0.0, rng.standard_normal(n))
    inst = LcpInstance(M, q, ground_truth=gt)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.M, inst.M)
    assert np.array_equal(back.q, inst.q)
    assert np.array_equal(back.ground_truth, inst.ground_truth)
    # and a second save of the loaded instance is byte identical
    path2 = tmp_path / "inst2.txt"
    save_instance(back, path2)
    assert path.read_bytes() == path2.read_bytes()
    # the layout documented in the README loads and saves back unchanged
    readme = tmp_path / "readme.txt"
    readme.write_text("3\n1 0 0\n0 1 0\n0 0 1\n-1 0.5 2\nx*: 1 0 0\n")
    doc = load_instance(readme)
    assert np.array_equal(doc.M, np.eye(3))
    assert doc.q.tolist() == [-1.0, 0.5, 2.0]
    assert doc.ground_truth.tolist() == [1.0, 0.0, 0.0]
    save_instance(doc, path2)
    assert path2.read_bytes() == readme.read_bytes()


def test_instance_file_without_ground_truth(tmp_path):
    inst = LcpInstance(np.eye(2), np.array([0.5, -0.5]))
    path = tmp_path / "nogt.txt"
    save_instance(inst, path)
    assert len(path.read_text().strip().splitlines()) == 4  # n, 2 rows, q
    back = load_instance(path)
    assert back.ground_truth is None
    assert np.array_equal(back.q, inst.q)


def test_instance_file_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        load_instance(empty)
    trunc = tmp_path / "trunc.txt"
    for text in ("2\n1 0\n", "0\n1\n"):
        trunc.write_text(text)
        with pytest.raises(ValueError):
            load_instance(trunc)
    badrow = tmp_path / "badrow.txt"
    badrow.write_text("2\n1 0 0\n0 1\n1 2\n")
    with pytest.raises(ValueError):
        load_instance(badrow)
    # rows of equal length that do not match n pass loadtxt and reach
    # load_instance's own shape checks
    for text, message in (("2\n1 2 3\n4 5 6\n1 2\n", "bad matrix row length"),
                          ("2\n1 0\n0 1\n1 2 3\n", "bad q length"),
                          ("2\n1 0\n0 1\n-1 -1\nx*: 1\n",
                           "bad ground-truth length")):
        badrow.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_instance(badrow)
    badtail = tmp_path / "badtail.txt"
    for tail in ("not-a-solution-line\n", "x*: 1\nextra\n", "x*:\n"):
        badtail.write_text("1\n1\n-1\n" + tail)
        with pytest.raises(ValueError):
            load_instance(badtail)
    # '#' is not a comment marker in instance files
    comment = tmp_path / "comment.txt"
    comment.write_text("1\n1 # one\n-1\n")
    with pytest.raises(ValueError):
        load_instance(comment)


def test_instance_load_streams_and_skips_blank_lines(tmp_path):
    # M is parsed from the lines as they are read, so the load peaks at
    # about one M; blank lines between the rows, before q or before x*
    # change nothing
    inst = generate(GeneratorSpec("sdp_gaussian", 300, seed=0))
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    tracemalloc.start()
    try:
        back = load_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * inst.M.nbytes
    assert np.array_equal(back.M, inst.M)
    lines = path.read_text().splitlines()
    spaced = tmp_path / "spaced.txt"
    spaced.write_text("\n\n".join(lines[:3]) + "\n\n   \n"
                      + "\n".join(lines[3:-2]) + "\n\n" + lines[-2]
                      + "\n\t\n" + lines[-1] + "\n\n")
    again = load_instance(spaced)
    assert np.array_equal(again.M, inst.M)
    assert np.array_equal(again.q, inst.q)
    assert np.array_equal(again.ground_truth, inst.ground_truth)


def test_package_exports_resolve():
    for name in sparselcp.__all__:
        assert hasattr(sparselcp, name), name
    # solver internals and test-only helpers stay off the package root
    for name in ("SingularError", "dense_solve", "top_s_by_magnitude",
                 "Tableau", "line_search", "newton_direction", "residual",
                 "select_support", "Rng", "CombinatorialLimit",
                 "is_ps_matrix", "is_psd", "is_z_matrix"):
        assert not hasattr(sparselcp, name), name
