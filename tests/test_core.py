"""Tests for core types, dense solves, thresholding, and instance files."""

import numpy as np
import pytest

import sparselcp
from sparselcp.core import (LcpInstance, SingularError, SolverConfig,
                            Termination, dense_solve, load_instance,
                            save_instance, top_s_by_magnitude)


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
    cfg = SolverConfig(s=3)
    assert cfg.sigma == 1e-4 and cfg.beta == 0.5 and cfg.max_iter == 2000
    for bad in (dict(s=0), dict(s=1, eta=0.0), dict(s=1, sigma=0.5),
                dict(s=1, sigma=0.0), dict(s=1, beta=1.0),
                dict(s=1, tol=-1e-3), dict(s=1, max_iter=0),
                dict(s=1, eta=np.inf), dict(s=1, tol=np.nan),
                dict(s=1, tol=np.inf)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_eta_default_switches_at_dimension_1000():
    cfg = SolverConfig(s=1)
    assert cfg.eta_for(1000) == 5.0
    assert cfg.eta_for(1001) == 1.0
    assert SolverConfig(s=1, eta=0.25).eta_for(10**6) == 0.25


def test_termination_values_are_stable_strings():
    assert Termination.RESIDUAL_MET.value == "residual_met"
    assert Termination.OBJECTIVE_STALLED.value == "objective_stalled"
    assert Termination.ITERATION_CAP.value == "iteration_cap"
    assert Termination.LINE_SEARCH_FAILED.value == "line_search_failed"


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
    badtail = tmp_path / "badtail.txt"
    for tail in ("not-a-solution-line\n", "x*: 1\nextra\n"):
        badtail.write_text("1\n1\n-1\n" + tail)
        with pytest.raises(ValueError):
            load_instance(badtail)
    # '#' is not a comment marker in instance files
    comment = tmp_path / "comment.txt"
    comment.write_text("1\n1 # one\n-1\n")
    with pytest.raises(ValueError):
        load_instance(comment)


def test_package_exports_resolve():
    for name in sparselcp.__all__:
        assert hasattr(sparselcp, name), name
