"""Core types and small numerical utilities shared by all solvers.

Conventions: vectors are 1-d float64 numpy arrays, matrices are dense 2-d
float64 arrays.  Index sets are sorted 0-based np.intp arrays; file
formats and logs that surface indices to users print them 1-based.
"""

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


class SingularError(Exception):
    """A pivot fell below the singularity threshold during factorization."""


def _frozen_array(a):
    """a itself when it is a float64 ndarray that owns its data, else a
    float64 copy; read-only either way."""
    if not (type(a) is np.ndarray and a.dtype == np.float64
            and a.base is None):
        a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _check_finite(a, name):
    """Raise ValueError if a holds a NaN or an infinity.

    NaN and +-inf propagate through min and max, which, unlike
    np.isfinite(a).all(), allocate no temporary of a's size."""
    if not (np.isfinite(a.min(initial=0.0))
            and np.isfinite(a.max(initial=0.0))):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class LcpInstance:
    """The data (M, q) of a linear complementarity problem.

    Find x >= 0 with y = M x + q >= 0 and <x, y> = 0; sparse variants
    additionally bound the number of nonzeros of x.

    ground_truth : optional planted solution used for error reporting

    M, q and ground_truth must be finite; ValueError otherwise.  The
    instance takes ownership of a float64 array that owns its data: it
    keeps that array without a copy and makes it read-only.  Anything
    else (a list, another dtype, a view) is copied.
    """

    M: np.ndarray
    q: np.ndarray
    ground_truth: np.ndarray = None

    def __post_init__(self):
        M = _frozen_array(self.M)
        q = _frozen_array(self.q)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("M must be square")
        if q.shape != (M.shape[0],):
            raise ValueError("q length must match M")
        _check_finite(M, "M")
        _check_finite(q, "q")
        gt = self.ground_truth
        if gt is not None:
            gt = _frozen_array(gt)
            if gt.shape != q.shape:
                raise ValueError("ground truth length must match q")
            _check_finite(gt, "ground truth")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ground_truth", gt)

    @property
    def n(self):
        return self.q.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the sparse Newton pursuit solver.

    s : sparsity budget (1 <= s <= n, checked at solve time)
    eta : thresholding step, finite; None picks 5 when n <= 1000 else 1
    sigma : Armijo slope fraction, in (0, 0.5)
    beta : backtracking shrink factor, in (0, 1)
    tol : halting threshold on the stationarity residual, finite
    max_iter : outer iteration cap

    The descent-test curvature floors, the objective-stall threshold and
    the backtracking budget are fixed constants of the nhtp module.
    """

    s: int
    eta: float = None
    sigma: float = 1e-4
    beta: float = 0.5
    tol: float = 1e-10
    max_iter: int = 2000

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be at least 1")
        if self.eta is not None and not 0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")
        if not 0 < self.sigma < 0.5:
            raise ValueError("sigma must lie in (0, 0.5)")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not 0 <= self.tol < np.inf:
            raise ValueError("tol must be nonnegative and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def eta_for(self, n):
        if self.eta is not None:
            return float(self.eta)
        return 5.0 if n <= 1000 else 1.0


class Termination(enum.Enum):
    RESIDUAL_MET = "residual_met"
    OBJECTIVE_STALLED = "objective_stalled"
    ITERATION_CAP = "iteration_cap"
    LINE_SEARCH_FAILED = "line_search_failed"


@dataclass
class SolveReport:
    """Outcome of one solver run.

    support holds the working set that produced x, a sorted index array of
    length s, so supp(x) is always contained in it.  f_trace records the objective at x^0, x^1, ...
    """

    x: np.ndarray
    support: np.ndarray
    objective: float
    residual: float
    iterations: int
    backtracks_total: int
    wall_time: float
    termination: Termination
    f_trace: list = field(default_factory=list)


# singularity threshold factor relative to ||A||_inf
_PIVOT_RTOL = 1e-12


def dense_solve(A, b):
    """Solve the dense system A d = b by partial-pivoting factorization.

    Raises SingularError when any pivot magnitude falls below
    1e-12 * ||A||_inf.  The residual satisfies
    ||A d - b|| <= 1e-10 * max(1, ||b||) for well-conditioned A.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
        raise ValueError("need square A and matching b")
    norm_a = np.abs(A).sum(axis=1).max() if A.size else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pivot check below replaces scipy's warning
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    # diag(U) holds exactly the pivots chosen during elimination
    if norm_a == 0.0 or np.abs(np.diag(lu)).min() < _PIVOT_RTOL * norm_a:
        raise SingularError("pivot below threshold")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def top_s_by_magnitude(z, s):
    """Indices of the s largest |z_i|, ties won by the lowest index.

    Returns exactly s indices as a sorted np.intp array.
    """
    z = np.asarray(z)
    n = z.shape[0]
    if not 1 <= s <= n:
        raise ValueError("s out of range")
    # stable sort on -|z| resolves ties toward lower indices
    order = np.argsort(-np.abs(z), kind="stable")[:s]
    return np.sort(order)


def _fmt(v):
    return format(float(v), ".17g")


def save_instance(inst, path):
    """Write an instance as text: n, the n rows of M, then q, then an
    optional ground-truth line prefixed 'x*:'.  Reals carry 17 significant
    digits so a load/save round trip is bit exact."""
    with open(path, "w") as fh:
        fh.write(f"{inst.n}\n")
        np.savetxt(fh, inst.M, fmt="%.17g")
        np.savetxt(fh, inst.q[None], fmt="%.17g")
        if inst.ground_truth is not None:
            fh.write("x*: ")
            np.savetxt(fh, inst.ground_truth[None], fmt="%.17g")


def _parse(lines, ndmin):
    # comments=None keeps a stray '#' a parse error rather than a comment
    return np.loadtxt(lines, ndmin=ndmin, comments=None)


def load_instance(path):
    """Inverse of save_instance."""
    with open(path) as fh:
        lines = [ln for ln in map(str.strip, fh) if ln]
    if not lines:
        raise ValueError("empty instance file")
    n = int(lines[0])
    if n < 1:
        raise ValueError("n must be positive")
    if len(lines) < n + 2:
        raise ValueError("truncated instance file")
    M = _parse(lines[1:n + 1], 2)
    if M.shape != (n, n):
        raise ValueError("bad matrix row length")
    q = _parse(lines[n + 1:n + 2], 1)
    if q.shape != (n,):
        raise ValueError("bad q length")
    gt = None
    if len(lines) > n + 2:
        tail = lines[n + 2]
        if len(lines) > n + 3 or not tail.startswith("x*:"):
            raise ValueError("unrecognized trailing line")
        gt = _parse([tail[3:]], 1)
        if gt.shape != (n,):
            raise ValueError("bad ground-truth length")
    return LcpInstance(M, q, ground_truth=gt)
