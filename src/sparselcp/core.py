"""Core types and small numerical utilities shared by all solvers.

Conventions: vectors are 1-d float64 numpy arrays, matrices are dense 2-d
float64 arrays.  Index sets are sorted 0-based np.intp arrays; file
formats and logs that surface indices to users print them 1-based.
Solvers fetch the columns M[:, idx] through LcpInstance.columns, which
reads the contiguous rows M[idx] instead when M is bit-for-bit
symmetric (LcpInstance.symmetric); both reads give the same array, so
results do not depend on which one ran.
"""

import enum
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg


# tile edge of the symmetry check
_TILE = 256


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
    """Raise ValueError if a holds a NaN or an infinity; else return the
    largest |a_i|, 0 when a is empty or zero.

    NaN and +-inf propagate through min and max, which, unlike
    np.isfinite(a).all() or np.abs(a).max(), allocate no temporary of
    a's size."""
    lo = float(a.min(initial=0.0))
    hi = float(a.max(initial=0.0))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} must be finite")
    return max(-lo, hi)


@dataclass(frozen=True)
class LcpInstance:
    """The data (M, q) of a linear complementarity problem.

    Find x >= 0 with y = M x + q >= 0 and <x, y> = 0; sparse variants
    additionally bound the number of nonzeros of x.

    ground_truth : optional planted solution used for error reporting
    m_scale : max |M_ij|, or 1 when M = 0; set from M
    q_scale : max(1, ||q||_inf); set from q

    M, q and ground_truth must be finite; ValueError otherwise.  The two
    scales come from the same sweeps as that check, and nhtp.solve runs
    on the equilibrated LCP (M / m_scale, q / q_scale).  The instance
    takes ownership of a float64 array that owns its data: it keeps that
    array without a copy and makes it read-only.  Anything else (a list,
    another dtype, a view) is copied.
    """

    M: np.ndarray
    q: np.ndarray
    ground_truth: np.ndarray = None
    m_scale: float = field(init=False, repr=False, compare=False)
    q_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M = _frozen_array(self.M)
        q = _frozen_array(self.q)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("M must be square")
        if q.shape != (M.shape[0],):
            raise ValueError("q length must match M")
        m_max = _check_finite(M, "M")
        q_max = _check_finite(q, "q")
        gt = self.ground_truth
        if gt is not None:
            gt = _frozen_array(gt)
            if gt.shape != q.shape:
                raise ValueError("ground truth length must match q")
            _check_finite(gt, "ground truth")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ground_truth", gt)
        object.__setattr__(self, "m_scale", m_max if m_max > 0.0 else 1.0)
        object.__setattr__(self, "q_scale", max(1.0, q_max))

    @property
    def n(self):
        return self.q.shape[0]

    @cached_property
    def symmetric(self):
        """True when M equals M^T bit for bit (so +0 and -0 differ).

        Compares one 256 x 256 tile against its mirror at a time, so it
        allocates nothing of M's size; stops at the first mismatch."""
        bits = self.M.view(np.int64)
        n = self.n
        for i in range(0, n, _TILE):
            for j in range(i, n, _TILE):
                if not np.array_equal(bits[i:i + _TILE, j:j + _TILE],
                                      bits[j:j + _TILE, i:i + _TILE].T):
                    return False
        return True

    def columns(self, idx):
        """M[:, idx] as an n x len(idx) array.  A symmetric M gives the
        same values, shape and strides from its contiguous rows M[idx],
        about ten times cheaper to gather than the strided columns."""
        if self.symmetric:
            return self.M[idx].T
        return self.M[:, idx]


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the sparse Newton pursuit solver.

    s : sparsity budget (1 <= s <= n, checked at solve time)
    eta : thresholding step, positive and finite

    eta is in the equilibrated LCP (M / m_scale, q / q_scale) that
    nhtp.solve runs on, so the same eta fits every scale of M and q.
    Of eta = 0.5, 1, 2, 3 and 5, the values 0.5, 2 and 5 recovered all 93
    planted solutions of phi_2, phi_3 and psi2 at s = s* on sdp_gaussian,
    sdp_uniform and zmatrix (n = 1000 and 5000).  On 24 phi_2 solves of
    sdp_gaussian at n = 5000, 5 halved eta and 2 was faster than 0.5,
    never halving.

    The residual tolerance (1e-10), the iteration cap (2000), the Armijo
    slope fraction (1e-4) and backtracking shrink factor (0.5), the
    descent-test curvature floors, the objective-stall threshold and the
    backtracking budget are fixed constants of the nhtp module.
    """

    s: int
    eta: float = 2.0

    def __post_init__(self):
        if operator.index(self.s) < 1:
            raise ValueError("s must be at least 1")
        if not 0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")


class Termination(enum.Enum):
    """Why a solve ended.  RESIDUAL_MET: the stationarity residual fell to
    1e-10, so the point is s-stationary, as a spurious stationary point
    with a positive merit is too.  CERTIFIED: the point passes
    certificate() at 1e-12 on the solver's equilibrated LCP, a solution
    whatever its residual.  OBJECTIVE_STALLED: the merit stopped falling
    at a point that is not certified.  ITERATION_CAP and
    LINE_SEARCH_FAILED: the solve gave up.  Only CERTIFIED, or a small
    certificate() of the reported point, shows a solution."""

    RESIDUAL_MET = "residual_met"
    CERTIFIED = "certified"
    OBJECTIVE_STALLED = "objective_stalled"
    ITERATION_CAP = "iteration_cap"
    LINE_SEARCH_FAILED = "line_search_failed"


@dataclass
class SolveReport:
    """Outcome of one solver run.

    support holds the working set that produced x, a sorted index array of
    length s, so supp(x) is always contained in it.  termination says
    why the solve ended; RESIDUAL_MET means x is s-stationary, not that
    it solves the problem.  Only CERTIFIED, or a small certificate() of
    x, shows that.  The path to x reaches nhtp.solve's callback only.

    x is in the units of the instance's (M, q).  objective and residual
    are in the equilibrated LCP (M / m_scale, q / q_scale) that
    nhtp.solve runs on, as SolverConfig's eta is.
    """

    x: np.ndarray
    support: np.ndarray
    objective: float
    residual: float
    iterations: int
    wall_time: float
    termination: Termination


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


def certificate(x, y, q):
    """Scaled complementarity violation of x with y = M x + q:

        max(||x_-||, ||y_-||, ||x * y||) / max(1, ||q||),  all inf-norms.

    It needs no ground truth and no merit, and is 0 exactly at a
    solution of the LCP.  O(n)."""
    violation = max(0.0, -float(x.min(initial=0.0)),
                    -float(y.min(initial=0.0)),
                    float(np.abs(x * y).max(initial=0.0)))
    return violation / max(1.0, float(np.abs(q).max(initial=0.0)))


def top_s_by_magnitude(z, s):
    """Indices of the s largest |z_i|, ties won by the lowest index.

    Returns exactly s indices as a sorted np.intp array.  NaN ranks below
    every number.  Runs in O(n): one partition finds the s-th largest
    |z_i|, every index above it is taken, and the lowest-index ties fill
    the rest; the result is exactly that of a stable sort on -|z|.
    """
    z = np.asarray(z)
    n = z.shape[0]
    if not 1 <= s <= n:
        raise ValueError("s out of range")
    key = -np.abs(z)  # partition puts NaN last, below every number
    v = np.partition(key, s - 1)[s - 1]
    if np.isnan(v):
        take = ~np.isnan(key)
        tie = ~take
    else:
        take = key < v
        tie = key == v
    take[np.flatnonzero(tie)[:s - np.count_nonzero(take)]] = True
    return np.flatnonzero(take)


def support_mask(x):
    """True where |x_i| exceeds 1e-9 * max(1, ||x||_inf); an entry at or
    below that is round-off and reads as zero."""
    thresh = 1e-9 * max(1.0, float(np.abs(x).max(initial=0.0)))
    return np.abs(x) > thresh


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


def _parse(lines, ndmin, max_rows=None):
    # comments=None keeps a stray '#' a parse error rather than a comment;
    # input with no rows comes back empty, and the shape checks reject it
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, ndmin=ndmin, comments=None,
                          max_rows=max_rows)


def load_instance(path):
    """Inverse of save_instance; blank lines anywhere are skipped.  M is
    parsed straight from the file's lines as they are read, so the load
    holds no copy of the text beyond what the parser buffers."""
    with open(path) as fh:
        lines = (ln for ln in map(str.strip, fh) if ln)
        head = next(lines, None)
        if head is None:
            raise ValueError("empty instance file")
        n = int(head)
        if n < 1:
            raise ValueError("n must be positive")
        M = _parse(lines, 2, max_rows=n)
        row_q = next(lines, None)
        if M.shape[0] < n or row_q is None:
            raise ValueError("truncated instance file")
        if M.shape != (n, n):
            raise ValueError("bad matrix row length")
        q = _parse([row_q], 1)
        if q.shape != (n,):
            raise ValueError("bad q length")
        gt = None
        tail = next(lines, None)
        if tail is not None:
            if next(lines, None) is not None or not tail.startswith("x*:"):
                raise ValueError("unrecognized trailing line")
            gt = _parse([tail[3:]], 1)
            if gt.shape != (n,):
                raise ValueError("bad ground-truth length")
    return LcpInstance(M, q, ground_truth=gt)
