"""Deterministic benchmark instance generators and matrix-class predicates.

Reproducibility contract.  All randomness flows through a pinned pipeline
so identical (example, n, m, s_star, seed) yield bitwise-identical random
draws (the factor Z, the permutation and the planted values) on any
platform.  The products M = Z Z^T and M x* come from BLAS, whose summation
order depends on the library and its thread count, so the last bits of M
and q can differ between BLAS builds and thread settings; with the same
BLAS setup they repeat exactly.  The pipeline:

  * Raw stream: SplitMix64.  The k-th output (k = 1, 2, ...) is
    mix(seed + k * 0x9E3779B97F4A7C15) over uint64 arithmetic mod 2^64,
    with mix(z): z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
    z *= 0x94D049BB133111EB; z ^= z>>31.
  * Uniforms on [0, 1): (raw >> 11) * 2^-53.
  * Uniforms on (0, 1) (used wherever a strictly positive draw is
    required, matching open-interval rand semantics):
    ((raw >> 11) + 0.5) * 2^-53.
  * Standard normals: Box-Muller over consecutive [0,1) uniform pairs
    (u1, u2): rho = sqrt(-2 * log(1 - u1)), angle = 2*pi*u2, yielding
    rho*cos(angle) then rho*sin(angle).  An odd request discards the
    final sine.  log/cos/sin are IEEE double evaluations (numpy's, which
    agree between array and scalar paths).
  * Permutations: Fisher-Yates over the [0,1) stream, descending: for
    i = n-1 down to 1, j = floor(u * (i+1)) with one fresh uniform u,
    swap positions i and j.

Stream consumption order per family is documented on each builder.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import LcpInstance

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1


class CombinatorialLimit(Exception):
    """Requested enumeration is too large to brute-force."""


class Rng:
    """The pinned SplitMix64-based stream (see module docstring)."""

    def __init__(self, seed):
        self._seed = np.uint64(int(seed) & _MASK)
        self._drawn = 0

    def raw(self, count):
        ks = np.arange(self._drawn + 1, self._drawn + count + 1,
                       dtype=np.uint64)
        self._drawn += count
        z = self._seed + ks * _GAMMA
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return z

    def uniforms(self, count):
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniforms_open(self, count):
        raw = (self.raw(count) >> np.uint64(11)).astype(np.float64)
        return (raw + 0.5) * 2.0**-53

    def normals(self, count):
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        rho = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        angle = 2.0 * np.pi * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = rho * np.cos(angle)
        z[1::2] = rho * np.sin(angle)
        return z[:count]

    def permutation(self, n):
        a = np.arange(n)
        if n > 1:
            u = self.uniforms(n - 1)
            for step, i in enumerate(range(n - 1, 0, -1)):
                j = int(u[step] * (i + 1))
                a[i], a[j] = a[j], a[i]
        return a


EXAMPLES = ("zmatrix", "sdp_gaussian", "sdp_uniform", "sdp_uniform_nox")
PLANTED = ("zmatrix", "sdp_gaussian", "sdp_uniform")  # carry ground_truth


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one benchmark family draw.

    m (factor inner dimension) defaults to n/2, or n/4 for
    sdp_uniform_nox, rounded down with minimum 1.  s_star defaults to
    0.01 n rounded up.  zmatrix ignores s_star, m and seed: it always
    plants e_1, so its resolved_s_star is 1.
    """

    example: str
    n: int
    s_star: int = None
    m: int = None
    seed: int = 0

    def __post_init__(self):
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.s_star is not None and not 1 <= self.s_star <= self.n:
            raise ValueError("s_star out of range")
        if self.m is not None and not 1 <= self.m <= self.n:
            raise ValueError("m out of range")

    @property
    def resolved_m(self):
        if self.m is not None:
            return self.m
        frac = 4 if self.example == "sdp_uniform_nox" else 2
        return max(1, self.n // frac)

    @property
    def resolved_s_star(self):
        """Planted sparsity; for sdp_uniform_nox, the count of q_i < 0."""
        if self.example == "zmatrix":
            return 1
        if self.s_star is not None:
            return self.s_star
        return max(1, math.ceil(0.01 * self.n))


def generate(spec):
    """Build the instance a GeneratorSpec describes."""
    if spec.example == "zmatrix":
        return _zmatrix(spec.n)
    return _psd(spec)


def _zmatrix(n):
    """Deterministic family: M = I - ee^T/n, q = e/n - e_1.

    M is a positive semidefinite Z-matrix and x* = e_1 solves the problem
    exactly (M x* + q = 0).  No randomness: s_star, m and seed are unused.
    """
    M = np.full((n, n), -(1.0 / n))
    M[np.diag_indices(n)] += 1.0
    q = np.full(n, 1.0 / n)
    q[0] -= 1.0
    gt = np.zeros(n)
    gt[0] = 1.0
    return LcpInstance(M, q, ground_truth=gt)


def _psd(spec):
    """Random PSD families M = Z Z^T, Z of shape (n, m): standard normal
    for sdp_gaussian, from the open interval (0, 1) otherwise.  T holds
    the first s_star entries of a random permutation.  sdp_uniform_nox
    plants nothing: q_i = -u on T and +u elsewhere, u in (0, 1).  The
    others plant x* with 0.1 + |N(0,1)| values on T; q is -(M x*)_i on T
    and, off T, |(M x*)_i| (gaussian) or a fresh (0, 1) draw (uniform),
    making x* an exact solution.

    Stream order: Z row-major (n*m draws), the permutation (n-1
    uniforms), then for sdp_uniform_nox one (0, 1) draw per index in
    ascending order, negated on T; otherwise the support values
    (2*ceil(s_star/2) uniforms via Box-Muller) and, for sdp_uniform only,
    one (0, 1) draw per off-support index in ascending order.
    """
    n, m, s_star = spec.n, spec.resolved_m, spec.resolved_s_star
    rng = Rng(spec.seed)
    gaussian = spec.example == "sdp_gaussian"
    if gaussian:
        Z = rng.normals(n * m).reshape(n, m)
    else:
        Z = rng.uniforms_open(n * m).reshape(n, m)
    M = Z @ Z.T
    del Z  # free the factor before LcpInstance freezes M
    supp = rng.permutation(n)[:s_star]
    if spec.example not in PLANTED:
        q = rng.uniforms_open(n)
        q[supp] = -q[supp]
        return LcpInstance(M, q)
    xs = np.zeros(n)
    xs[supp] = 0.1 + np.abs(rng.normals(s_star))
    Mx = M @ xs
    if gaussian:
        q = np.abs(Mx)
    else:
        q = np.empty(n)
        off = np.setdiff1d(np.arange(n), supp)
        q[off] = rng.uniforms_open(off.size)
    q[supp] = -Mx[supp]
    return LcpInstance(M, q, ground_truth=xs)


def is_z_matrix(M):
    """True when every off-diagonal entry is <= 0."""
    M = np.asarray(M)
    off = M - np.diag(np.diag(M))
    return bool(np.all(off <= 0))


def is_psd(M, tol=1e-10):
    """True when the symmetric part has no eigenvalue below -tol."""
    M = np.asarray(M, dtype=np.float64)
    sym = 0.5 * (M + M.T)
    return bool(np.linalg.eigvalsh(sym).min() >= -tol)


def is_ps_matrix(M, s, tol=0.0):
    """True when every principal minor of order <= s exceeds tol.

    Brute-force determinant enumeration; rejects n > 20 with
    CombinatorialLimit since C(n, <=s) grows too fast.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if n > 20:
        raise CombinatorialLimit("principal-minor enumeration needs n <= 20")
    s = min(s, n)
    for order in range(1, s + 1):
        for idx in itertools.combinations(range(n), order):
            sel = np.ix_(idx, idx)
            if not np.linalg.det(M[sel]) > tol:
                return False
    return True


def is_success(x, x_star):
    """Recovery test: ||x - x*|| < 0.01 ||x*||."""
    x_star = np.asarray(x_star, dtype=np.float64)
    return bool(np.linalg.norm(x - x_star) < 0.01 * np.linalg.norm(x_star))
