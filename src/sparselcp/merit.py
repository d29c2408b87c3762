"""Complementarity merit functions and their derivatives.

Every merit here has the separable form f(x) = sum_i psi(x_i, y_i) with
y = M x + q, where the scalar kernel psi(a, b) is nonnegative and vanishes
exactly when a >= 0, b >= 0, a*b = 0.  Minimizing f to zero therefore
solves the complementarity problem.  The module exposes the value, the
gradient

    grad f(x) = g_a + M^T g_b,   (g_a)_i = d psi/d a,  (g_b)_i = d psi/d b,

and restricted Hessian blocks

    H[R, C] = Diag(h_aa)[R, C] + Diag(h_ab) M + M^T Diag(h_ab)
              + M^T Diag(h_bb) M   (restricted to rows R, columns C)

assembled in O(n |R| |C|) without ever forming the full n-by-n matrix.

Kernels:
  phi_r  : psi(a,b) = (1/r)[a_+^r b_+^r + |a_-|^r + |b_-|^r], r >= 2.
           Smooth for r > 2; for r = 2 the Hessian is a selected element
           of the generalized Hessian (see the _xi note below).
  fb     : psi = 0.5 phi^2 with phi = sqrt(a^2 + b^2 + eps) - a - b,
           the eps-smoothed Fischer-Burmeister residual.
  min    : psi = 0.5 phi^2 with phi = a + b - sqrt((a-b)^2 + eps),
           the eps-smoothed natural (minimum) residual; eps = 1e-10
           for both smoothed kernels.
  psi2   : psi = 0.5[(ab)_+^2 + min(a,0)^2 + min(b,0)^2], a squared
           penalty on positive products and negative parts.

Each kernel is one function of (a, b, r, order) that returns psi, its
partials (psi_a, psi_b) or its second partials (psi_aa, psi_ab, psi_bb);
_KERNELS picks it by kind.  phi_r's value and partials are one formula
for every r, and at r = 2 they give the quadratic closed forms bit for
bit, since numpy evaluates x**2.0 as x*x and x**1.0 as x.  Only its
Hessian keeps an r = 2 branch (_xi below): the general second partials
carry a_+^0 and a_-^0, which read 0^0 = 1 at every point.

Powers with fractional exponents only ever see nonnegative bases (the
positive/negative parts), so no domain errors arise; 0^p = 0 for p > 0.
"""

from dataclasses import dataclass

import numpy as np

KINDS = ("phi_r", "fb", "min", "psi2")

# smoothing constant eps of the fb and min kernels
_EPS = 1e-10


@dataclass(frozen=True)
class MeritModel:
    """Selects a merit kernel; r is the exponent of phi_r, finite and at
    least 2, and ignored by the other kinds."""

    kind: str
    r: float = 2.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown merit kind {self.kind!r}")
        if self.kind == "phi_r" and not 2 <= self.r < np.inf:
            raise ValueError("r must be finite and at least 2")

    @staticmethod
    def phi_r(r=2.0):
        return MeritModel("phi_r", r=float(r))

    @staticmethod
    def fischer_burmeister():
        return MeritModel("fb")

    @staticmethod
    def natural_min():
        return MeritModel("min")

    @staticmethod
    def psi2():
        return MeritModel("psi2")


def _parts(a):
    ap = np.maximum(a, 0.0)
    am = np.maximum(-a, 0.0)
    return ap, am


# For r = 2 the diagonal curvature terms are set-valued at the kinks
# a = 0 (resp. b = 0); the selection used everywhere takes the constant
# endpoint 1 there, which keeps the diagonal bounded away from zero:
#     xi(a, b) = b_+^2 if a > 0 else 1.
def _xi(a, b):
    bp = np.maximum(b, 0.0)
    return np.where(a > 0.0, bp * bp, 1.0)


def _phi_r(a, b, r, order):
    ap, am = _parts(a)
    bp, bm = _parts(b)
    if order == 0:
        return ((ap * bp) ** r + am**r + bm**r) / r
    if order == 1:
        return ((ap * bp) ** (r - 1) * bp - am ** (r - 1),
                ap**r * bp ** (r - 1) - bm ** (r - 1))
    if r == 2.0:
        return _xi(a, b), 2.0 * ap * bp, _xi(b, a)
    return ((r - 1) * (ap ** (r - 2) * bp**r + am ** (r - 2)),
            r * ap ** (r - 1) * bp ** (r - 1),
            (r - 1) * (ap**r * bp ** (r - 2) + bm ** (r - 2)))


def _fb(a, b, r, order):
    w = np.sqrt(a * a + b * b + _EPS)
    phi = w - a - b
    if order == 0:
        return 0.5 * phi * phi
    pa = a / w - 1.0
    pb = b / w - 1.0
    if order == 1:
        return phi * pa, phi * pb
    w3 = w * w * w
    return (pa * pa + phi * (b * b + _EPS) / w3,
            pa * pb - phi * a * b / w3,
            pb * pb + phi * (a * a + _EPS) / w3)


def _min(a, b, r, order):
    u = a - b
    w = np.sqrt(u * u + _EPS)
    phi = a + b - w
    if order == 0:
        return 0.5 * phi * phi
    pa = 1.0 - u / w
    pb = 1.0 + u / w
    if order == 1:
        return phi * pa, phi * pb
    curv = _EPS / (w * w * w)
    return pa * pa - phi * curv, pa * pb + phi * curv, pb * pb - phi * curv


def _psi2(a, b, r, order):
    ab = np.maximum(a * b, 0.0)
    am = np.minimum(a, 0.0)
    bm = np.minimum(b, 0.0)
    if order == 0:
        return 0.5 * (ab * ab + am * am + bm * bm)
    if order == 1:
        return ab * b + am, ab * a + bm
    # the kinks ab = 0, a = 0, b = 0 take the flat-branch value 0
    pos = ab > 0.0
    return (np.where(pos, b * b, 0.0) + (a < 0.0), 2.0 * ab,
            np.where(pos, a * a, 0.0) + (b < 0.0))


_KERNELS = {"phi_r": _phi_r, "fb": _fb, "min": _min, "psi2": _psi2}


def value_from_xy(model, x, y):
    """Merit value from precomputed x and y = M x + q."""
    return float(_KERNELS[model.kind](x, y, model.r, 0).sum())


def gradient_from_xy(model, M, x, y):
    """Merit gradient from precomputed y; one M^T matvec."""
    da, db = _KERNELS[model.kind](x, y, model.r, 1)
    return da + M.T @ db


def merit_value(model, inst, x):
    """Merit value f(x) as a float."""
    x = np.asarray(x, dtype=np.float64)
    return value_from_xy(model, x, inst.M @ x + inst.q)


def merit_gradient(model, inst, x):
    """Gradient of the merit at x (length-n vector)."""
    x = np.asarray(x, dtype=np.float64)
    return gradient_from_xy(model, inst.M, x, inst.M @ x + inst.q)


def merit_hessian(model, inst, x, rows, cols, y=None):
    """The |rows| x |cols| block of the merit Hessian at x: entry (i, j)
    is H[rows[i], cols[j]], so indices may come in any order and repeat.

    For r = 2 and psi2 the returned matrix is the selected element of the
    generalized Hessian described in the module docstring.  Cost is
    O(n |rows| |cols|); the full matrix is never formed.
    """
    x = np.asarray(x, dtype=np.float64)
    M = inst.M
    if y is None:
        y = M @ x + inst.q
    R = np.asarray(rows, dtype=np.intp)
    C = np.asarray(cols, dtype=np.intp)
    haa, hab, hbb = _KERNELS[model.kind](x, y, model.r, 2)
    MC = M[:, C]
    MR = MC if np.array_equal(R, C) else M[:, R]
    H = MR.T @ (hbb[:, None] * MC)
    H += hab[R][:, None] * MC[R]
    H += MR[C].T * hab[C][None, :]
    ri, ci = np.nonzero(R[:, None] == C)
    H[ri, ci] += haa[R[ri]]
    return H
