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
           of the generalized Hessian (see _XI note below).
  fb     : psi = 0.5 phi^2 with phi = sqrt(a^2 + b^2 + eps) - a - b,
           the eps-smoothed Fischer-Burmeister residual.
  min    : psi = 0.5 phi^2 with phi = a + b - sqrt((a-b)^2 + eps),
           the eps-smoothed natural (minimum) residual; eps = 1e-10
           for both smoothed kernels.
  psi2   : psi = 0.5[(ab)_+^2 + min(a,0)^2 + min(b,0)^2], a squared
           penalty on positive products and negative parts.

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
    """Selects a merit kernel; r is the exponent of phi_r and ignored
    by the other kinds."""

    kind: str
    r: float = 2.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown merit kind {self.kind!r}")
        if self.kind == "phi_r" and not self.r >= 2:
            raise ValueError("r must be at least 2")

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


def _value_terms(model, a, b):
    if model.kind == "phi_r":
        r = model.r
        ap, am = _parts(a)
        bp, bm = _parts(b)
        if r == 2.0:
            return 0.5 * ((ap * bp) ** 2 + am * am + bm * bm)
        return (ap**r * bp**r + am**r + bm**r) / r
    if model.kind == "fb":
        w = np.sqrt(a * a + b * b + _EPS)
        phi = w - a - b
        return 0.5 * phi * phi
    if model.kind == "min":
        u = a - b
        w = np.sqrt(u * u + _EPS)
        phi = a + b - w
        return 0.5 * phi * phi
    # psi2
    ab = np.maximum(a * b, 0.0)
    am = np.minimum(a, 0.0)
    bm = np.minimum(b, 0.0)
    return 0.5 * (ab * ab + am * am + bm * bm)


def _grad_terms(model, a, b):
    if model.kind == "phi_r":
        r = model.r
        ap, am = _parts(a)
        bp, bm = _parts(b)
        if r == 2.0:
            da = ap * bp * bp - am
            db = ap * ap * bp - bm
        else:
            da = ap ** (r - 1) * bp**r - am ** (r - 1)
            db = ap**r * bp ** (r - 1) - bm ** (r - 1)
        return da, db
    if model.kind == "fb":
        w = np.sqrt(a * a + b * b + _EPS)
        phi = w - a - b
        return phi * (a / w - 1.0), phi * (b / w - 1.0)
    if model.kind == "min":
        u = a - b
        w = np.sqrt(u * u + _EPS)
        phi = a + b - w
        return phi * (1.0 - u / w), phi * (1.0 + u / w)
    # psi2
    ab = np.maximum(a * b, 0.0)
    return ab * b + np.minimum(a, 0.0), ab * a + np.minimum(b, 0.0)


# For r = 2 the diagonal curvature terms are set-valued at the kinks
# a = 0 (resp. b = 0); the selection used everywhere takes the constant
# endpoint 1 there, which keeps the diagonal bounded away from zero:
#     xi(a, b) = b_+^2 if a > 0 else 1.
def _xi(a, b):
    bp = np.maximum(b, 0.0)
    return np.where(a > 0.0, bp * bp, 1.0)


def _hess_terms(model, a, b):
    if model.kind == "phi_r":
        r = model.r
        ap, am = _parts(a)
        bp, bm = _parts(b)
        if r == 2.0:
            return _xi(a, b), 2.0 * ap * bp, _xi(b, a)
        haa = (r - 1) * (ap ** (r - 2) * bp**r + am ** (r - 2))
        hab = r * ap ** (r - 1) * bp ** (r - 1)
        hbb = (r - 1) * (ap**r * bp ** (r - 2) + bm ** (r - 2))
        return haa, hab, hbb
    if model.kind == "fb":
        w = np.sqrt(a * a + b * b + _EPS)
        phi = w - a - b
        pa = a / w - 1.0
        pb = b / w - 1.0
        w3 = w * w * w
        haa = pa * pa + phi * (b * b + _EPS) / w3
        hab = pa * pb - phi * a * b / w3
        hbb = pb * pb + phi * (a * a + _EPS) / w3
        return haa, hab, hbb
    if model.kind == "min":
        u = a - b
        w = np.sqrt(u * u + _EPS)
        phi = a + b - w
        pa = 1.0 - u / w
        pb = 1.0 + u / w
        curv = _EPS / (w * w * w)
        return pa * pa - phi * curv, pa * pb + phi * curv, pb * pb - phi * curv
    # psi2; the kinks ab = 0, a = 0, b = 0 take the flat-branch value 0
    pos = a * b > 0.0
    haa = np.where(pos, b * b, 0.0) + (a < 0.0)
    hab = 2.0 * np.maximum(a * b, 0.0)
    hbb = np.where(pos, a * a, 0.0) + (b < 0.0)
    return haa, hab, hbb


def value_from_xy(model, x, y):
    """Merit value from precomputed x and y = M x + q."""
    return float(_value_terms(model, x, y).sum())


def gradient_from_xy(model, M, x, y):
    """Merit gradient from precomputed y; one M^T matvec."""
    da, db = _grad_terms(model, x, y)
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
    """The |rows| x |cols| block of the merit Hessian at x.

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
    haa, hab, hbb = _hess_terms(model, x, y)
    MC = M[:, C]
    H = M[:, R].T @ (hbb[:, None] * MC)
    if len(R) and len(C):
        H += hab[R][:, None] * M[np.ix_(R, C)]
        H += M[np.ix_(C, R)].T * hab[C][None, :]
        common, ri, ci = np.intersect1d(R, C, return_indices=True)
        H[ri, ci] += haa[common]
    return H
