"""Complementarity merit functions and their derivatives.

Every merit here has the separable form f(x) = sum_i psi(x_i, y_i) with
y = M x + q, where the scalar kernel psi(a, b) is nonnegative.  For phi_r
and psi2 it vanishes exactly when a >= 0, b >= 0, a*b = 0, so minimizing
f to zero solves the complementarity problem.  The smoothed fb and min
kernels vanish there only to within eps/2: psi(0, 0) = eps/2 = 5e-11 on
a degenerate row, and psi(1, 0) = 1.25e-21.  The module exposes the
value, the gradient

    grad f(x) = g_a + M^T g_b,   (g_a)_i = d psi/d a,  (g_b)_i = d psi/d b,

and restricted Hessian blocks

    H[R, C] = Diag(h_aa)[R, C] + Diag(h_ab) M + M^T Diag(h_ab)
              + M^T Diag(h_bb) M   (restricted to rows R, columns C)

without ever forming the full n-by-n matrix.  Both read only the active
rows a = {i : g_b,i != 0} (resp. h_bb,i != 0) of M, so the gradient costs
O(|a| n) and a block O(|a| |R| |C|) after the gather of M[:, R] and
M[:, C].  For phi_r and psi2 both b-partials vanish wherever
x_i <= 0 < y_i, which holds on most rows of a sparse iterate.  The
smoothed fb and min partials vanish only where they round to zero: on
sdp_gaussian and zmatrix every row stays active.  When more than half
the rows are active, gathering them costs more than one product over all
n rows, and that one product is what runs.

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
_KERNELS picks it by kind.  phi_r's value is one formula for every r.
Its derivatives for r > 2 raise the product a_+ b_+ to a power before
multiplying by a_+ or b_+, so a finite partial stays finite where a_+
overflows and b_+ underflows (or the reverse).  For r = 2 they are the
quadratic closed forms, with the Hessian's kink selection _xi below: the
general second partials carry a_+^0 and a_-^0, which read 0^0 = 1 at
every point.

Powers with fractional exponents only ever see nonnegative bases (the
positive/negative parts), so no domain errors arise; 0^p = 0 for p > 0.
"""

from dataclasses import dataclass

import numpy as np

KINDS = ("phi_r", "fb", "min", "psi2")

# smoothing constant eps of the fb and min kernels
_EPS = 1e-10

# float64 entries of M gathered per block of the row-sparse gradient
# product: 512 KiB, so one block's copy stays in cache.  At n = 5000 with
# 1261 active rows, 13-row blocks took 4.1 ms, 32 rows 6.8 ms, 64 rows
# 8.9 ms and one matvec over all rows 21 ms.
_BLOCK_ENTRIES = 1 << 16


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
    if r == 2.0:
        if order == 1:
            return ap * bp * bp - am, ap * ap * bp - bm
        return _xi(a, b), 2.0 * ap * bp, _xi(b, a)
    if order == 1:
        prod = (ap * bp) ** (r - 1)
        return prod * bp - am ** (r - 1), prod * ap - bm ** (r - 1)
    prod = (ap * bp) ** (r - 2)
    return ((r - 1) * (prod * bp * bp + am ** (r - 2)),
            r * (ap * bp) ** (r - 1),
            (r - 1) * (prod * ap * ap + bm ** (r - 2)))


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


# Past half the rows, the one product is cheaper.  On one thread of a
# 2-CPU Xeon VM at n = 1000 (|T| = 10) and n = 5000 (|T| = 50), the
# row-skipping gradient breaks even at 45-60 % active rows and the Hessian
# block at 30-60 %; with every row active they take 1.6-1.9x and
# 1.4-1.6x as long.  In merit_comparison at n = 1000, fb and min keep
# every row active on sdp_gaussian and zmatrix and about 2 % on
# sdp_uniform; phi_r and psi2 keep at most 42 %.
def _active_rows(h):
    """Indices where h is nonzero, or None when they are more than half of
    h: past that, gathering the rows costs more than the dense product."""
    rows = np.flatnonzero(h)
    return None if 2 * rows.size > h.size else rows


def gradient_from_xy(model, M, x, y, scale=1.0):
    """Merit gradient from precomputed y.

    g_a + M[a]^T g_b[a] over the active rows a of g_b, read one block of
    _BLOCK_ENTRIES entries of M at a time, in O(|a| n); gathering every
    active row at once would copy up to half of M.  With more than half
    the rows active it is the single matvec M^T g_b.  The gradient is
    that of the LCP whose matrix is scale * M, with y = scale * M x + q'
    given: g_b carries the factor, so M is never scaled or copied.
    """
    da, db = _KERNELS[model.kind](x, y, model.r, 1)
    db *= scale
    rows = _active_rows(db)
    if rows is None:
        return da + M.T @ db
    step = max(1, _BLOCK_ENTRIES // M.shape[1])
    for lo in range(0, rows.size, step):
        blk = rows[lo:lo + step]
        da += M[blk].T @ db[blk]
    return da


def merit_value(model, inst, x):
    """Merit value f(x) as a float."""
    x = np.asarray(x, dtype=np.float64)
    return value_from_xy(model, x, inst.M @ x + inst.q)


def merit_gradient(model, inst, x):
    """Gradient of the merit at x (length-n vector)."""
    x = np.asarray(x, dtype=np.float64)
    return gradient_from_xy(model, inst.M, x, inst.M @ x + inst.q)


def merit_hessian(model, inst, x, rows, cols, y=None, scale=1.0,
                  gathered=None):
    """The |rows| x |cols| block of the merit Hessian at x: entry (i, j)
    is H[rows[i], cols[j]], so indices may come in any order and repeat.

    For r = 2 and psi2 the returned matrix is the selected element of the
    generalized Hessian described in the module docstring.  The columns
    M[:, rows] come from gathered, when given, or from one gather of
    inst.columns(rows); M[:, cols] is gathered only when cols differs from
    rows.  So a caller that already holds M[:, T] has the T x T block
    gather nothing and the T x J block gather only its |J| columns.  The
    M^T Diag(h_bb) M term reads only the rows with h_bb != 0, in
    O(|a| |rows| |cols|), or all n rows when more than half are active.
    The full matrix is never formed.  As in gradient_from_xy, scale turns
    M into scale * M: h_ab carries it once and h_bb twice, and y, which
    defaults to M x + q, must then be given.
    """
    x = np.asarray(x, dtype=np.float64)
    M = inst.M
    if y is None:
        y = M @ x + inst.q
    R = np.asarray(rows, dtype=np.intp)
    C = np.asarray(cols, dtype=np.intp)
    haa, hab, hbb = _KERNELS[model.kind](x, y, model.r, 2)
    hab *= scale
    hbb *= scale * scale
    MR = inst.columns(R) if gathered is None else gathered
    MC = MR if np.array_equal(R, C) else inst.columns(C)
    act = _active_rows(hbb)
    if act is None:
        act = slice(None)
    MRa = MR[act]
    MCa = MRa if MC is MR else MC[act]
    H = MRa.T @ (hbb[act, None] * MCa)
    H += hab[R][:, None] * MC[R]
    H += MR[C].T * hab[C][None, :]
    ri, ci = np.nonzero(R[:, None] == C)
    H[ri, ci] += haa[R[ri]]
    return H
