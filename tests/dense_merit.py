"""The merit gradient and Hessian blocks as one product over every row of
M, the reference the row-skipping forms in sparselcp.merit are tested
against."""

import numpy as np

from sparselcp.merit import _KERNELS


def dense_gradient(model, M, x, y, scale=1.0):
    """g_a + M^T g_b as one matvec."""
    da, db = _KERNELS[model.kind](x, y, model.r, 1)
    return da + M.T @ (scale * db)


def dense_hessian(model, inst, x, rows, cols, y=None, scale=1.0,
                  gathered=None):
    """H[rows, cols] with the M^T Diag(h_bb) M term over all n rows;
    gathered, when given, is M[:, rows]."""
    x = np.asarray(x, dtype=np.float64)
    if y is None:
        y = inst.M @ x + inst.q
    R = np.asarray(rows, dtype=np.intp)
    C = np.asarray(cols, dtype=np.intp)
    haa, hab, hbb = _KERNELS[model.kind](x, y, model.r, 2)
    hab = scale * hab
    hbb = scale * scale * hbb
    MR = inst.columns(R) if gathered is None else gathered
    MC = MR if np.array_equal(R, C) else inst.columns(C)
    H = MR.T @ (hbb[:, None] * MC)
    H += hab[R][:, None] * MC[R]
    H += MR[C].T * hab[C][None, :]
    ri, ci = np.nonzero(R[:, None] == C)
    H[ri, ci] += haa[R[ri]]
    return H
