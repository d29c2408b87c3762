"""Matrix-class predicates the generator tests check instances against."""

import itertools

import numpy as np


class CombinatorialLimit(Exception):
    """Requested enumeration is too large to brute-force."""


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
