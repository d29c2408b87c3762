"""Lemke complementary pivoting for dense linear complementarity problems.

Solves: find x >= 0 with y = M x + q >= 0 and <x, y> = 0, by the classic
covering-vector scheme.  An artificial column -e (e the all-ones vector)
is driven into the basis to restore feasibility, then complementary
pivoting alternates until the artificial variable leaves (solution found)
or no blocking variable exists (ray termination, no solution along the
path).

The leaving row follows the lexicographic minimum-ratio rule (Cottle,
Pang & Stone, The Linear Complementarity Problem, 1992): rows whose ratio
lies within a tolerance of the minimum are tied, and the tie goes to the
lexicographically smallest row of B^-1 (the slack columns of the
tableau) divided by the driving column.  Round-off in the update therefore
cannot pick the path through a degenerate basis, and in exact arithmetic
the rule cannot cycle.

The tableau stores only the n+1 nonbasic columns and the constant column:
a basic column is the unit vector of its row and is not kept.  It is
built in place in Fortran order, and each pivot is one BLAS rank-1 update
(dger) of that condensed body, after which the leaving variable's column
is written into the entering variable's slot.  dger updates each column
on its own, so every stored column and every pivot decision is bit for
bit what the full n x (2n+2) tableau gives, in half its memory.
"""

import logging
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

from .core import support_mask

logger = logging.getLogger("sparselcp.lemke")

# ratio-test floor on the driving column, and relative width of a tie
_PIVOT_TOL = 1e-9


class RayTermination(Exception):
    """The driving column had no positive entry: a secondary ray."""


class PivotLimit(Exception):
    """Pivot budget exhausted (possible degenerate cycling)."""


@dataclass
class Tableau:
    """Dense Lemke tableau, condensed to its nonbasic columns.

    Variable ids: 0..n-1 the slacks w_i, n..2n-1 the variables z_i, 2n
    the artificial variable.  basis and nonbasic are np.intp arrays:
    basis[i] names the variable basic in row i, and nonbasic[j] the
    variable whose column is body[:, j], for j < n+1.  body is n x (n+2);
    its last column is the constant column.  A basic variable's column is
    the unit vector of its row and is not stored.

    initial() builds the body in place in Fortran order; pivot() keeps
    what dger returns: that body updated in place, or an updated copy of
    a body in any other layout.  pivot() keeps no check; solution()
    asserts once per run that the basis is complementary.
    """

    basis: np.ndarray
    nonbasic: np.ndarray
    body: np.ndarray

    @staticmethod
    def initial(M, q):
        n = q.shape[0]
        body = np.empty((n, n + 2), order="F")
        np.negative(M, out=body[:, :n])
        body[:, n] = -1.0
        body[:, n + 1] = q
        return Tableau(basis=np.arange(n), nonbasic=np.arange(n, 2 * n + 1),
                       body=body)

    @property
    def n(self):
        return len(self.basis)

    def slot(self, var):
        """The body column that holds nonbasic variable var."""
        return int(np.flatnonzero(self.nonbasic == var)[0])

    def pivot(self, row, var):
        """Make variable var basic in row, returning the leaving variable.

        The rank-1 update leaves var's column as the unit vector of row,
        and the leaving variable's unit column becomes (-s) d with s at
        row, s = 1 / d[row]: what dger makes of that unit column, up to
        the sign of zeros.  It is written into var's slot.
        """
        j = self.slot(var)
        body = self.body
        d = body[:, j].copy()
        scaled = body[row] / d[row]
        body = self.body = dger(-1.0, d, scaled, a=body, overwrite_a=1)
        body[row] = scaled
        s = 1.0 / d[row]
        np.multiply(d, -s, out=body[:, j])
        body[row, j] = s
        leaving = int(self.basis[row])
        self.basis[row] = var
        self.nonbasic[j] = leaving
        return leaving

    def solution(self):
        """x read off the basis, once no pair w_i, z_i is basic together;
        values that support_mask reads as round-off come out exactly 0."""
        n, basis = self.n, self.basis
        basic = np.zeros(2 * n + 1, dtype=bool)
        basic[basis] = True
        assert not np.any(basic[:n] & basic[n:2 * n]), \
            "both members of a complementary pair are basic"
        z = (basis >= n) & (basis < 2 * n)
        x = np.zeros(n)
        x[basis[z] - n] = self.body[z, -1]
        x[~support_mask(x)] = 0.0
        return x


def _complement(var, n):
    return var + n if var < n else var - n


def _lexmin_row(tab, d, tied):
    """The tied row whose row of B^-1 (the slack columns), divided by
    the driving column d, is lexicographically smallest.

    Slack columns are scanned in index order.  A basic slack column is
    the unit vector of its row, so its quotient is 1/d > 0 in that row
    and exactly 0 in every other: it only drops its own row from the tie
    and needs no division.  Only the nonbasic slack columns are divided;
    nonbasic names their slots.
    """
    n, body, nonbasic = tab.n, tab.body, tab.nonbasic
    # the slack basic in each tied row; n for a row holding z or the
    # artificial, which no basic slack column drops
    key = np.minimum(tab.basis[tied], n)
    # nonbasic slacks in index order, then a z or the artificial: of the
    # n+1 nonbasic variables at most n are slacks
    for slot in np.argsort(nonbasic):
        j = min(nonbasic[slot], n)  # n: the end of the slack block
        early = key < j  # dropped, in slack order, by columns before j
        if early.all():
            return tied[np.argmax(key)]  # the last one is kept
        tied, key = tied[~early], key[~early]
        if tied.size == 1 or j == n:
            break
        v = body[tied, slot] / d[tied]
        keep = v == v.min()
        tied, key = tied[keep], key[keep]
    return tied[0]


def lemke_solve(inst, max_pivots=None):
    """Solve the LCP (M, q); returns (x, pivots).

    Only driving-column entries above 1e-9 enter the ratio test, and rows
    whose ratio is within 1e-9 * max(1, |r_min|) of the minimum ratio
    r_min are tied and go to the lexicographic rule.  max_pivots defaults
    to 10n.  Raises ValueError for max_pivots < 1, RayTermination when
    the path escapes to infinity and PivotLimit when the pivot budget
    runs out.
    """
    n = inst.n
    if max_pivots is None:
        max_pivots = 10 * n
    if operator.index(max_pivots) < 1:
        raise ValueError("max_pivots must be at least 1")
    q = inst.q
    if np.all(q >= 0):
        return np.zeros(n), 0
    tab = Tableau.initial(inst.M, q)
    aux = 2 * n
    # drive the artificial variable in against the worst violation; of
    # equal violations the last keeps every row lexicographically positive
    row = int(np.flatnonzero(q == q.min())[-1])
    leaving = tab.pivot(row, aux)
    pivots = 1
    driving = _complement(leaving, n)
    logger.info("lemke start: n=%d, first leaving w_%d", n, leaving)
    while True:
        if pivots >= max_pivots:
            raise PivotLimit(f"no termination within {max_pivots} pivots")
        col = tab.body[:, tab.slot(driving)]
        elig = col > _PIVOT_TOL
        if not np.any(elig):
            raise RayTermination("driving column has no blocking variable")
        ratios = np.full(n, np.inf)
        np.divide(tab.body[:, -1], col, out=ratios, where=elig)
        rmin = ratios.min()
        width = _PIVOT_TOL * max(1.0, abs(rmin))
        tied = np.flatnonzero(ratios <= rmin + width)
        row = int(_lexmin_row(tab, col, tied))
        leaving = tab.pivot(row, driving)
        pivots += 1
        logger.debug("pivot %d: in=%d out=%d row=%d", pivots, driving,
                     leaving, row)
        if leaving == aux:
            break
        driving = _complement(leaving, n)
    x = tab.solution()
    logger.info("lemke done: %d pivots, ||x||_0=%d", pivots,
                int(np.count_nonzero(x)))
    return x, pivots
