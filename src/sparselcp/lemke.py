"""Lemke complementary pivoting for dense linear complementarity problems.

Solves: find x >= 0 with y = M x + q >= 0 and <x, y> = 0, by the classic
covering-vector scheme.  An artificial column -e (e the all-ones vector)
is driven into the basis to restore feasibility, then complementary
pivoting alternates until the artificial variable leaves (solution found)
or no blocking variable exists (ray termination, no solution along the
path).

Minimum-ratio ties are broken by the lowest row index; there is no
lexicographic anti-cycling, so degenerate cycling on adversarial inputs
surfaces as PivotLimit.  Adequate for randomly generated instances.
"""

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger("sparselcp.lemke")


class RayTermination(Exception):
    """The driving column had no positive entry: a secondary ray."""


class PivotLimit(Exception):
    """Pivot budget exhausted (possible degenerate cycling)."""


@dataclass
class Tableau:
    """Dense Lemke tableau.

    Column ids: 0..n-1 the slacks w_i, n..2n-1 the variables z_i, 2n the
    artificial variable; column 2n+1 is the constant column.  basis[i]
    names the variable currently basic in row i.
    """

    basis: list
    body: np.ndarray

    @staticmethod
    def initial(M, q):
        n = q.shape[0]
        body = np.empty((n, 2 * n + 2))
        body[:, :n] = np.eye(n)
        body[:, n:2 * n] = -M
        body[:, 2 * n] = -1.0
        body[:, 2 * n + 1] = q
        return Tableau(basis=list(range(n)), body=body)

    @property
    def n(self):
        return len(self.basis)

    def pivot(self, row, col):
        """Make column col basic in row, returning the leaving variable."""
        body = self.body
        scaled = body[row] / body[row, col]
        body -= np.outer(body[:, col], scaled)
        body[row] = scaled
        leaving = self.basis[row]
        self.basis[row] = col
        if __debug__:
            self._check_complementary()
        return leaving

    def _check_complementary(self):
        n = self.n
        present = set(self.basis)
        for i in range(n):
            assert not (i in present and i + n in present), \
                "both members of a complementary pair are basic"

    def solution(self):
        n = self.n
        x = np.zeros(n)
        rhs = self.body[:, -1]
        for i, var in enumerate(self.basis):
            if n <= var < 2 * n:
                x[var - n] = rhs[i]
        return x


def _complement(var, n):
    return var + n if var < n else var - n


def lemke_solve(inst, pivot_tol=1e-9, max_pivots=None):
    """Solve the LCP (M, q); returns (x, pivots).

    pivot_tol guards ratio-test denominators; max_pivots defaults to 10n.
    Raises RayTermination when the path escapes to infinity and PivotLimit
    when the pivot budget runs out.
    """
    n = inst.n
    if max_pivots is None:
        max_pivots = 10 * n
    q = inst.q
    if np.all(q >= 0):
        return np.zeros(n), 0
    tab = Tableau.initial(inst.M, q)
    aux = 2 * n
    # drive the artificial variable in against the worst violation
    row = int(np.argmin(q))
    leaving = tab.pivot(row, aux)
    pivots = 1
    driving = _complement(leaving, n)
    logger.info("lemke start: n=%d, first leaving w_%d", n, leaving)
    while True:
        if pivots >= max_pivots:
            raise PivotLimit(f"no termination within {max_pivots} pivots")
        col = tab.body[:, driving]
        rhs = tab.body[:, -1]
        elig = col > pivot_tol
        if not np.any(elig):
            raise RayTermination("driving column has no blocking variable")
        ratios = np.full(n, np.inf)
        np.divide(rhs, col, out=ratios, where=elig)
        row = int(np.argmin(ratios))  # first minimum = lowest row index
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
