"""Sparsity-level selection for the pursuit solver.

Two strategies: geometric growth (start tiny, multiply the budget each
round until the merit value certifies a solution) and Lemke seeding (run
the pivoting baseline once and reuse its support size as the budget).
"""

import dataclasses
import logging
import math

import numpy as np

from . import nhtp
from .core import Termination
from .lemke import lemke_solve

logger = logging.getLogger("sparselcp.tuning")


@dataclasses.dataclass(frozen=True)
class TuningConfig:
    """Growth-schedule parameters.

    s0 : starting budget; None picks ceil(n / 5000), minimum 1
    rho : finite growth factor > 1; None picks max(2, log10 n)
    eps : accept a round once the merit drops below this (finite, > 0)
    max_rounds : hard cap on solver invocations
    """

    s0: int = None
    rho: float = None
    eps: float = 1e-8
    max_rounds: int = 30

    def __post_init__(self):
        if self.s0 is not None and self.s0 < 1:
            raise ValueError("s0 must be at least 1")
        if self.rho is not None and not 1 < self.rho < math.inf:
            raise ValueError("rho must be finite and exceed 1")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")

    def s0_for(self, n):
        if self.s0 is not None:
            return self.s0
        return max(1, math.ceil(n / 5000))

    def rho_for(self, n):
        if self.rho is not None:
            return float(self.rho)
        return max(2.0, math.log10(n))


def nhtpt_solve(inst, model, config, tuning=None):
    """Run the pursuit with a geometrically growing sparsity budget.

    Each round solves from x0 = 0 with the current budget s, accepts as
    soon as the merit value falls below tuning.eps, and otherwise grows
    s to ceil(rho * s), capped at n.  Returns (report, rounds) where
    rounds counts solver invocations; if no round is accepted the
    best-objective report is returned flagged ITERATION_CAP.
    """
    if tuning is None:
        tuning = TuningConfig()
    n = inst.n
    s = min(tuning.s0_for(n), n)
    rho = tuning.rho_for(n)
    best = None
    rounds = 0
    while rounds < tuning.max_rounds:
        report = nhtp.solve(inst, model, dataclasses.replace(config, s=s))
        rounds += 1
        logger.info("tuning round %d: s=%d f=%.6e", rounds, s,
                    report.objective)
        if best is None or report.objective < best.objective:
            best = report
        if report.objective < tuning.eps:
            return report, rounds
        if s >= n:
            break  # budget saturated; further rounds would repeat
        s = min(math.ceil(rho * s), n)
    best.termination = Termination.ITERATION_CAP
    return best, rounds


def support_count(x):
    """Nonzeros of x above the threshold 1e-9 * max(1, ||x||_inf)."""
    thresh = 1e-9 * max(1.0, float(np.abs(x).max(initial=0.0)))
    return int(np.count_nonzero(np.abs(x) > thresh))


def lemke_seeded_s(inst):
    """Support size of the Lemke solution, as a budget suggestion.

    Counts entries above 1e-9 * max(1, ||x||_inf).  May return 0 (for
    q >= 0); clamp to 1 before handing to the pursuit solver.  Ray
    termination and pivot-limit errors propagate.
    """
    return support_count(lemke_solve(inst)[0])
