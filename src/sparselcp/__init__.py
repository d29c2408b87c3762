"""Sparse linear complementarity solvers and benchmark tooling.

Public surface: problem/config types and file I/O (core), merit functions
(merit), the Newton hard-thresholding pursuit solver (nhtp), the Lemke
pivoting baseline (lemke), sparsity-budget tuning (tuning), reproducible
instance generators (problems), and the experiment harness (bench) with
its command line in cli.  Solver internals stay importable from their
own modules.
"""

from .bench import ExperimentSpec, GridPoint, run_experiment
from .core import (LcpInstance, SolveReport, SolverConfig, Termination,
                   load_instance, save_instance)
from .lemke import PivotLimit, RayTermination, lemke_solve
from .merit import MeritModel, merit_gradient, merit_hessian, merit_value
from .nhtp import solve
from .problems import GeneratorSpec, generate, is_success
from .tuning import TuningConfig, lemke_seeded_s, nhtpt_solve, support_count

__all__ = [
    "ExperimentSpec", "GridPoint", "run_experiment",
    "LcpInstance", "SolveReport", "SolverConfig", "Termination",
    "load_instance", "save_instance",
    "PivotLimit", "RayTermination", "lemke_solve",
    "MeritModel", "merit_gradient", "merit_hessian", "merit_value",
    "solve",
    "GeneratorSpec", "generate", "is_success",
    "TuningConfig", "lemke_seeded_s", "nhtpt_solve", "support_count",
]
