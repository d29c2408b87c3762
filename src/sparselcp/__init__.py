"""Sparse linear complementarity solvers and benchmark tooling.

Public surface: problem/config types and file I/O (core), merit functions
(merit), the Newton hard-thresholding pursuit solver (nhtp), the Lemke
pivoting baseline (lemke), sparsity-budget tuning (tuning), reproducible
instance generators (problems), and the experiment harness (bench) with
its command line in cli.
"""

from .bench import ExperimentSpec, GridPoint, run_experiment
from .core import (LcpInstance, SingularError, SolveReport, SolverConfig,
                   Termination, dense_solve, load_instance, save_instance,
                   top_s_by_magnitude)
from .lemke import PivotLimit, RayTermination, Tableau, lemke_solve
from .merit import MeritModel, merit_gradient, merit_hessian, merit_value
from .nhtp import (IterateState, fallback_direction, line_search,
                   newton_direction, residual, select_support, solve)
from .problems import (CombinatorialLimit, GeneratorSpec, Rng, generate,
                       is_ps_matrix, is_psd, is_success, is_z_matrix)
from .tuning import TuningConfig, lemke_seeded_s, nhtpt_solve, support_count

__all__ = [
    "ExperimentSpec", "GridPoint", "run_experiment",
    "LcpInstance", "SingularError", "SolveReport", "SolverConfig",
    "Termination", "dense_solve", "load_instance", "save_instance",
    "top_s_by_magnitude",
    "PivotLimit", "RayTermination", "Tableau", "lemke_solve",
    "MeritModel", "merit_gradient", "merit_hessian", "merit_value",
    "IterateState", "fallback_direction", "line_search",
    "newton_direction", "residual", "select_support", "solve",
    "CombinatorialLimit", "GeneratorSpec", "Rng", "generate",
    "is_ps_matrix", "is_psd", "is_success", "is_z_matrix",
    "TuningConfig", "lemke_seeded_s", "nhtpt_solve", "support_count",
]
