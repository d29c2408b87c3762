"""Benchmark harness: repeatable experiment sweeps with CSV output.

Each experiment runs a grid of problem sizes; each grid cell runs a
fixed number of independent trials whose generator seed is
base_seed + trial_index, so any sweep can be reproduced or parallelized
without changing its results.  Reals are serialized with 17 significant
digits; with timing disabled the output is byte-for-byte reproducible.

Every experiment is one entry of a single table: a CSV header, a trial
run on each generated instance, and a function turning one cell's trial
results into its CSV rows; run_experiment is the one grid loop over it.
GridPoint and ExperimentSpec check the grid when built, so a bad cell
fails before any trial runs.

Experiments
-----------
success_vs_r / success_vs_s
    recovery rate of the pursuit solver while r (or the budget s) varies
scaling
    accuracy / gradient norm / support size / iterations across n
merit_comparison
    the four merit functions raced on identical instances, with
    per-iteration f_2 trace files for the first trial of each cell
s_selection
    Lemke pivoting vs. fixed-budget pursuit vs. geometric budget tuning
"""

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nhtp
from .core import SolverConfig, _fmt
from .lemke import PivotLimit, RayTermination, lemke_solve
from .merit import KINDS, MeritModel, merit_gradient, merit_value
from .problems import PLANTED, GeneratorSpec, generate, is_success
from .tuning import TuningConfig, nhtpt_solve, support_count

logger = logging.getLogger("sparselcp.bench")

SELECTION_METHODS = ("Lemke", "NHTP-fixed-s", "NHTPT")
_F2 = MeritModel.phi_r(2)  # the quadratic merit every experiment reports


@dataclass(frozen=True)
class GridPoint:
    """One cell of an experiment grid.

    s_star : planted sparsity in [1, n]; None = the family's default
        (GeneratorSpec.resolved_s_star); an explicit value must be what
        the family plants, which ExperimentSpec checks
    r : merit exponent for phi_r runs, finite and at least 2
    s : solver budget in [1, n]; None = s_star
    """

    n: int
    s_star: int = None
    r: float = 2.0
    s: int = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        MeritModel.phi_r(self.r)  # raises on an r phi_r does not take
        for name in ("s_star", "s"):
            value = getattr(self, name)
            if value is not None and not 1 <= value <= self.n:
                raise ValueError(f"{name} must lie in [1, n]")


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment: what to run, over which grid, and where.

    example names the instance family; measure_time=False writes 0.0 in
    every time column so reruns are byte-identical; parallel fans every
    (cell, trial) pair out over one process pool without changing seeds
    or row order.
    """

    experiment: str
    grid: tuple
    output_path: str
    example: str = "sdp_gaussian"
    trials: int = 50
    base_seed: int = 0
    measure_time: bool = True
    parallel: bool = False

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        object.__setattr__(self, "grid", tuple(self.grid))
        if not self.grid:
            raise ValueError("grid must be non-empty")
        if any(not isinstance(g, GridPoint) for g in self.grid):
            raise ValueError("grid entries must be GridPoint")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        out_dir = Path(self.output_path).parent
        if not out_dir.is_dir():
            raise ValueError(f"output directory {out_dir} does not exist")
        _, trial, cell_rows = _EXPERIMENTS[self.experiment]
        if trial is _success_trial and self.example not in PLANTED:
            raise ValueError("success sweeps need a ground-truth family")
        for g in self.grid:
            star = _star_of(self, g)
            if g.s_star not in (None, star):
                raise ValueError(f"{self.example} plants s_star={star}, "
                                 f"not {g.s_star}")
        ns = {g.n for g in self.grid}
        if cell_rows is _merit_rows and len(ns) < len(self.grid):
            raise ValueError("merit_comparison trace files need distinct n")


def _star_of(spec, point):
    """Planted sparsity of the cell, as its family resolves it."""
    return GeneratorSpec(spec.example, point.n,
                         s_star=point.s_star).resolved_s_star


def _budget(spec, point):
    return _star_of(spec, point) if point.s is None else point.s


def _mean(values):
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else float("nan")


def _time_col(spec, value):
    return value if spec.measure_time else 0.0


def _success_trial(spec, point, trial, inst):
    model = MeritModel.phi_r(point.r)
    report = nhtp.solve(inst, model, SolverConfig(s=_budget(spec, point)))
    return is_success(report.x, inst.ground_truth), report.wall_time


def _success_rows(spec, point, results):
    ok, seconds = zip(*results)
    rate = sum(ok) / spec.trials
    varying = point.r if spec.experiment == "success_vs_r" \
        else _budget(spec, point)
    star = _star_of(spec, point)
    logger.info("success cell n=%d s*=%s: rate=%.3f", point.n, star, rate)
    return [(point.n, star, varying, rate, _time_col(spec, _mean(seconds)))]


def _scaling_trial(spec, point, trial, inst):
    model = MeritModel.phi_r(point.r)
    report = nhtp.solve(inst, model, SolverConfig(s=_budget(spec, point)))
    gt = inst.ground_truth
    if gt is not None:
        quality = float(np.linalg.norm(report.x - gt) / np.linalg.norm(gt))
    else:
        quality = merit_value(_F2, inst, report.x)
    grad2 = float(np.linalg.norm(merit_gradient(_F2, inst, report.x)))
    return (quality, grad2, support_count(report.x), report.wall_time,
            report.iterations)


def _scaling_rows(spec, point, results):
    quality, grad2, support, seconds, iters = map(_mean, zip(*results))
    return [(f"NHTP_{point.r:g}", point.n, quality, grad2, support,
             _time_col(spec, seconds), iters)]


def _merit_trial(spec, point, trial, inst):
    """Per merit: (f_2(x), time, iterations, f_2 trace; [] after trial 0)."""
    out = []
    for kind in KINDS:
        model = MeritModel(kind, r=float(point.r))  # r only affects phi_r
        iterates = []
        callback = None if trial else lambda k, x, f: iterates.append(x.copy())
        report = nhtp.solve(inst, model, SolverConfig(s=_budget(spec, point)),
                            callback=callback)
        out.append((merit_value(_F2, inst, report.x), report.wall_time,
                    report.iterations,
                    [merit_value(_F2, inst, x) for x in iterates]))
    return out


def _merit_rows(spec, point, results):
    """One row per merit; writes the trial-0 trace files, named by n."""
    out = Path(spec.output_path)
    rows = []
    for kind, per in zip(KINDS, zip(*results)):
        f2, seconds, iters, traces = zip(*per)
        rows.append((kind, point.n, _mean(f2), _time_col(spec, _mean(seconds)),
                     _mean(iters)))
        lines = [f"{k} {_fmt(v)}" for k, v in enumerate(traces[0])]
        out.with_name(f"{out.stem}_trace_{kind}_n{point.n}.txt").write_text(
            "\n".join(lines) + "\n")
    return rows


def _selection_trial(spec, point, trial, inst):
    """Per method: (f_2, time, support size, True), or all None and False."""
    def completed(x, seconds):
        return merit_value(_F2, inst, x), seconds, support_count(x), True

    lemke = fixed = (None, None, None, False)
    t0 = time.perf_counter()
    try:
        x_lemke, _ = lemke_solve(inst)
        lemke = completed(x_lemke, time.perf_counter() - t0)
    except (RayTermination, PivotLimit):
        x_lemke = None
    # the fixed budget is the planted support size, else Lemke's
    x_ref = inst.ground_truth if inst.ground_truth is not None else x_lemke
    if x_ref is not None:
        s_fixed = max(1, support_count(x_ref))
        report = nhtp.solve(inst, _F2, SolverConfig(s=s_fixed))
        fixed = completed(report.x, report.wall_time)
    t0 = time.perf_counter()
    report, _rounds = nhtpt_solve(inst, _F2, SolverConfig(s=1),
                                  TuningConfig())
    return lemke, fixed, completed(report.x, time.perf_counter() - t0)


def _selection_rows(spec, point, results):
    rows = []
    for method, per in zip(SELECTION_METHODS, zip(*results)):
        f2, seconds, support, ok = zip(*per)
        rows.append((method, point.n, _mean(f2),
                     _time_col(spec, _mean(seconds)), _mean(support),
                     sum(ok) / spec.trials))
    return rows


# name -> (CSV header, trial(spec, point, trial, inst), cell_rows)
_SUCCESS = (("n", "s_star", "r_or_s", "success_rate", "mean_time"),
            _success_trial, _success_rows)
_EXPERIMENTS = {
    "success_vs_r": _SUCCESS,
    "success_vs_s": _SUCCESS,
    "scaling": (("method", "n", "rel_error_or_f2", "grad_norm_f2",
                 "support_size", "time", "iterations"),
                _scaling_trial, _scaling_rows),
    "merit_comparison": (("merit", "n", "f2_of_x", "time", "iterations"),
                         _merit_trial, _merit_rows),
    "s_selection": (("method", "n", "f2", "time", "support_size",
                     "completed"),
                    _selection_trial, _selection_rows),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _run_trial(args):
    """Generate one trial's instance and run the experiment's trial on it;
    module-level so that worker processes can unpickle it."""
    spec, point, trial = args
    inst = generate(GeneratorSpec(spec.example, point.n, s_star=point.s_star,
                                  seed=spec.base_seed + trial))
    return _EXPERIMENTS[spec.experiment][1](spec, point, trial, inst)


def run_experiment(spec):
    """Run every cell of spec.grid; writes and returns the CSV rows."""
    header, _, cell_rows = _EXPERIMENTS[spec.experiment]
    tasks = [(spec, point, t) for point in spec.grid
             for t in range(spec.trials)]
    if spec.parallel and len(tasks) > 1:
        with ProcessPoolExecutor() as pool:
            results = list(pool.map(_run_trial, tasks))
    else:
        results = [_run_trial(t) for t in tasks]
    rows = [header]
    for i, point in enumerate(spec.grid):
        cell = results[i * spec.trials:(i + 1) * spec.trials]
        rows.extend(cell_rows(spec, point, cell))
    _write_csv(spec.output_path, rows)
    return rows


def _write_csv(path, rows):
    text = "\n".join(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) for row in rows)
    Path(path).write_text(text + "\n")
