"""Benchmark harness: repeatable experiment sweeps with CSV output.

Each experiment runs a grid of problem sizes; each grid cell runs a
fixed number of independent trials whose generator seed is
base_seed + trial_index, so any sweep can be reproduced or parallelized
without changing its results.  Reals are serialized with 17 significant
digits; with timing disabled the output is byte-for-byte reproducible.

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
from .merit import MeritModel, merit_gradient, merit_value
from .problems import GeneratorSpec, generate, is_success
from .tuning import TuningConfig, nhtpt_solve, support_count

logger = logging.getLogger("sparselcp.bench")

EXPERIMENTS = (
    "success_vs_r",
    "success_vs_s",
    "scaling",
    "merit_comparison",
    "s_selection",
)

MERIT_ORDER = ("phi_r", "fb", "min", "psi2")


@dataclass(frozen=True)
class GridPoint:
    """One cell of an experiment grid.

    s_star : planted sparsity; None = generator default (0.01 n)
    r : merit exponent for phi_r runs
    s : solver budget; None = s_star
    """

    n: int
    s_star: int = None
    r: float = 2.0
    s: int = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.r < 2:
            raise ValueError("r must be at least 2")


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment: what to run, over which grid, and where.

    example names the instance family; measure_time=False writes 0.0 in
    every time column so reruns are byte-identical; parallel fans trials
    out over processes without changing seeds or row order.
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
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        object.__setattr__(self, "grid", tuple(self.grid))
        if not self.grid:
            raise ValueError("grid must be non-empty")
        if any(not isinstance(g, GridPoint) for g in self.grid):
            raise ValueError("grid entries must be GridPoint")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def _gen_spec(spec, point, trial):
    return GeneratorSpec(spec.example, point.n, s_star=point.s_star,
                         seed=spec.base_seed + trial)


def _star_of(spec, point):
    """Planted sparsity of the cell: explicit, or the family default."""
    if point.s_star is not None:
        return point.s_star
    if spec.example == "zmatrix":
        return 1
    return GeneratorSpec(spec.example, point.n).resolved_s_star


def _budget(spec, point):
    if point.s is not None:
        return point.s
    return _star_of(spec, point)


def _map_trials(spec, fn, args_list):
    if spec.parallel and len(args_list) > 1:
        with ProcessPoolExecutor() as pool:
            return list(pool.map(fn, args_list))
    return [fn(a) for a in args_list]


def _success_trial(args):
    spec, point = args[0], args[1]
    gspec = _gen_spec(spec, point, args[2])
    inst = generate(gspec)
    if inst.ground_truth is None:
        raise ValueError("success sweeps need a ground-truth family")
    model = MeritModel.phi_r(point.r)
    report = nhtp.solve(inst, model, SolverConfig(s=_budget(spec, point)))
    return is_success(report.x, inst.ground_truth), report.wall_time


def _scaling_trial(args):
    spec, point = args[0], args[1]
    inst = generate(_gen_spec(spec, point, args[2]))
    model = MeritModel.phi_r(point.r)
    report = nhtp.solve(inst, model, SolverConfig(s=_budget(spec, point)))
    f2model = MeritModel.phi_r(2)
    if inst.ground_truth is not None:
        quality = float(np.linalg.norm(report.x - inst.ground_truth)
                        / np.linalg.norm(inst.ground_truth))
    else:
        quality = merit_value(f2model, inst, report.x)
    grad2 = float(np.linalg.norm(merit_gradient(f2model, inst, report.x)))
    return (quality, grad2, support_count(report.x), report.wall_time,
            report.iterations)


def _merit_trial(args):
    spec, point, trial = args[0], args[1], args[2]
    inst = generate(_gen_spec(spec, point, trial))
    f2model = MeritModel.phi_r(2)
    out = []
    for kind in MERIT_ORDER:
        model = (MeritModel.phi_r(point.r) if kind == "phi_r"
                 else MeritModel(kind))
        iterates = [] if trial == 0 else None
        callback = None
        if iterates is not None:
            callback = lambda k, x, f: iterates.append(x.copy())  # noqa: E731
        report = nhtp.solve(inst, model, SolverConfig(s=_budget(spec, point)),
                            callback=callback)
        f2 = merit_value(f2model, inst, report.x)
        trace = None
        if iterates is not None:
            trace = [merit_value(f2model, inst, x) for x in iterates]
        out.append((kind, f2, report.wall_time, report.iterations, trace))
    return out


def _selection_trial(args):
    spec, point, trial = args[0], args[1], args[2]
    inst = generate(_gen_spec(spec, point, trial))
    f2model = MeritModel.phi_r(2)
    rows = {}

    t0 = time.perf_counter()
    try:
        x_lemke, _ = lemke_solve(inst)
        t_lemke = time.perf_counter() - t0
        rows["Lemke"] = (merit_value(f2model, inst, x_lemke), t_lemke,
                         support_count(x_lemke), True)
    except (RayTermination, PivotLimit):
        x_lemke = None
        rows["Lemke"] = (None, None, None, False)

    if inst.ground_truth is not None:
        s_fixed = max(1, support_count(inst.ground_truth))
    elif x_lemke is not None:
        s_fixed = max(1, support_count(x_lemke))
    else:
        s_fixed = None
    if s_fixed is not None:
        report = nhtp.solve(inst, f2model, SolverConfig(s=s_fixed))
        rows["NHTP-fixed-s"] = (merit_value(f2model, inst, report.x),
                                report.wall_time, support_count(report.x),
                                True)
    else:
        rows["NHTP-fixed-s"] = (None, None, None, False)

    t0 = time.perf_counter()
    report, _rounds = nhtpt_solve(inst, f2model, SolverConfig(s=1),
                                  TuningConfig())
    t_tuned = time.perf_counter() - t0
    rows["NHTPT"] = (merit_value(f2model, inst, report.x), t_tuned,
                     support_count(report.x), True)
    return rows


def _mean(values):
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else float("nan")


def _time_col(spec, value):
    return value if spec.measure_time else 0.0


def run_success_sweep(spec):
    """Success-rate grid; returns CSV rows and writes output_path."""
    if spec.experiment not in ("success_vs_r", "success_vs_s"):
        raise ValueError("spec.experiment must be a success sweep")
    rows = [("n", "s_star", "r_or_s", "success_rate", "mean_time")]
    for point in spec.grid:
        args = [(spec, point, t) for t in range(spec.trials)]
        results = _map_trials(spec, _success_trial, args)
        rate = sum(ok for ok, _ in results) / spec.trials
        mean_t = _time_col(spec, _mean([t for _, t in results]))
        varying = point.r if spec.experiment == "success_vs_r" \
            else _budget(spec, point)
        rows.append((point.n, _star_of(spec, point), varying, rate, mean_t))
        logger.info("success cell n=%d s*=%s: rate=%.3f",
                    point.n, _star_of(spec, point), rate)
    _write_csv(spec.output_path, rows)
    return rows


def run_scaling_table(spec):
    """Accuracy/iteration table across the grid; one row per cell."""
    if spec.experiment != "scaling":
        raise ValueError("spec.experiment must be 'scaling'")
    rows = [("method", "n", "rel_error_or_f2", "grad_norm_f2",
             "support_size", "time", "iterations")]
    for point in spec.grid:
        args = [(spec, point, t) for t in range(spec.trials)]
        results = _map_trials(spec, _scaling_trial, args)
        rows.append((f"NHTP_{point.r:g}", point.n,
                     _mean([r[0] for r in results]),
                     _mean([r[1] for r in results]),
                     _mean([r[2] for r in results]),
                     _time_col(spec, _mean([r[3] for r in results])),
                     _mean([r[4] for r in results])))
    _write_csv(spec.output_path, rows)
    return rows


def run_merit_comparison(spec):
    """Race the four merit functions; emits trace files for trial 0."""
    if spec.experiment != "merit_comparison":
        raise ValueError("spec.experiment must be 'merit_comparison'")
    rows = [("merit", "n", "f2_of_x", "time", "iterations")]
    out = Path(spec.output_path)
    for point in spec.grid:
        args = [(spec, point, t) for t in range(spec.trials)]
        results = _map_trials(spec, _merit_trial, args)
        for idx, kind in enumerate(MERIT_ORDER):
            per = [r[idx] for r in results]
            rows.append((kind, point.n,
                         _mean([p[1] for p in per]),
                         _time_col(spec, _mean([p[2] for p in per])),
                         _mean([p[3] for p in per])))
            trace = per[0][4]
            if trace is not None:
                tpath = out.with_name(
                    f"{out.stem}_trace_{kind}_n{point.n}.txt")
                lines = [f"{k} {_fmt(v)}" for k, v in enumerate(trace)]
                tpath.write_text("\n".join(lines) + "\n")
    _write_csv(spec.output_path, rows)
    return rows


def run_s_selection(spec):
    """Compare Lemke, fixed-budget pursuit and budget tuning."""
    if spec.experiment != "s_selection":
        raise ValueError("spec.experiment must be 's_selection'")
    rows = [("method", "n", "f2", "time", "support_size", "completed")]
    for point in spec.grid:
        args = [(spec, point, t) for t in range(spec.trials)]
        results = _map_trials(spec, _selection_trial, args)
        for method in ("Lemke", "NHTP-fixed-s", "NHTPT"):
            per = [r[method] for r in results]
            done = [p for p in per if p[3]]
            rows.append((method, point.n,
                         _mean([p[0] for p in done]),
                         _time_col(spec, _mean([p[1] for p in done])),
                         _mean([p[2] for p in done]),
                         len(done) / spec.trials))
    _write_csv(spec.output_path, rows)
    return rows


def run_experiment(spec):
    """Dispatch on spec.experiment; returns the CSV rows written."""
    runner = {
        "success_vs_r": run_success_sweep,
        "success_vs_s": run_success_sweep,
        "scaling": run_scaling_table,
        "merit_comparison": run_merit_comparison,
        "s_selection": run_s_selection,
    }[spec.experiment]
    return runner(spec)


def _cell(v):
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _write_csv(path, rows):
    text = "\n".join(",".join(_cell(v) for v in row) for row in rows) + "\n"
    Path(path).write_text(text)
