"""Command-line interface: generate, solve, tune, pivot, and benchmark.

Subcommands
-----------
gen     write a benchmark-family instance to a text file
solve   run the Newton pursuit solver on an instance file
tune    run the geometric sparsity-budget search
lemke   run the complementary pivoting baseline
bench   run an experiment sweep and write CSV output

solve, tune and lemke print the point they found through one printer.
It drops the entries core.support_mask reads as round-off, forms
y = M x + q at the printed x, and prints its certificate:
max(||x_-||, ||y_-||, ||x * y||) / max(1, ||q||) in inf-norms
(core.certificate), its nonzeros and, when the file holds x*,
rel_error = ||x - x*|| / ||x*||.  The certificate needs no ground
truth; a solve ends `certified` when its own certificate is at most
1e-12.  The printed objective and residual, like --eta, are in the
equilibrated LCP (M / m_scale, q / q_scale) that nhtp.solve runs on;
x is in the units of the file.

Exit codes: 0 on success, 2 when the solver or pivoting run gives up
(iteration cap, failed line search, ray termination, pivot limit), 1
on usage and input errors, which main prints.  Every setting, and
gen's --out directory, is checked before any file is read or instance
drawn.  The environment variable SPARSE_LCP_LOG selects logging: "off"
(default), "info", or "trace" (per-iteration detail), in any case; any
other value is a usage error.
"""

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import nhtp
from .bench import (EXPERIMENTS, ExperimentSpec, GridPoint, _check_out_dir,
                    run_experiment)
from .core import (SolverConfig, Termination, _fmt, certificate,
                   load_instance, save_instance, support_mask)
from .lemke import PivotLimit, RayTermination, lemke_solve
from .merit import KINDS, MeritModel, merit_value
from .problems import EXAMPLES, GeneratorSpec, generate, relative_error
from .tuning import TuningConfig, nhtpt_solve, support_count


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this project reserves 2 for
    solver failure states, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_LOG_LEVELS = {"off": None, "info": logging.INFO, "trace": logging.DEBUG}


def _setup_logging():
    value = os.environ.get("SPARSE_LCP_LOG", "off")
    if value.lower() not in _LOG_LEVELS:
        raise ValueError(f"SPARSE_LCP_LOG must be off, info or trace, "
                         f"not {value!r}")
    level = _LOG_LEVELS[value.lower()]
    if level is not None:
        logging.basicConfig(stream=sys.stderr, level=level,
                            format="%(name)s %(levelname)s %(message)s")


def _given(args, *names):
    """The named flags the user set, as keyword arguments: a flag left
    out takes the library's default."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _merit(args):
    """The --merit model; --r is a usage error where it does nothing."""
    if args.r is not None and args.merit != "phi_r":
        raise ValueError(f"--r applies to --merit phi_r, not {args.merit}")
    return MeritModel(args.merit, **_given(args, "r"))


_SOLVER_FLAGS = ("eta",)
_TUNING_FLAGS = ("s0", "rho", "eps")


def _add_solver_flags(p, with_s=True):
    p.add_argument("--instance", required=True, help="instance file path")
    p.add_argument("--merit", choices=KINDS, default="phi_r")
    p.add_argument("--r", type=float,
                   help="exponent for the phi_r merit (default 2)")
    if with_s:
        p.add_argument("--s", type=int, help="sparsity budget")
    p.add_argument("--eta", type=float,
                   help="threshold step, in the solver's equilibrated "
                        "units (default 2)")


def _print_point(inst, x):
    """Print x less its round-off entries, with the certificate of that
    point, its nonzeros and, when the instance holds x*, rel_error."""
    x = np.where(support_mask(x), x, 0.0)
    print(f"certificate: {certificate(x, inst.M @ x + inst.q, inst.q):.6e}")
    nz = np.flatnonzero(x)
    print(f"nonzeros:    {nz.size}")
    for i in nz:
        print(f"x[{i + 1}] = {_fmt(x[i])}")
    if inst.ground_truth is not None:
        err = relative_error(x, inst.ground_truth)
        print(f"rel_error:   {err:.6e}")


def _print_report(inst, report):
    """Print a solve report and return its exit code."""
    print(f"termination: {report.termination.value}")
    print(f"objective:   {report.objective:.6e}")
    print(f"residual:    {report.residual:.6e}")
    print(f"iterations:  {report.iterations}")
    _print_point(inst, report.x)
    gave_up = report.termination in (Termination.ITERATION_CAP,
                                     Termination.LINE_SEARCH_FAILED)
    return 2 if gave_up else 0


def _cmd_gen(args):
    spec = GeneratorSpec(args.example, args.n,
                         **_given(args, "s_star", "m", "seed"))
    _check_out_dir(args.out)
    inst = generate(spec)
    save_instance(inst, args.out)
    print(f"wrote {args.out} (n={inst.n}, example={args.example})")
    return 0


def _cmd_solve(args):
    model = _merit(args)
    if args.s is None and not args.warm_start_lemke:
        raise ValueError("--s is required unless --warm-start-lemke sets it")
    config = SolverConfig(s=1 if args.s is None else args.s,
                          **_given(args, *_SOLVER_FLAGS))
    x0 = None
    if args.x0 is not None:
        with open(args.x0) as fh:
            lines = fh.readlines()
        # loadtxt only warns on a file without values
        if not any(ln.partition("#")[0].strip() for ln in lines):
            raise ValueError(f"no values in --x0 file {args.x0}")
        try:
            x0 = np.loadtxt(lines).reshape(-1)
        except ValueError as exc:
            raise ValueError(f"{args.x0}: {exc}") from exc
    inst = load_instance(args.instance)
    if args.warm_start_lemke:
        x0, _ = lemke_solve(inst)  # ray/pivot failures exit 2 via main
        if args.s is None:
            config = replace(config, s=max(1, support_count(x0)))
    return _print_report(inst, nhtp.solve(inst, model, config, x0=x0))


def _cmd_tune(args):
    model = _merit(args)
    config = SolverConfig(s=1, **_given(args, *_SOLVER_FLAGS))
    tuning = TuningConfig(**_given(args, *_TUNING_FLAGS))
    inst = load_instance(args.instance)
    report, rounds = nhtpt_solve(inst, model, config, tuning)
    print(f"rounds:      {rounds}")
    print(f"final s:     {report.support.size}")
    return _print_report(inst, report)


def _cmd_lemke(args):
    inst = load_instance(args.instance)
    x, pivots = lemke_solve(inst)
    print(f"pivots:      {pivots}")
    print(f"f2:          {merit_value(MeritModel.phi_r(2), inst, x):.6e}")
    _print_point(inst, x)
    return 0


def _parse_grid(text):
    """Grid syntax: cells split by ';', fields by ':' as n:sstar:r:s,
    with '-' (or omission) leaving a field at its default."""
    points = []
    for cell in text.split(";"):
        cell = cell.strip()
        if not cell:
            continue
        fields = cell.split(":")
        if len(fields) > 4:
            raise ValueError(f"grid cell {cell!r} has more than 4 fields")
        kw = {name: conv(text) for name, conv, text
              in zip(("n", "s_star", "r", "s"), (int, int, float, int),
                     fields) if text not in ("", "-")}
        if "n" not in kw:
            raise ValueError(f"grid cell {cell!r} lacks n")
        points.append(GridPoint(**kw))
    if not points:
        raise ValueError("empty grid")
    return tuple(points)


def _cmd_bench(args):
    try:
        grid = _parse_grid(args.grid)
    except ValueError as exc:
        raise ValueError(f"bad --grid: {exc}") from exc
    spec = ExperimentSpec(args.experiment, grid, args.out,
                          measure_time=not args.no_timing,
                          parallel=args.parallel,
                          **_given(args, "example", "trials", "base_seed"))
    rows = run_experiment(spec)
    print(f"wrote {args.out} ({len(rows) - 1} data rows)")
    return 0


def build_parser():
    parser = _Parser(prog="sparse-lcp",
                     description="sparse linear complementarity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--example", choices=EXAMPLES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="factor inner dimension")
    p.add_argument("--sstar", type=int, dest="s_star", metavar="SSTAR",
                   help="planted sparsity")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("solve", help="run the Newton pursuit solver")
    _add_solver_flags(p)
    start = p.add_mutually_exclusive_group()
    start.add_argument("--x0", help="file of starting-point values")
    start.add_argument("--warm-start-lemke", action="store_true",
                       help="start from the pivoting solution; sets --s "
                            "from its support when --s is absent")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("tune", help="geometric sparsity-budget search")
    _add_solver_flags(p, with_s=False)
    p.add_argument("--s0", type=int, help="starting budget")
    p.add_argument("--rho", type=float, help="budget growth factor")
    p.add_argument("--eps", type=float,
                   help="accept when the merit drops below this")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("lemke", help="complementary pivoting baseline")
    p.add_argument("--instance", required=True)
    p.set_defaults(fn=_cmd_lemke)

    p = sub.add_parser("bench", help="run an experiment sweep")
    p.add_argument("--experiment", choices=EXPERIMENTS, required=True)
    p.add_argument("--example", choices=EXAMPLES)
    p.add_argument("--grid", required=True,
                   help="cells 'n:sstar:r:s' separated by ';', '-' for "
                        "defaults, e.g. '500:5;1000:10:2.5:20'")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, dest="base_seed", metavar="SEED")
    p.add_argument("--out", required=True)
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--no-timing", action="store_true",
                   help="write 0.0 in time columns for reproducible CSVs")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        return args.fn(args)
    except RayTermination:
        print("lemke: ray termination (no complementary solution found)",
              file=sys.stderr)
        return 2
    except PivotLimit:
        print("lemke: pivot limit exceeded", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
