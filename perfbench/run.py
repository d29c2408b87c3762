"""Benchmark of the sparselcp package, driven from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  A
run takes the workload's instances from generator seeds N, N+1, ...; it
builds each in turn (set-up) and runs ops on it for its equal share of S
seconds.  Every op on an instance must repeat its fingerprint exactly.
Lines before the last describe the machine, each instance's fingerprint
and the metrics; the last line is one JSON object:

    {"correct": ..., "attempted": ops, "failed": ops, "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs one op per
instance untraced and then the same op traced; it fails if the two
fingerprints differ, reports the per-layer metrics and the tracing
overhead, and writes the spans to perfbench/out/.

An op counts as failed when it ends in line_search_failed, iteration_cap,
Lemke ray termination or pivot limit, a nonzero CLI exit, or an exception.
The run is incorrect, and exits 1, on a fingerprint mismatch, on an
exception the op does not document, or when an output the program claims
is a solution (residual_met, or a Lemke solution) fails the certificate.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads():
    """Pin BLAS to one thread, whatever the environment says.  Must run
    before numpy is imported.

    One thread keeps runs steady and the float results repeatable: on a
    2-CPU Xeon VM, some 2-thread processes ran every numpy call about
    twice as slowly for their whole life (generating an n=1000 instance
    took 0.095 s instead of 0.041 s), while the n=5000 solve took the same
    0.61-0.73 s with one thread as with two.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_header():
    import numpy as np
    import scipy

    def blas(lib):
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


class Check:
    """Collects correctness errors and failure counts over a run."""

    def __init__(self):
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.outputs = 0
        self.recovered = 0
        self.certified = 0
        self.fingerprints = []  # one per instance, from its first op

    def op(self, workload, inst, seed, first):
        """Run one op; returns (seconds, OpResult or None).

        Outputs are scored on an instance's first op only: later ops on it
        must repeat its fingerprint, so they add no new output.
        """
        from workloads import certified
        from sparselcp.problems import is_success

        self.attempted += 1
        try:
            seconds, res = _timed(workload.op, inst, seed)
        except Exception as exc:  # any escape is undocumented: record it
            self.failed += 1
            self.errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            return None, None
        self.failed += res.failed
        for out in res.outputs if first else ():
            self.outputs += 1
            if out.x is None:
                continue
            ok = certified(inst, out.x)
            self.certified += ok
            if inst.ground_truth is not None:
                self.recovered += is_success(out.x, inst.ground_truth)
            if out.must_certify and not ok:
                self.errors.append(f"seed {seed}: an output reported as a "
                                   "solution fails the certificate")
        return seconds, res

    def same(self, seed, first, other, what):
        if first.fingerprint != other.fingerprint:
            self.errors.append(f"seed {seed}: {what} fingerprint "
                               f"{other.fingerprint} != {first.fingerprint}")


def run(workload, base_seed, seconds, trace):
    """Build each instance in turn (set-up), run a block of ops on it, and
    drop it before building the next, so memory holds one instance.

    Each instance gets an equal share of the budget: ops run on it while
    another fits in the share, and at least one does.  An untraced run
    then runs one more, untimed op on its last instance under tracemalloc
    for op_peak_mb.  A traced run gives each instance one untraced and one
    traced op.  Returns (check, {name: (value, unit)}, number of timed
    ops behind the medians).
    """
    from layers import Tracer, layer_metrics

    check = Check()
    tracer = Tracer()
    share = seconds / workload.instances
    setup_times, times, traced_times, sweep = [], [], [], []
    op_peak = 0
    seeds = range(base_seed, base_seed + workload.instances)
    for seed in seeds:
        with tracer if trace else contextlib.nullcontext():
            dt, inst = _timed(workload.build, seed)
        setup_times.append(dt)
        first, block = None, []
        while True:
            dt, res = check.op(workload, inst, seed, first is None)
            if res is None:
                break
            block.append(dt)
            first = first or res
            check.same(seed, first, res, "repeated")
            if trace:
                with tracer:
                    dt, res = check.op(workload, inst, seed, False)
                if res is not None:
                    traced_times.append(dt)
                    check.same(seed, first, res, "traced")
                break
            if sum(block) + dt > share:
                break
        # Read before the memory op: tracemalloc's own records add to it.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if not trace and first and seed == seeds[-1]:
            # The op's own memory, not the instance's: the peak of what
            # one more, untimed op allocates (numpy reports its buffers
            # to tracemalloc).
            tracemalloc.start()
            _, res = check.op(workload, inst, seed, False)
            op_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            if res is not None:
                check.same(seed, first, res, "repeated")
        inst = None  # free it before the next build
        if first:
            check.fingerprints.append(first.fingerprint)
        if block:
            times += block
            sweep.append(statistics.median(block))
    if not times:
        return check, {}, 0
    op_p50 = statistics.median(times)
    if trace:
        metrics = layer_metrics(tracer.spans)
        overhead = statistics.median(traced_times) - op_p50 \
            if traced_times else 0.0
        metrics["bench.trace_overhead_s"] = (overhead, "s")
        metrics["bench.failed_frac"] = (check.failed / check.attempted,
                                        "frac")
        from workloads import OUT_DIR
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace_{workload.name}_seed{base_seed}.json")
        return check, metrics, len(traced_times)
    return check, {
        "op_s_p50": (op_p50, "s"),
        # a sweep that runs each instance once, at its median op time
        "ops_per_s": (len(sweep) / sum(sweep), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "recovered_frac": (check.recovered / check.outputs, "frac"),
        "certified_frac": (check.certified / check.outputs, "frac"),
        # the process peak; instance set-up (building M) sets it
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "op_peak_mb": (op_peak / 2**20, "MB"),
        # printed only: the JSON carries it as failed / attempted
        "failed_frac": (check.failed / check.attempted, "frac"),
    }, len(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sparselcp" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print("header: " + json.dumps(run_header()))
    print(f"workload: {workload.name} ({workload.why}); generator seeds "
          f"{args.seed}..{args.seed + workload.instances - 1}")
    check, metrics, samples = run(workload, args.seed, args.seconds,
                                  bool(args.trace))
    for fingerprint in check.fingerprints:
        print("fingerprint: " + json.dumps(fingerprint))
    print(f"ops: {check.attempted} attempted, {check.failed} failed; "
          f"{samples} timed samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for err in check.errors:
        print(f"error: {err}", file=sys.stderr)
    correct = not check.errors and check.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name != "failed_frac"},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
