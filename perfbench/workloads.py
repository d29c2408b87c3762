"""Workloads of the sparselcp benchmark.

A workload builds ``instances`` problem instances from consecutive
generator seeds ``base_seed + trial`` (the seed discipline of
``sparselcp.bench``) and defines one *op* on an instance.  Every op
returns an ``OpResult``: a fingerprint that must repeat exactly between
runs of the same op, the solver outputs it produced, and whether it ended
in a failure state.

Calls into the package go through module attributes (``nhtp.solve``,
``problems.generate``, ``cli.main``) so that a traced run can rebind them.
"""

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sparselcp import cli, nhtp, problems
from sparselcp.core import SolverConfig, Termination
from sparselcp.merit import MeritModel

OUT_DIR = Path(__file__).resolve().parent / "out"

# Solver-independent certificate threshold on the scaled complementarity
# violation max(||x_-||, ||y_-||, ||x*y||) / max(1, ||q||), all inf-norms.
CERT_TOL = 1e-6

_FAILED_TERMINATIONS = (Termination.LINE_SEARCH_FAILED,
                        Termination.ITERATION_CAP)


def certified(inst, x):
    """True when x passes the certificate computed from M and q alone."""
    y = inst.M @ x + inst.q
    violation = max(float(np.max(-x, initial=0.0)),
                    float(np.max(-y, initial=0.0)),
                    float(np.max(np.abs(x * y), initial=0.0)))
    return violation / max(1.0, float(np.abs(inst.q).max())) <= CERT_TOL


@dataclass
class Output:
    """One solver output; x is None when the solver produced no point.

    must_certify marks outputs the program claims are solutions (a
    residual_met termination or a Lemke solution): failing the
    certificate there is a correctness error, not a miss.
    """

    x: np.ndarray
    must_certify: bool


@dataclass
class OpResult:
    fingerprint: tuple
    outputs: list
    failed: bool


@dataclass(frozen=True)
class SolveWorkload:
    """One op is one ``nhtp.solve`` from x0 = 0 with the default config."""

    name: str
    example: str
    n: int
    s: int
    m: int
    instances: int
    why: str

    def build(self, seed):
        return problems.generate(problems.GeneratorSpec(
            self.example, self.n, s_star=self.s, m=self.m, seed=seed))

    def op(self, inst, seed):
        report = nhtp.solve(inst, MeritModel.phi_r(2), SolverConfig(s=self.s))
        term = report.termination
        fingerprint = (seed, report.iterations, term.value, report.objective,
                       tuple(np.flatnonzero(report.x).tolist()))
        return OpResult(fingerprint,
                        [Output(report.x, term is Termination.RESIDUAL_MET)],
                        term in _FAILED_TERMINATIONS)


def _run_cli(argv):
    """Call the CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _parse(text, n):
    """Split CLI output into its 'key: value' fields and the printed x."""
    fields, x = {}, np.zeros(n)
    for line in text.splitlines():
        if line.startswith("x["):
            idx, val = line[2:].split("] = ")
            x[int(idx) - 1] = float(val)
        else:
            key, sep, val = line.partition(":")
            if sep:
                fields[key.strip()] = val.strip()
    return fields, x


@dataclass(frozen=True)
class CliWorkload:
    """One op is ``gen`` (generate and save), ``lemke`` (load and pivot)
    and ``tune`` (load and budget search) through ``cli.main``.

    The benchmark generates the same instance in memory as its reference:
    outputs are certified against that M and q, not against the file.
    """

    name: str
    n: int
    instances: int
    why: str
    example: str = "sdp_gaussian"

    def build(self, seed):
        return problems.generate(
            problems.GeneratorSpec(self.example, self.n, seed=seed))

    def op(self, inst, seed):
        OUT_DIR.mkdir(exist_ok=True)
        path = str(OUT_DIR / f"{self.name}_{seed}.txt")
        try:
            gen_rc, _ = _run_cli(["gen", "--example", self.example,
                                  "--n", str(self.n), "--seed", str(seed),
                                  "--out", path])
            lemke_rc, lemke_text = _run_cli(["lemke", "--instance", path])
            tune_rc, tune_text = _run_cli(["tune", "--instance", path])
        finally:
            Path(path).unlink(missing_ok=True)
        lemke_fields, x_lemke = _parse(lemke_text, self.n)
        tune_fields, x_tune = _parse(tune_text, self.n)
        outputs = [
            Output(x_lemke if lemke_rc == 0 else None, True),
            Output(x_tune if tune_rc == 0 else None,
                   tune_fields.get("termination")
                   == Termination.RESIDUAL_MET.value),
        ]
        fingerprint = (seed, gen_rc, lemke_rc, tune_rc,
                       lemke_fields.get("pivots"),
                       tuple(np.flatnonzero(x_lemke).tolist()),
                       tune_fields.get("rounds"),
                       tune_fields.get("iterations"),
                       tune_fields.get("termination"),
                       tune_fields.get("objective"),
                       tuple(np.flatnonzero(x_tune).tolist()))
        failed = (gen_rc, lemke_rc, tune_rc) != (0, 0, 0) or \
            tune_fields.get("termination") in {t.value for t in
                                               _FAILED_TERMINATIONS}
        return OpResult(fingerprint, outputs, failed)


WORKLOADS = {w.name: w for w in (
    SolveWorkload(
        "nhtp_gaussian_n5000", "sdp_gaussian", n=5000, s=50, m=2500,
        instances=8,
        why="BLAS-bound Newton path: Hessian blocks, line search and the "
            "gradient matvec dominate a solve"),
    # Runnable but not listed in BENCHMARK.json: about one instance in
    # eight is a 1.5-3.7 s tail solve, so ops_per_s and recovered_frac of
    # a ten-instance run swing with the seed far beyond a usable bound.
    SolveWorkload(
        "nhtp_uniform_n1000", "sdp_uniform", n=1000, s=10, m=None,
        instances=10,
        why="stall-prone family: long solves where per-iteration overhead "
            "and the line search dominate"),
    CliWorkload(
        "cli_pipeline_gaussian_n1000", n=1000, instances=11,
        why="the only path through instance file I/O, Lemke pivoting and "
            "the budget-tuning loop"),
)}
