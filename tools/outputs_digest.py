"""Hash the solver and CLI outputs of a checkout, one sha256 per group.

    python tools/outputs_digest.py [ROOT]

imports sparselcp from ROOT/src (default: the checkout holding this
script) with one BLAS thread, and prints a digest for each group and a
total.  Run it on two trees on one machine: equal digests mean equal
outputs, bit for bit.  Wall times are left out.

solve    nhtp.solve on sdp_gaussian, sdp_uniform and sdp_uniform_nox at
         n = 300 (s* = 8, seeds 0-3) and zmatrix n = 300, under five
         merits, s in {3, 8, 12} and eta in {2, 1e6}: every report field
         and every callback (k, f, x)
tune     one default nhtpt_solve per instance and merit, with its rounds
lemke    lemke_solve's x and pivots, or the exception's class name
cli.*    stdout and exit code of gen, lemke, tune and solve (--s 10 and
         --warm-start-lemke) on sdp_gaussian n = 600, seeds 0-2; gen
         also hashes the file it writes
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent)
sys.path.insert(0, str(ROOT / "src"))

from sparselcp import (GeneratorSpec, MeritModel, PivotLimit,  # noqa: E402
                       RayTermination, SolverConfig, generate, lemke_solve,
                       nhtpt_solve, solve)
from sparselcp.cli import main  # noqa: E402

MERITS = (MeritModel.phi_r(2), MeritModel.phi_r(3), MeritModel.psi2(),
          MeritModel.fischer_burmeister(), MeritModel.natural_min())
INSTANCES = [generate(GeneratorSpec(ex, 300, s_star=8, seed=seed))
             for ex in ("sdp_gaussian", "sdp_uniform", "sdp_uniform_nox")
             for seed in range(4)] + [generate(GeneratorSpec("zmatrix", 300))]

groups = {name: hashlib.sha256() for name in
          ("solve", "tune", "lemke", "cli.gen", "cli.lemke", "cli.tune",
           "cli.solve")}


def put(group, *items):
    for item in items:
        groups[group].update(item if isinstance(item, bytes)
                             else repr(item).encode())


def put_report(group, rep):
    put(group, rep.x.tobytes(), rep.support.tobytes(), rep.objective,
        rep.residual, rep.iterations, rep.termination.value)


for inst in INSTANCES:
    for model in MERITS:
        for s in (3, 8, 12):
            for eta in (2.0, 1e6):
                rep = solve(inst, model, SolverConfig(s=s, eta=eta),
                            callback=lambda k, x, f: put("solve", k, f,
                                                         x.tobytes()))
                put_report("solve", rep)
        rep, rounds = nhtpt_solve(inst, model, SolverConfig(s=1))
        put_report("tune", rep)
        put("tune", rounds)
    try:
        x, pivots = lemke_solve(inst)
        put("lemke", x.tobytes(), pivots)
    except (RayTermination, PivotLimit) as exc:
        put("lemke", type(exc).__name__)


def cli(group, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    put(group, out.getvalue(), code)


cwd = os.getcwd()
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    for seed in range(3):
        path = f"inst{seed}.lcp"
        cli("cli.gen", "gen", "--example", "sdp_gaussian", "--n", "600",
            "--seed", str(seed), "--out", path)
        put("cli.gen", Path(path).read_bytes())
        cli("cli.lemke", "lemke", "--instance", path)
        cli("cli.tune", "tune", "--instance", path)
        cli("cli.solve", "solve", "--instance", path, "--s", "10")
        cli("cli.solve", "solve", "--instance", path, "--warm-start-lemke")
    os.chdir(cwd)

total = hashlib.sha256()
for name, h in groups.items():
    total.update(h.digest())
    print(f"{name:10s} {h.hexdigest()}")
print(f"{'total':10s} {total.hexdigest()}")
