"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/test_run.py -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "nhtp_gaussian_n5000": dict(n=60, s=2, m=30, instances=2),
    "nhtp_uniform_n1000": dict(n=60, s=2, instances=2),
    "cli_pipeline_gaussian_n1000": dict(n=40, instances=2),
}


@pytest.fixture
def tiny(monkeypatch):
    for var in run.BLAS_THREAD_VARS:  # main() pins them; restore afterwards
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(
            workloads.WORKLOADS[name], **sizes))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, name, trace):
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    # in the traced run this also checks traced == untraced fingerprints
    assert rc == 0 and result["correct"], result
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_lists_gated_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@dataclasses.dataclass(frozen=True)
class _Drifting:
    """An op whose fingerprint changes on every call."""

    name: str = "drifting"
    instances: int = 1
    calls: list = dataclasses.field(default_factory=list)

    def build(self, seed):
        return None

    def op(self, inst, seed):
        self.calls.append(seed)
        return workloads.OpResult((seed, len(self.calls)), [], False)


def test_fingerprint_mismatch_is_an_error():
    check, _, _ = run.run(_Drifting(), 0, 0.0, trace=True)
    assert any("traced fingerprint" in err for err in check.errors)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
