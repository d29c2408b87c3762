"""Tests for the experiment harness: schemas, determinism, aggregation."""

import numpy as np
import pytest

from sparselcp import bench
from sparselcp.bench import (EXPERIMENTS, ExperimentSpec, GridPoint,
                             run_experiment)


def spec_for(tmp_path, experiment, grid, name="out.csv", **kw):
    kw.setdefault("trials", 2)
    kw.setdefault("measure_time", False)
    return ExperimentSpec(experiment, grid, str(tmp_path / name), **kw)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], lines[1:]


def test_grid_point_validation():
    p = GridPoint(100)
    assert p.s_star is None and p.r == 2.0 and p.s is None
    with pytest.raises(ValueError):
        GridPoint(0)
    with pytest.raises(ValueError):
        GridPoint(10, r=1.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GridPoint(10, r=bad)
    # s_star and s must lie in [1, n] (the CLI cells "40:41", "40:2:2:0")
    for kw in ({"s_star": 41}, {"s_star": 0}, {"s_star": 2, "s": 0},
               {"s_star": 2, "s": 41}):
        with pytest.raises(ValueError, match="must lie in"):
            GridPoint(40, **kw)
    assert GridPoint(40, s_star=40, s=1).s == 1


def test_experiment_spec_validation(tmp_path):
    grid = (GridPoint(10, s_star=1),)
    with pytest.raises(ValueError):
        ExperimentSpec("nope", grid, str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        ExperimentSpec("scaling", (), str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        ExperimentSpec("scaling", grid, str(tmp_path / "x.csv"), trials=0)
    # the spec is built before any trial runs, so a sweep is never lost
    # at its final write
    with pytest.raises(ValueError, match="does not exist"):
        ExperimentSpec("scaling", grid, str(tmp_path / "missing" / "x.csv"))
    assert set(EXPERIMENTS) == {"success_vs_r", "success_vs_s", "scaling",
                                "merit_comparison", "s_selection"}
    # success sweeps need a planted solution; other experiments take the
    # family without one
    for experiment in ("success_vs_r", "success_vs_s"):
        with pytest.raises(ValueError, match="ground-truth family"):
            ExperimentSpec(experiment, grid, str(tmp_path / "x.csv"),
                           example="sdp_uniform_nox")
    ExperimentSpec("scaling", grid, str(tmp_path / "x.csv"),
                   example="sdp_uniform_nox")


def test_cells_must_match_what_the_family_plants(tmp_path):
    # zmatrix plants e_1, so a cell claiming s_star = 5 would write a
    # sparsity the instance does not have; the spec rejects it when built
    for grid in ((GridPoint(30, s_star=5),),
                 (GridPoint(30, s_star=1), GridPoint(30, s_star=5))):
        with pytest.raises(ValueError, match="plants s_star=1, not 5"):
            ExperimentSpec("success_vs_r", grid, str(tmp_path / "z.csv"),
                           example="zmatrix")
    for grid in ((GridPoint(30),), (GridPoint(30, s_star=1),)):
        ExperimentSpec("success_vs_r", grid, str(tmp_path / "z.csv"),
                       example="zmatrix")
    with pytest.raises(ValueError, match="unknown example"):
        ExperimentSpec("scaling", (GridPoint(30),), str(tmp_path / "z.csv"),
                       example="bogus")


def test_merit_comparison_rejects_cells_sharing_n(tmp_path):
    # trace files are named by n, so a second n=40 cell would overwrite
    # the first cell's traces
    grid = (GridPoint(40, s_star=2, r=2.0), GridPoint(40, s_star=2, r=3.0))
    with pytest.raises(ValueError, match="distinct n"):
        ExperimentSpec("merit_comparison", grid, str(tmp_path / "m.csv"))
    # other experiments may repeat n
    ExperimentSpec("scaling", grid, str(tmp_path / "s.csv"))


def test_success_sweep_schema_and_rates(tmp_path):
    grid = (GridPoint(60, s_star=2, r=2.0), GridPoint(60, s_star=2, r=2.5))
    spec = spec_for(tmp_path, "success_vs_r", grid, trials=3)
    rows = run_experiment(spec)
    header, data = read_rows(tmp_path / "out.csv")
    assert header == "n,s_star,r_or_s,success_rate,mean_time"
    assert len(data) == 2
    for line in data:
        n, s_star, r_or_s, rate, mean_time = line.split(",")
        assert n == "60" and s_star == "2"
        assert 0.0 <= float(rate) <= 1.0
        assert float(mean_time) == 0.0  # timing disabled
    # the recovery problem at this scale is reliably solved
    assert float(data[0].split(",")[3]) >= 2.0 / 3.0
    # the return value mirrors the file, one tuple per row
    assert list(rows[0]) == header.split(",")


def test_success_vs_s_uses_budget_column(tmp_path):
    grid = (GridPoint(50, s_star=2, s=2), GridPoint(50, s_star=2, s=4))
    spec_obj = spec_for(tmp_path, "success_vs_s", grid)
    run_experiment(spec_obj)
    _, data = read_rows(tmp_path / "out.csv")
    assert [line.split(",")[2] for line in data] == ["2", "4"]


def test_sweep_is_byte_identical_across_runs(tmp_path):
    grid = (GridPoint(40, s_star=2),)
    spec_a = spec_for(tmp_path, "success_vs_r", grid, name="a.csv")
    spec_b = spec_for(tmp_path, "success_vs_r", grid, name="b.csv")
    run_experiment(spec_a)
    run_experiment(spec_b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_parallel_matches_serial(tmp_path):
    # every experiment goes through the same grid loop; fanning its trials
    # out over processes changes no row, no CSV byte and no trace file
    grid = (GridPoint(40, s_star=2), GridPoint(50, s_star=2))
    for experiment in EXPERIMENTS:
        outputs = []
        for parallel in (False, True):
            d = tmp_path / f"{experiment}_{parallel}"
            d.mkdir()
            spec = spec_for(d, experiment, grid, parallel=parallel)
            rows = run_experiment(spec)
            files = {p.name: p.read_bytes() for p in d.iterdir()}
            outputs.append((rows, files))
        assert outputs[0] == outputs[1], experiment
        # the merit race writes 4 trace files per cell beside the CSV
        n_files = 9 if experiment == "merit_comparison" else 1
        assert len(outputs[0][1]) == n_files, experiment


def test_parallel_run_starts_one_pool(tmp_path, monkeypatch):
    # every (cell, trial) pair goes through one pool, not one per cell
    pools = []

    class CountingPool(bench.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", CountingPool)
    grid = (GridPoint(30, s_star=1), GridPoint(35, s_star=1),
            GridPoint(40, s_star=2))
    rows = run_experiment(spec_for(tmp_path, "scaling", grid, parallel=True))
    assert len(pools) == 1
    assert len(rows) == 4


def test_scaling_schema_on_exact_family(tmp_path):
    grid = (GridPoint(100, r=2.0), GridPoint(100, r=3.0))
    spec = spec_for(tmp_path, "scaling", grid, example="zmatrix", trials=1)
    run_experiment(spec)
    header, data = read_rows(tmp_path / "out.csv")
    assert header == "method,n,rel_error_or_f2,grad_norm_f2,support_size,time,iterations"
    assert len(data) == 2
    assert data[0].startswith("NHTP_2,100,")
    assert data[1].startswith("NHTP_3,100,")
    # exact recovery for the quadratic merit on this family
    assert float(data[0].split(",")[2]) <= 1e-10
    assert float(data[0].split(",")[4]) == 1.0  # support size


def test_merit_comparison_rows_and_traces(tmp_path):
    grid = (GridPoint(60, s_star=2),)
    spec = spec_for(tmp_path, "merit_comparison", grid, trials=2)
    run_experiment(spec)
    header, data = read_rows(tmp_path / "out.csv")
    assert header == "merit,n,f2_of_x,time,iterations"
    assert [line.split(",")[0] for line in data] == ["phi_r", "fb", "min",
                                                     "psi2"]
    for kind in ("phi_r", "fb", "min", "psi2"):
        trace = tmp_path / f"out_trace_{kind}_n60.txt"
        assert trace.exists(), kind
        lines = trace.read_text().strip().split("\n")
        ks = [int(line.split()[0]) for line in lines]
        assert ks == list(range(len(ks)))
        fs = [float(line.split()[1]) for line in lines]
        assert all(f >= 0.0 for f in fs)
    # every merit drives the quadratic objective to a small value here
    assert all(float(line.split(",")[2]) <= 1e-6 for line in data)


def test_selection_comparison_schema(tmp_path):
    grid = (GridPoint(60, s_star=2),)
    spec = spec_for(tmp_path, "s_selection", grid, trials=2)
    run_experiment(spec)
    header, data = read_rows(tmp_path / "out.csv")
    assert header == "method,n,f2,time,support_size,completed"
    methods = [line.split(",")[0] for line in data]
    assert methods == ["Lemke", "NHTP-fixed-s", "NHTPT"]
    for line in data:
        parts = line.split(",")
        assert float(parts[2]) <= 1e-10   # all methods solve the draw
        assert float(parts[4]) == 2.0     # planted support size recovered
        assert float(parts[5]) == 1.0     # all trials completed


def test_mean_time_column_live_timing(tmp_path):
    grid = (GridPoint(40, s_star=2),)
    spec = ExperimentSpec("success_vs_r", grid, str(tmp_path / "t.csv"),
                          trials=1, measure_time=True)
    run_experiment(spec)
    _, data = read_rows(tmp_path / "t.csv")
    assert float(data[0].split(",")[4]) > 0.0
