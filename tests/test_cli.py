"""Tests for the command-line interface: subcommands and exit codes."""

import numpy as np
import pytest

from sparselcp import bench
from sparselcp.cli import main
from sparselcp.core import LcpInstance, load_instance, save_instance


def write_instance(tmp_path, M, q, name="inst.txt", **kw):
    path = tmp_path / name
    save_instance(LcpInstance(np.asarray(M, float), np.asarray(q, float),
                              **kw), path)
    return str(path)


def gen_planted(tmp_path):
    out = str(tmp_path / "planted.txt")
    code = main(["gen", "--example", "sdp_gaussian", "--n", "40", "--m", "20",
                 "--sstar", "2", "--seed", "5", "--out", out])
    assert code == 0
    return out


def test_gen_writes_loadable_instance(tmp_path, capsys):
    path = gen_planted(tmp_path)
    inst = load_instance(path)
    assert inst.n == 40
    assert inst.ground_truth is not None
    assert "wrote" in capsys.readouterr().out


def test_solve_reports_solution(tmp_path, capsys):
    path = gen_planted(tmp_path)
    code = main(["solve", "--instance", path, "--s", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "termination:" in out
    assert "rel_error:" in out
    assert "nonzeros:    2" in out


def test_solve_requires_budget(tmp_path, capsys):
    path = gen_planted(tmp_path)
    capsys.readouterr()
    assert main(["solve", "--instance", path]) == 1
    assert "--s is required" in capsys.readouterr().err


def test_solve_with_start_file(tmp_path, capsys):
    path = gen_planted(tmp_path)
    x0 = tmp_path / "x0.txt"
    np.savetxt(x0, np.full(40, 0.1))
    assert main(["solve", "--instance", path, "--s", "2",
                 "--x0", str(x0)]) == 0
    assert "termination:" in capsys.readouterr().out


def test_solve_warm_start_sets_budget(tmp_path, capsys):
    path = gen_planted(tmp_path)
    assert main(["solve", "--instance", path, "--warm-start-lemke"]) == 0
    assert "nonzeros:    2" in capsys.readouterr().out


def test_warm_start_conflicts_with_start_file(tmp_path, capsys):
    path = gen_planted(tmp_path)
    x0 = tmp_path / "x0.txt"
    np.savetxt(x0, np.zeros(40))
    capsys.readouterr()
    code = main(["solve", "--instance", path, "--x0", str(x0),
                 "--warm-start-lemke"])
    assert code == 1


def test_solver_failure_exit_code(tmp_path, capsys):
    # a merit that overflows at the start drives the solver into its
    # line-search failure stop
    bad = write_instance(tmp_path, [[1.0]], [-1e300], name="huge.txt")
    with np.errstate(over="ignore"):
        code = main(["solve", "--instance", bad, "--s", "1"])
    assert code == 2
    assert "line_search_failed" in capsys.readouterr().out


def test_non_finite_instance_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "nan.txt"
    bad.write_text("1\n1\nnan\n")
    assert main(["solve", "--instance", str(bad), "--s", "1"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err


def test_non_finite_settings_are_input_errors(tmp_path, capsys):
    path = gen_planted(tmp_path)
    for cmd, flag, value in (("solve", "--eta", "inf"),
                             ("solve", "--tol", "nan"),
                             ("solve", "--r", "inf"),
                             ("tune", "--rho", "inf"),
                             ("tune", "--eps", "inf")):
        budget = ["--s", "2"] if cmd == "solve" else []
        assert main([cmd, "--instance", path, flag, value, *budget]) == 1
        assert "error:" in capsys.readouterr().err


def test_lemke_subcommand_and_ray_exit(tmp_path, capsys):
    path = gen_planted(tmp_path)
    assert main(["lemke", "--instance", path]) == 0
    out = capsys.readouterr().out
    assert "pivots:" in out and "f2:" in out
    ray = write_instance(tmp_path, [[-1.0]], [-1.0], name="ray.txt")
    assert main(["lemke", "--instance", ray]) == 2
    assert "ray termination" in capsys.readouterr().err


def test_lemke_pivot_limit_exit(tmp_path, capsys):
    path = write_instance(tmp_path, np.eye(2), [-1.0, -2.0])
    assert main(["lemke", "--instance", path, "--max-pivots", "1"]) == 2
    assert "pivot limit" in capsys.readouterr().err


def test_lemke_bad_arguments_are_usage_errors(tmp_path, capsys):
    path = write_instance(tmp_path, np.eye(2), [-1.0, -2.0])
    for flag, value in (("--pivot-tol", "-1"), ("--pivot-tol", "nan"),
                        ("--max-pivots", "0")):
        assert main(["lemke", "--instance", path, flag, value]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "pivot limit" not in err


def test_warm_start_propagates_ray_failure(tmp_path, capsys):
    ray = write_instance(tmp_path, [[-1.0]], [-1.0], name="ray.txt")
    assert main(["solve", "--instance", ray, "--warm-start-lemke"]) == 2


def test_tune_subcommand(tmp_path, capsys):
    path = gen_planted(tmp_path)
    code = main(["tune", "--instance", path, "--s0", "1", "--rho", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rounds:" in out and "final s:" in out


def test_one_based_indices_in_output(tmp_path, capsys):
    # internal index 0 prints as x[1]
    path = write_instance(tmp_path, np.eye(1), [-2.0])
    assert main(["solve", "--instance", path, "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "x[1] = " in out and "x[0]" not in out


def test_bench_subcommand(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["bench", "--experiment", "success_vs_r", "--grid", "40:2:2",
                 "--trials", "2", "--out", str(out), "--no-timing"])
    assert code == 0
    assert out.exists()
    header = out.read_text().split("\n")[0]
    assert header == "n,s_star,r_or_s,success_rate,mean_time"


def test_bench_grid_placeholders(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["bench", "--experiment", "scaling", "--example", "zmatrix",
                 "--grid", "50:-:2;50:-:3", "--trials", "1", "--out",
                 str(out), "--no-timing"])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_bench_rejects_bad_grid(tmp_path, capsys):
    out = tmp_path / "x.csv"
    # s_star or s outside [1, n] is rejected before any trial runs
    # so are an r that phi_r does not take and a fifth field
    for grid in ("oops", "20:-:0", "40:41", "40:2:2:0", "40:2;40:41",
                 "20:-:inf", "40:2:2:2:99"):
        assert main(["bench", "--experiment", "scaling", "--grid", grid,
                     "--trials", "1", "--out", str(out)]) == 1
        assert "bad --grid" in capsys.readouterr().err


def test_bench_rejects_sparsity_the_family_does_not_plant(tmp_path, capsys,
                                                         monkeypatch):
    # zmatrix plants e_1: an explicit s_star of 5 is an input error, found
    # before any trial runs
    monkeypatch.setattr(bench, "_run_trial", None)
    out = tmp_path / "z.csv"
    assert main(["bench", "--experiment", "success_vs_r", "--example",
                 "zmatrix", "--grid", "30:5", "--trials", "1", "--out",
                 str(out), "--no-timing"]) == 1
    assert "zmatrix plants s_star=1, not 5" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--example", "unknown", "--n", "5", "--out", "/tmp/x"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["solve", "--instance", str(tmp_path / "absent.txt"),
                 "--s", "1"]) == 1
    assert "error:" in capsys.readouterr().err
