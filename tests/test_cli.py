"""Tests for the command-line interface: subcommands and exit codes."""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sparselcp import bench, cli, lemke, nhtp
from sparselcp.cli import build_parser, main
from sparselcp.core import (LcpInstance, SolverConfig, _fmt, certificate,
                            load_instance, save_instance)
from sparselcp.tuning import TuningConfig


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


def test_gen_checks_the_output_directory_before_the_draw(tmp_path, capsys,
                                                         monkeypatch):
    def no_draw(spec):
        raise AssertionError("the instance was drawn before --out was checked")

    monkeypatch.setattr(cli, "generate", no_draw)
    out = tmp_path / "nodir" / "x.txt"
    assert main(["gen", "--example", "sdp_gaussian", "--n", "2000",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"output directory {out.parent} does not exist" in err


def test_solve_reports_solution(tmp_path, capsys):
    path = gen_planted(tmp_path)
    code = main(["solve", "--instance", path, "--s", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "termination:" in out
    assert "rel_error:" in out
    assert "nonzeros:    2" in out


@pytest.mark.parametrize("argv, q, err", [
    (("solve", "--s", "1"), [1.0, 1.0], "0.000000e+00"),
    (("tune",), [1.0, 1.0], "0.000000e+00"),
    (("solve", "--s", "1"), [-1.0, 1.0], "inf"),
    (("lemke",), [1.0, 1.0], "0.000000e+00"),
    (("lemke",), [-1.0, 1.0], "inf"),
])
def test_zero_ground_truth_error(tmp_path, capsys, argv, q, err):
    # x* = 0 solves the instance when q >= 0; with q_1 < 0 it does not,
    # and the solver's nonzero answer is infinitely far from it in
    # relative terms
    path = write_instance(tmp_path, 2.0 * np.eye(2), q,
                          ground_truth=np.zeros(2))
    assert main([argv[0], "--instance", path, *argv[1:]]) == 0
    assert f"rel_error:   {err}\n" in capsys.readouterr().out


def printed_point(out, n):
    """The x a report prints and the value of its certificate line."""
    x = np.zeros(n)
    cert = None
    for line in out.splitlines():
        if line.startswith("x["):
            idx, val = line[2:].split("] = ")
            x[int(idx) - 1] = float(val)
        elif line.startswith("certificate: "):
            cert = line[len("certificate: "):]
    return x, cert


@pytest.mark.parametrize("argv, termination", [
    (("solve", "--s", "2"), "residual_met"),
    (("solve", "--s", "2"), "certified"),
    (("tune",), "certified"),
    (("lemke",), None),
])
def test_reports_print_the_certificate(tmp_path, capsys, monkeypatch, argv,
                                       termination):
    # a residual tolerance of 0 leaves the residual stop out of reach, so
    # the certificate ends the solve; that is a success and exits 0
    if termination == "certified":
        monkeypatch.setattr(nhtp, "_TOL", 0.0)
    path = gen_planted(tmp_path)
    inst = load_instance(path)
    capsys.readouterr()
    assert main([argv[0], "--instance", path, *argv[1:]]) == 0
    out = capsys.readouterr().out
    if termination is not None:
        assert f"termination: {termination}\n" in out
    x, cert = printed_point(out, inst.n)
    assert cert == f"{certificate(x, inst.M @ x + inst.q, inst.q):.6e}"
    assert float(cert) <= 1e-12


def test_solver_flags_are_the_config_fields():
    # a field removed without its flag would fail only once a user passed
    # the flag: the config gets an unknown keyword, and the TypeError
    # escapes main
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert sorted(cli._SOLVER_FLAGS) == sorted(set(fields) - {"s"})
    fields = [f.name for f in dataclasses.fields(TuningConfig)]
    assert sorted(cli._TUNING_FLAGS) == sorted(fields)
    for cmd, flags in (("solve", cli._SOLVER_FLAGS),
                       ("tune", cli._SOLVER_FLAGS + cli._TUNING_FLAGS)):
        args = build_parser().parse_args([cmd, "--instance", "unread.txt"])
        assert set(flags) <= set(vars(args))


@pytest.mark.parametrize("cmd, flag", [("solve", "--tol"),
                                       ("solve", "--maxiter"),
                                       ("tune", "--max-rounds"),
                                       ("lemke", "--max-pivots")])
def test_stopping_caps_are_not_flags(tmp_path, capsys, cmd, flag):
    # the caps are module constants: --help omits their old flags, and
    # passing one is a usage error, exit 1 before the instance is read
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert flag not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--instance", str(tmp_path / "absent.txt"), flag, "0"])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err


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


def test_empty_start_file_is_an_input_error(tmp_path, capsys):
    path = gen_planted(tmp_path)
    x0 = tmp_path / "x0.txt"
    capsys.readouterr()
    for text in ("\n", "# comments only\n"):
        x0.write_text(text)
        assert main(["solve", "--instance", path, "--s", "2",
                     "--x0", str(x0)]) == 1
        assert "error: no values in --x0 file" in capsys.readouterr().err


def test_solve_warm_start_sets_budget(tmp_path, capsys):
    path = gen_planted(tmp_path)
    assert main(["solve", "--instance", path, "--warm-start-lemke"]) == 0
    assert "nonzeros:    2" in capsys.readouterr().out


def test_warm_start_conflicts_with_start_file(tmp_path, capsys):
    # the two starts are one argparse exclusive group: a usage error
    path = gen_planted(tmp_path)
    x0 = tmp_path / "x0.txt"
    np.savetxt(x0, np.zeros(40))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", path, "--x0", str(x0),
              "--warm-start-lemke"])
    assert exc.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    # M = 1, q = -1e300: the merit overflows at zero in the units of the
    # file, not in the solver's equilibrated ones, and x = 1e300 solves
    huge = write_instance(tmp_path, [[1.0]], [-1e300], name="huge.txt")
    for cmd in (["solve", "--s", "1"], ["tune"]):
        assert main([cmd[0], "--instance", huge, *cmd[1:]]) == 0
        out = capsys.readouterr().out
        assert "termination: residual_met" in out
        assert "certificate: 0.000000e+00" in out
        assert f"x[1] = {_fmt(1e300)}" in out
    # on M = 1, q = 1 a start of 1e300 does overflow, and drives the
    # solver into its line-search failure stop.  Both subcommands start
    # from zero here, so their solver is made to start from 1e300
    real = nhtp.solve
    monkeypatch.setattr(nhtp, "solve", lambda inst, model, config, x0=None:
                        real(inst, model, config, x0=np.full(inst.n, 1e300)))
    bad = write_instance(tmp_path, [[1.0]], [1.0], name="bad.txt")
    for cmd in (["solve", "--s", "1"], ["tune"]):
        with np.errstate(over="ignore"):
            code = main([cmd[0], "--instance", bad, *cmd[1:]])
        assert code == 2
        assert "termination: line_search_failed" in capsys.readouterr().out


def test_iteration_cap_exit_code(tmp_path, capsys, monkeypatch):
    # the run gave up, as after a failed line search: M = -1, q = -1 has
    # no solution, so no tuning round is accepted
    none = write_instance(tmp_path, [[-1.0]], [-1.0], name="none.txt")
    assert main(["tune", "--instance", none]) == 2
    assert "termination: iteration_cap\n" in capsys.readouterr().out
    monkeypatch.setattr(nhtp, "_MAX_ITER", 1)
    monkeypatch.setattr(nhtp, "_TOL", 0.0)
    path = gen_planted(tmp_path)
    capsys.readouterr()
    assert main(["solve", "--instance", path, "--s", "2"]) == 2
    out = capsys.readouterr().out
    assert "termination: iteration_cap\n" in out
    assert "iterations:  1\n" in out


def test_tune_solves_a_huge_q_without_warnings(tmp_path, capsys):
    # M = I, q = (-1e200, -1e200): f(0) overflows in the units of the
    # file; the solver divides q by 1e200 and solves it quietly
    path = tmp_path / "huge.txt"
    path.write_text("2\n1 0\n0 1\n-1e200 -1e200\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["tune", "--instance", str(path)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out = capsys.readouterr().out
    assert "certificate: 0.000000e+00" in out
    assert out.count(f"= {_fmt(1e200)}") == 2


def test_non_finite_instance_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "nan.txt"
    bad.write_text("1\n1\nnan\n")
    assert main(["solve", "--instance", str(bad), "--s", "1"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err


def test_non_finite_settings_are_input_errors(tmp_path, capsys, monkeypatch):
    # every setting is checked before a file is read: the instance named
    # here does not exist, and each run reports its setting, not the file
    def no_lemke(inst):
        raise AssertionError("lemke ran before the settings were checked")

    monkeypatch.setattr(cli, "lemke_solve", no_lemke)
    absent = str(tmp_path / "absent.txt")
    x0 = str(tmp_path / "absent_x0.txt")
    ragged = tmp_path / "ragged_x0.txt"
    ragged.write_text("1 2\nabc\n")
    for argv, message in (
            (["solve", "--s", "2", "--eta", "inf"], "eta must be positive"),
            (["solve", "--s", "2", "--r", "inf"], "r must be finite"),
            (["solve", "--s", "0"], "s must be at least 1"),
            (["solve"], "--s is required"),
            (["solve", "--warm-start-lemke", "--eta", "nan"],
             "eta must be positive"),
            (["solve", "--s", "2", "--x0", x0], x0),
            (["solve", "--s", "2", "--x0", str(ragged)], f"{ragged}: "),
            (["tune", "--rho", "inf"], "rho must be finite"),
            (["tune", "--rho", "1"], "rho must be finite"),
            (["tune", "--eps", "inf"], "eps must be positive"),
            (["tune", "--s0", "0"], "s0 must be at least 1")):
        assert main([*argv, "--instance", absent]) == 1, argv
        err = capsys.readouterr().err
        assert "error:" in err and message in err, argv
        assert "absent.txt" not in err, argv


@pytest.mark.parametrize("cmd, merit, r", [("solve", "fb", "-7"),
                                           ("tune", "min", "9"),
                                           ("solve", "psi2", "2")])
def test_r_is_a_usage_error_off_phi_r(tmp_path, capsys, cmd, merit, r):
    # --r is phi_r's exponent: the other merits used to ignore it and
    # exit 0.  Without --r, and with phi_r, the same run succeeds
    path = gen_planted(tmp_path)
    argv = [cmd, "--instance", path, *(["--s", "2"] if cmd == "solve" else [])]
    capsys.readouterr()
    assert main([*argv, "--merit", merit, "--r", r]) == 1
    assert f"--r applies to --merit phi_r, not {merit}" in \
        capsys.readouterr().err
    assert main([*argv, "--merit", merit]) == 0
    assert main([*argv, "--merit", "phi_r", "--r", "3"]) == 0


def test_lemke_subcommand_and_ray_exit(tmp_path, capsys):
    path = gen_planted(tmp_path)
    assert main(["lemke", "--instance", path]) == 0
    out = capsys.readouterr().out
    assert "pivots:" in out and "f2:" in out and "rel_error:" in out
    ray = write_instance(tmp_path, [[-1.0]], [-1.0], name="ray.txt")
    assert main(["lemke", "--instance", ray]) == 2
    assert "ray termination" in capsys.readouterr().err


@pytest.mark.parametrize("argv, seed", [
    (("lemke",), 4),
    (("tune",), 0),
    (("solve", "--s", "4"), 0),
])
def test_reports_print_only_the_true_support(tmp_path, capsys, argv, seed):
    # the pursuit leaves entries near 1e-17 on its working set; that
    # round-off is not printed as nonzeros, only the two planted entries
    # are.  Tableau.solution already zeroes a Lemke point's round-off, so
    # the lemke case only checks that x prints its two planted entries;
    # test_point_certificate_is_that_of_the_trimmed_point covers the
    # trimming every subcommand's point goes through
    path = str(tmp_path / "planted.txt")
    assert main(["gen", "--example", "sdp_gaussian", "--n", "200",
                 "--seed", str(seed), "--out", path]) == 0
    planted = np.flatnonzero(load_instance(path).ground_truth)
    assert planted.size == 2
    capsys.readouterr()
    assert main([argv[0], "--instance", path, *argv[1:]]) == 0
    out = capsys.readouterr().out
    assert "nonzeros:    2\n" in out
    printed = [int(line[2:line.index("]")]) - 1
               for line in out.splitlines() if line.startswith("x[")]
    assert printed == planted.tolist()


def test_point_certificate_is_that_of_the_trimmed_point(capsys):
    # an entry of x that is round-off is trimmed, and the certificate is
    # that of the trimmed point: 0 here, where the untrimmed point would
    # read 1e-12
    inst = LcpInstance(np.ones((2, 2)), np.array([-1.0, -1.0]))
    cli._print_point(inst, np.array([1.0, 1e-12]))
    out = capsys.readouterr().out
    assert "certificate: 0.000000e+00\n" in out
    assert "nonzeros:    1\n" in out
    assert [ln for ln in out.splitlines() if ln.startswith("x[")] == \
        [f"x[1] = {_fmt(1.0)}"]


def test_lemke_pivot_limit_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lemke, "_PIVOTS_PER_ROW", 0)
    path = write_instance(tmp_path, np.eye(2), [-1.0, -2.0])
    assert main(["lemke", "--instance", path]) == 2
    assert "pivot limit" in capsys.readouterr().err


def test_log_levels(tmp_path):
    # in a fresh interpreter: pytest's log capture would make the CLI's
    # logging.basicConfig a no-op in this one
    path = write_instance(tmp_path, np.eye(2), [-1.0, -2.0])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "SPARSE_LCP_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))
    for value, code, info, debug in ((None, 0, False, False),
                                     ("OFF", 0, False, False),
                                     ("info", 0, True, False),
                                     ("Trace", 0, True, True),
                                     ("bogus", 1, False, False)):
        run_env = env if value is None else {**env, "SPARSE_LCP_LOG": value}
        proc = subprocess.run(
            [sys.executable, "-m", "sparselcp.cli", "lemke", "--instance",
             path], env=run_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, (value, proc.stderr)
        assert ("sparselcp.lemke INFO lemke start" in proc.stderr) == info
        assert ("sparselcp.lemke DEBUG pivot 2" in proc.stderr) == debug
        if code == 1:
            # rejected before the instance is read or a pivot is made
            assert proc.stdout == ""
            assert proc.stderr == ("error: SPARSE_LCP_LOG must be off, info "
                                   "or trace, not 'bogus'\n")
        else:
            assert "pivots:      3" in proc.stdout


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
    # so are an r that phi_r does not take, a fifth field, a cell
    # without n and a grid without cells
    for grid in ("oops", "20:-:0", "40:41", "40:2:2:0", "40:2;40:41",
                 "20:-:inf", "40:2:2:2:99", ":2", ";"):
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
