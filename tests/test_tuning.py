"""Tests for the geometric sparsity-budget search and Lemke seeding."""

import dataclasses

import numpy as np
import pytest

from sparselcp import tuning
from sparselcp.core import LcpInstance, SolveReport, SolverConfig, Termination
from sparselcp.merit import MeritModel
from sparselcp.nhtp import solve
from sparselcp.problems import GeneratorSpec, generate, is_success
from sparselcp.tuning import (TuningConfig, lemke_seeded_s, nhtpt_solve,
                              support_count)

PHI2 = MeritModel.phi_r(2)


def test_config_validation():
    with pytest.raises(ValueError):
        TuningConfig(s0=0)
    for bad in (dict(rho=1.0), dict(rho=np.inf), dict(eps=0.0),
                dict(eps=np.inf)):
        with pytest.raises(ValueError):
            TuningConfig(**bad)


@pytest.mark.parametrize("s0", [1.5, 2.0, np.float64(1.0)])
def test_starting_budget_must_be_an_integer(s0):
    # a float s0 used to build and then fail in the first round's solve
    with pytest.raises(TypeError):
        TuningConfig(s0=s0)
    assert TuningConfig(s0=np.int32(2)).s0_for(10) == 2


def test_default_schedule_parameters():
    cfg = TuningConfig()
    assert cfg.s0_for(4999) == 1
    assert cfg.s0_for(5001) == 2
    assert cfg.rho_for(100) == 2.0
    assert cfg.rho_for(10**6) == 6.0
    assert TuningConfig(s0=9, rho=3.5).s0_for(10) == 9
    assert TuningConfig(s0=9, rho=3.5).rho_for(10) == 3.5


def test_trivial_instance_accepts_first_round():
    inst = LcpInstance(np.eye(3), np.array([1.0, 0.5, 0.0]))
    report, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1))
    assert rounds == 1
    assert report.objective == 0.0
    assert report.termination is Termination.RESIDUAL_MET
    assert report.support.size == 1


def test_budget_doubles_until_acceptance():
    # planted sparsity 4: the s = 1 and s = 2 rounds cannot reach it, and
    # the s = 4 round lands it, so the schedule 1, 2, 4 accepts in round 3
    inst = generate(GeneratorSpec("sdp_gaussian", 40, s_star=4, m=20, seed=8))
    report, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1),
                                 TuningConfig(s0=1, rho=2))
    assert rounds == 3
    assert report.support.size == 4
    assert report.objective < 1e-8
    assert is_success(report.x, inst.ground_truth)


def test_round_count_matches_direct_solves():
    # rerunning the fixed-budget solver over the same schedule reproduces
    # the tuning loop's acceptance decision round for round
    inst = generate(GeneratorSpec("sdp_gaussian", 40, s_star=4, m=20, seed=8))
    tuning = TuningConfig(s0=1, rho=2)
    schedule = []
    s = 1
    while len(schedule) < 6:
        schedule.append(s)
        s = min(2 * s, 40)
    objectives = [solve(inst, PHI2, SolverConfig(s=si)).objective
                  for si in schedule]
    first_hit = next(i for i, f in enumerate(objectives) if f < tuning.eps)
    report, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1), tuning)
    assert rounds == first_hit + 1
    assert report.objective == objectives[first_hit]


def test_unaccepted_search_returns_best_round():
    # merit bounded below by 1: no round can be accepted, so the search
    # reports its best objective flagged as capped
    inst = LcpInstance(np.zeros((2, 2)), np.array([-1.0, -1.0]))
    report, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1),
                                 TuningConfig(s0=1, rho=10))
    assert rounds == 2  # budgets 1 then 2 = n, then the schedule saturates
    assert report.termination is Termination.ITERATION_CAP
    assert report.objective >= 1.0 - 1e-12


def test_failed_line_search_keeps_its_termination(monkeypatch):
    # q = -1e300 overflows the merit at zero only in the units of (M, q):
    # the solver's equilibrated units solve it in the first round
    inst = LcpInstance(np.eye(1), np.array([-1e300]))
    report, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1))
    assert rounds == 1
    assert report.x.tolist() == [1e300]
    assert report.termination is Termination.RESIDUAL_MET
    # on M = 1, q = 1 a start of 1e300 overflows the merit, and rounds
    # start from zero, so the solver is made to start there: the only
    # round's line search fails, and the search must not report that as
    # a capped budget
    real = tuning.nhtp.solve
    monkeypatch.setattr(tuning.nhtp, "solve", lambda inst, model, config:
                        real(inst, model, config, x0=np.full(inst.n, 1e300)))
    inst = LcpInstance(np.eye(1), np.array([1.0]))
    with np.errstate(over="ignore"):
        report, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1))
    assert rounds == 1
    assert report.termination is Termination.LINE_SEARCH_FAILED


def test_certified_round_is_accepted_whatever_its_merit(monkeypatch):
    # a certified point is a solution even when its merit sits above eps
    # (phi_r of a large solution on degenerate rows): the first such
    # round is accepted and keeps its termination
    calls = []

    def certified(inst, model, config):
        calls.append(config.s)
        return SolveReport(x=np.zeros(inst.n), support=np.arange(config.s),
                           objective=1.0, residual=1.0, iterations=1,
                           wall_time=0.0, termination=Termination.CERTIFIED)

    monkeypatch.setattr(tuning.nhtp, "solve", certified)
    inst = LcpInstance(np.eye(4), -np.ones(4))
    report, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1),
                                 TuningConfig(s0=1, rho=2))
    assert rounds == 1 and calls == [1]
    assert report.termination is Termination.CERTIFIED
    assert report.objective == 1.0


def test_max_rounds_truncates_schedule(monkeypatch):
    monkeypatch.setattr(tuning, "_MAX_ROUNDS", 2)
    inst = generate(GeneratorSpec("sdp_gaussian", 40, s_star=4, m=20, seed=8))
    report, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1),
                                 TuningConfig(s0=1, rho=2))
    assert rounds == 2
    assert report.termination is Termination.ITERATION_CAP
    # the kept report is the better of the two attempted budgets
    f1 = solve(inst, PHI2, SolverConfig(s=1)).objective
    f2 = solve(inst, PHI2, SolverConfig(s=2)).objective
    assert report.objective == min(f1, f2)


def test_solves_family_without_ground_truth():
    inst = generate(GeneratorSpec("sdp_uniform_nox", 60, s_star=5, seed=3))
    report, rounds = nhtpt_solve(inst, PHI2, SolverConfig(s=1))
    assert report.objective < 1e-8
    assert rounds == 2  # budgets 1, 2: the finish certifies at s = 2
    y = inst.M @ report.x + inst.q
    assert report.x.min() >= -1e-9 and y.min() >= -1e-9


def test_config_object_is_not_mutated():
    inst = LcpInstance(np.eye(2), np.array([-1.0, 2.0]))
    cfg = SolverConfig(s=1)
    nhtpt_solve(inst, PHI2, cfg, TuningConfig(s0=1, rho=2))
    assert cfg.s == 1
    assert dataclasses.asdict(cfg) == dataclasses.asdict(SolverConfig(s=1))


def test_support_count_thresholding():
    assert support_count(np.zeros(4)) == 0
    assert support_count(np.array([0.0, 1e-12, 0.5])) == 1
    assert support_count(np.array([1e8, 1e-3])) == 1  # relative threshold
    assert support_count(np.array([1e-8])) == 1       # absolute floor
    assert support_count(np.array([1e-10])) == 0


def test_lemke_seeding():
    assert lemke_seeded_s(LcpInstance(np.eye(2), np.array([1.0, 0.0]))) == 0
    inst = generate(GeneratorSpec("sdp_gaussian", 40, s_star=4, m=20, seed=8))
    assert lemke_seeded_s(inst) == 4
