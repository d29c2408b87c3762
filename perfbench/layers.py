"""Span tracing at the package's layer boundaries and the per-layer metrics.

A ``Tracer`` rebinds public functions where their callers look them up
(``nhtp.line_search``, the names ``cli`` imports, ``Tableau.pivot``, ...)
with wrappers that record one span per call: name, start, end, parent
span and a note about the outcome.  Spans stay in memory; ``write`` dumps
them once at the end.  Self time is a span's duration minus the durations
of its children (the code is single-threaded, so children never overlap).
"""

import json
import os
import time
from collections import defaultdict

from sparselcp import cli, lemke, merit, nhtp, problems
from sparselcp.tuning import TuningConfig

_ACCEPT_EPS = TuningConfig().eps


def _accepted(args, result):
    return result is not None


def _size(args, result):
    return args[-1].shape[0]  # x in gradient_from_xy(model, M, x, y)


def _pivot_size(args, result):
    return args[0].body.shape[0]  # self.body in Tableau.pivot(self, ...)


def _file_bytes(args, result):
    return os.path.getsize(args[1])  # save_instance(inst, path)


def _tune_accepted(args, result):
    return result[0].objective < _ACCEPT_EPS


def _iterations(args, result):
    return result.iterations


def _exit_code(args, result):
    return result


def _cli_command(args):
    return f"cli.{args[0][0]}"  # main(argv): one span per subcommand


# (span name or name(args), owner, attribute, note(args, result) or None).
# The owner is where the caller looks the name up, so rebinding it there
# is seen.
POINTS = (
    ("problems.generate", problems, "generate", None),
    ("problems.generate", cli, "generate", None),
    ("merit.hessian", merit, "merit_hessian", None),
    ("merit.gradient", merit, "gradient_from_xy", _size),
    ("merit.value", merit, "value_from_xy", None),
    ("nhtp.solve", nhtp, "solve", _iterations),
    ("nhtp.select", nhtp, "select_support", None),
    ("nhtp.newton", nhtp, "newton_direction", _accepted),
    ("nhtp.line_search", nhtp, "line_search", _accepted),
    ("core.dense_solve", nhtp, "dense_solve", None),
    ("core.save", cli, "save_instance", _file_bytes),
    ("core.load", cli, "load_instance", None),
    ("lemke.solve", cli, "lemke_solve", None),
    ("lemke.pivot", lemke.Tableau, "pivot", _pivot_size),
    ("tuning.solve", cli, "nhtpt_solve", _tune_accepted),
    (_cli_command, cli, "main", _exit_code),
)


class Tracer:
    """Records spans while installed; a span is [name, start, end,
    parent index or -1, note].  On an exception the note is the
    exception's class name."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def __enter__(self):
        for name, owner, attr, note in POINTS:
            fn = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, note))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans}, fh)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics from one traced pass: name -> (value, unit)."""
    calls = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)  # per span index: time covered by children
    notes = defaultdict(list)
    for name, start, end, parent, note in spans:
        calls[name] += 1
        total[name] += end - start
        notes[name].append(note)
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - child[i]
    trials = sum(1 for name, _, _, parent, _ in spans
                 if name == "merit.value" and parent >= 0
                 and spans[parent][0] == "nhtp.line_search")
    rounds = sum(1 for name, _, _, parent, _ in spans
                 if name == "nhtp.solve" and parent >= 0
                 and spans[parent][0] == "tuning.solve")
    iterations = sum(n for n in notes["nhtp.solve"] if isinstance(n, int))
    retries = notes["nhtp.line_search"].count(False)
    grad_n = [n for n in notes["merit.gradient"] if isinstance(n, int)]
    pivot_n = [n for n in notes["lemke.pivot"] if isinstance(n, int)]
    lemke_notes = notes["lemke.solve"]
    cli_notes = [n for k in ("cli.gen", "cli.lemke", "cli.tune")
                 for n in notes[k]]
    s, count, flop, byte = "s", "count", "flop", "B"
    return {
        "problems.generate_s": (total["problems.generate"], s),
        "merit.hessian_calls": (calls["merit.hessian"], count),
        "merit.hessian_s": (total["merit.hessian"], s),
        "merit.gradient_calls": (calls["merit.gradient"], count),
        "merit.gradient_s": (total["merit.gradient"], s),
        "merit.gradient_flops_computed": (sum(2 * n * n for n in grad_n),
                                          flop),
        "merit.gradient_bytes_computed": (sum(8 * n * n for n in grad_n),
                                          byte),
        "merit.value_calls": (calls["merit.value"], count),
        "merit.value_s": (total["merit.value"], s),
        "nhtp.iterations": (iterations, count),
        "nhtp.eta_retries": (retries, count),
        "nhtp.step_accept_ratio": (_ratio(iterations, iterations + retries),
                                   "ratio"),
        "nhtp.line_search_calls": (calls["nhtp.line_search"], count),
        "nhtp.line_search_trials": (trials, count),
        "nhtp.line_search_self_s": (self_s["nhtp.line_search"], s),
        "nhtp.newton_calls": (calls["nhtp.newton"], count),
        "nhtp.newton_accept_ratio": (
            _ratio(notes["nhtp.newton"].count(True), calls["nhtp.newton"]),
            "ratio"),
        "nhtp.newton_self_s": (self_s["nhtp.newton"], s),
        "nhtp.select_calls": (calls["nhtp.select"], count),
        "nhtp.select_s": (total["nhtp.select"], s),
        "nhtp.solve_self_s": (self_s["nhtp.solve"], s),
        "core.dense_solve_calls": (calls["core.dense_solve"], count),
        "core.dense_solve_s": (total["core.dense_solve"], s),
        "core.singular_count": (
            notes["core.dense_solve"].count("SingularError"), count),
        "core.save_s": (total["core.save"], s),
        "core.load_s": (total["core.load"], s),
        "core.file_bytes": (sum(n for n in notes["core.save"]
                                if isinstance(n, int)), byte),
        "lemke.pivots": (calls["lemke.pivot"], count),
        "lemke.pivot_s": (total["lemke.pivot"], s),
        "lemke.pivot_flops_computed": (
            sum(2 * n * (2 * n + 2) for n in pivot_n), flop),
        "lemke.pivot_bytes_computed": (
            sum(16 * n * (2 * n + 2) for n in pivot_n), byte),
        "lemke.solve_self_s": (self_s["lemke.solve"], s),
        "lemke.ray_count": (lemke_notes.count("RayTermination"), count),
        "lemke.pivot_limit_count": (lemke_notes.count("PivotLimit"), count),
        "tuning.rounds": (rounds, count),
        "tuning.wasted_rounds": (
            rounds - notes["tuning.solve"].count(True), count),
        "tuning.solve_s": (total["tuning.solve"], s),
        "cli.nonzero_exits": (sum(1 for n in cli_notes if n != 0), count),
        "cli.gen_s": (total["cli.gen"], s),
        "cli.lemke_s": (total["cli.lemke"], s),
        "cli.tune_s": (total["cli.tune"], s),
    }
