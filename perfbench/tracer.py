"""Spans around wgtsim's public entry points, patched in from outside.

Each wrapped name is replaced, in the namespace its caller looks it up in,
by a function that records (name, start, end, parent, note) in memory and
calls the original. `restore` puts every original back. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from wgtsim import cli, engine, monitor
from wgtsim.graph import DirectedGraph
from wgtsim.objective import ObjectiveEnsemble
from wgtsim.weights import WeightSchedule


def _note_run(args, result):
    report, transcript = result
    tr_bytes = 0 if transcript is None else transcript.x_msgs.nbytes + transcript.y_msgs.nbytes
    return report.K, report.iterations_to_threshold() or 0, tr_bytes


def _note_replay(args, result):
    return args[2].K


def _note_rows(args, result):
    ensemble, x = args[0], args[1]
    return x.shape[0], ensemble.n


def _draw_or_lookup(args):
    return "weights.lookup" if args[0].mode == "static" else "weights.draw"


# (owner, attribute, span name or name-from-args, note-from-(args, result))
TARGETS = [
    (cli, "load_config", "cli.config", None),
    (cli, "resolve", "cli.config", None),
    (cli, "build_scenario", "cli.build", None),
    (cli, "run", "engine.run", _note_run),
    (cli, "replay", "engine.replay", _note_replay),
    (engine, "replay", "engine.replay", _note_replay),
    (cli, "infer_gradient", "adversary.attack", None),
    (cli, "audit_state_system", "adversary.audit", None),
    (cli, "audit_gradient_system", "adversary.audit", None),
    (cli, "admissibility_report", "monitor.admissibility", None),
    (cli, "make_sensor_scenario", "objective.build", None),
    (engine, "phi_static", "weights.phi", None),
    (monitor, "metric_vector", "monitor.metric", None),
    (ObjectiveEnsemble, "gradients", "objective.grad", _note_rows),
    (ObjectiveEnsemble, "global_optimum", "objective.optimum", None),
    (WeightSchedule, "__post_init__", "weights.build", None),
    (WeightSchedule, "matrices_at", _draw_or_lookup, None),
    (DirectedGraph, "in_neighbors", "graph.neighbors", None),
    (DirectedGraph, "out_neighbors", "graph.neighbors", None),
    (DirectedGraph, "is_strongly_connected", "graph.connectivity", None),
]


class Tracer:
    """In-memory span recorder. Use as a context manager: patches on entry,
    restores every original name on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, note]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, note in TARGETS:
                self._wrap(owner, attr, name, note)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
        spans.append(span)
        stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, owner, attr: str, name, note) -> None:
        original = vars(owner)[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name(args) if callable(name) else name, clock(), 0.0,
                    stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_s", "end_s", "parent"])
            for name, start, end, parent, _ in self.spans:
                out.writerow([name, repr(start), repr(end), parent])


def layer_metrics(spans: list[list], output_iterations: int) -> dict[str, float]:
    """Per-layer counts, busy (self) times and per-call times from one traced pass.

    output_iterations is the iteration count the pass's outputs report; over
    the iterations the gradient calls amount to, it gives engine.useful_frac.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    notes: dict[str, list] = defaultdict(list)
    for i, (name, _, _, _, note) in enumerate(spans):
        total[name] += dur[i]
        own[name] += dur[i] - child[i]
        count[name] += 1
        if note is not None:
            notes[name].append(note)

    def busy(layer: str) -> float:
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    def per_call_us(name: str) -> float:
        return total[name] / count[name] * 1e6 if count[name] else 0.0

    runs = notes["engine.run"]
    run_iters = sum(r[0] for r in runs)
    replay_iters = sum(notes["engine.replay"])
    grad_iters = sum(rows / n for rows, n in notes["objective.grad"])
    return {
        "graph.neighbor_calls": count["graph.neighbors"],
        "graph.busy_s": busy("graph"),
        "weights.draw_calls": count["weights.draw"],
        "weights.draw_us": per_call_us("weights.draw"),
        "weights.busy_s": busy("weights"),
        "weights.phi_s": total["weights.phi"],
        "weights.build_s": total["weights.build"],
        "objective.grad_calls": count["objective.grad"],
        "objective.grad_rows": sum(rows for rows, _ in notes["objective.grad"]),
        "objective.grad_us": per_call_us("objective.grad"),
        "objective.busy_s": busy("objective"),
        "objective.build_s": total["objective.build"] + total["objective.optimum"],
        "engine.self_s": own["engine.run"],
        "engine.self_us_per_iter": own["engine.run"] / run_iters * 1e6 if run_iters else 0.0,
        "engine.iterations": run_iters + replay_iters,
        "engine.its_to_threshold": sum(r[1] for r in runs),
        "engine.useful_frac": output_iterations / grad_iters if grad_iters else 0.0,
        "engine.transcript_mb": sum(r[2] for r in runs) / 1e6,
        "engine.replay_us_per_iter": (
            total["engine.replay"] / replay_iters * 1e6 if replay_iters else 0.0
        ),
        "monitor.metric_calls": count["monitor.metric"],
        "monitor.metric_us": per_call_us("monitor.metric"),
        "monitor.busy_s": busy("monitor"),
        "monitor.admissibility_s": total["monitor.admissibility"],
        "adversary.attack_s": total["adversary.attack"],
        "adversary.audit_s": total["adversary.audit"],
        "cli.config_s": total["cli.config"] + own["cli.build"],
        "cli.self_s": own["cli.command"],
    }
