"""Measure one workload and return the benchmark's result object.

Untraced (trace=False): the mean wall time of the back-to-back passes that
fit in `seconds`, set-up time as the median of set-ups repeated before each
pass, both scaled by a reference chunk timed between ops, and the resident
memory the first pass adds at its peak. Traced (trace=True): untraced and
traced passes alternate over `seconds`; the per-layer metrics are medians
over the traced passes, and trace.overhead_frac compares the two kinds of
pass.

Ops run closed-loop, one at a time, in this process. Outputs are checked
after each pass, outside the timed region.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
import workloads

END_TO_END = {"setup_s": "s", "wall_s": "s", "iter_us": "us", "peak_mb": "MB"}
PER_LAYER = {
    "graph.neighbor_calls": "count",
    "graph.busy_s": "s",
    "weights.draw_calls": "count",
    "weights.draw_us": "us",
    "weights.busy_s": "s",
    "weights.phi_s": "s",
    "weights.build_s": "s",
    "objective.grad_calls": "count",
    "objective.grad_rows": "count",
    "objective.grad_us": "us",
    "objective.busy_s": "s",
    "objective.build_s": "s",
    "engine.self_s": "s",
    "engine.self_us_per_iter": "us",
    "engine.iterations": "count",
    "engine.its_to_threshold": "count",
    "engine.useful_frac": "ratio",
    "engine.transcript_mb": "MB",
    "engine.replay_us_per_iter": "us",
    "monitor.metric_calls": "count",
    "monitor.metric_us": "us",
    "monitor.busy_s": "s",
    "monitor.admissibility_s": "s",
    "adversary.attack_s": "s",
    "adversary.audit_s": "s",
    "cli.config_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.outputs_identical": "count",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
}

# The host's speed drifts by up to 35% over minutes (NOTES.md, "Noise"). A
# fixed chunk of work that shares no code with wgtsim runs after every op,
# once plus once per second of the op, and the untraced run scales its times
# by REFERENCE_S over the chunk's mean time in the run: they are seconds on a
# host where the chunk takes REFERENCE_S.
REFERENCE_S = 0.020

# Set-up takes milliseconds on sensor-6. It is repeated before every timed
# pass until both hold, so that its samples spread over the whole run.
SETUP_REPS_PER_PASS = 2
SETUP_SECONDS_PER_PASS = 0.25


@dataclass
class OpError:
    text: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def reference_chunk() -> float:
    """Time a fixed mix of work like wgtsim's that calls none of its code: an
    interpreter loop, 6x6 matrix products as on sensor-6, neighbour scans
    over an edge list, and the np.add.at scatter and batched einsum of a
    400-agent network."""
    rng = np.random.default_rng(0)
    edges = [(int(i), int(j)) for i, j in rng.integers(0, 400, (1200, 2))]
    a, x = rng.random((6, 6)) / 6.0, np.ones((6, 3))
    index, rows = rng.integers(0, 400, 1200), rng.random((1200, 3))
    blocks, vectors = rng.random((400, 16, 16)), rng.random((400, 16))
    out = np.zeros((400, 3))
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    for k in range(50):
        [j for i, j in edges if i == k]
    y = x
    for _ in range(3_000):
        y = a @ y + x
    for _ in range(60):
        np.add.at(out, index, rows)
    for _ in range(60):
        np.einsum("nij,nj->ni", blocks, vectors)
    return time.perf_counter() - start


def run_pass(wl: workloads.Workload, trace: tracer.Tracer | None = None,
             reference: list[float] | None = None) -> tuple[float, list]:
    """Run every op of the workload once; return the summed op wall time and
    the op results. With `reference`, append reference_chunk times after each op."""
    for op in wl.ops:
        if op.out_dir is not None:
            shutil.rmtree(op.out_dir, ignore_errors=True)
    results, wall = [], 0.0
    for op in wl.ops:
        span = trace.span("cli.command") if trace and op.is_command else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                results.append(op.run())
        except (Exception, SystemExit):
            results.append(OpError(traceback.format_exc()))
        took = time.perf_counter() - start
        wall += took
        if reference is not None:
            reference.extend(reference_chunk() for _ in range(1 + int(took)))
    return wall, results


def check_pass(wl: workloads.Workload, results: list, tally: Tally) -> list[workloads.Outcome]:
    outcomes = []
    for op, result in zip(wl.ops, results):
        if isinstance(result, OpError):
            outcome = workloads.Outcome([result.text])
        else:
            try:
                outcome = op.check(result)
            except Exception:
                outcome = workloads.Outcome([f"output check raised:\n{traceback.format_exc()}"])
        tally.attempted += 1
        if outcome.problems:
            tally.failed += 1
            print(f"{wl.name}/{op.name} failed: " + "; ".join(outcome.problems), file=sys.stderr)
        outcomes.append(outcome)
    return outcomes


def _expected_end(start: float, passes: int) -> float:
    """Seconds since start at which half of one more pass will have run."""
    return (time.perf_counter() - start) * (passes + 0.5) / passes


def _rss_mb() -> float:
    """Resident memory of this process now, from /proc/self/statm."""
    return int(Path("/proc/self/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def _peak_rss_mb() -> float:
    """Highest resident memory of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _untraced(wl: workloads.Workload, seconds: float, tally: Tally) -> dict[str, float]:
    # A pass starts only if it is expected to end nearer to `seconds` than
    # the passes before it, so a run takes about `seconds` whatever the pass
    # length. The first pass gives peak_mb, so it runs no reference chunks,
    # whose arrays would add to the peak; there are at least two passes.
    setups, walls, refs, iterations = [], [], [], 0
    start = time.perf_counter()
    while len(walls) < 2 or _expected_end(start, len(walls)) <= seconds:
        block, reps = time.perf_counter(), 0
        while reps < SETUP_REPS_PER_PASS or time.perf_counter() - block < SETUP_SECONDS_PER_PASS:
            setups.append(wl.setup_seconds())
            reps += 1
        gc.collect()
        rss_before = _rss_mb()
        wall, results = run_pass(wl, reference=refs if walls else None)
        if not walls:  # later passes start with the previous pass's results still held
            peak = _peak_rss_mb() - rss_before
        walls.append(wall)
        iterations = sum(o.iterations for o in check_pass(wl, results, tally))

    # The mean, not the median, of a few passes: the host's speed swings
    # over seconds, and the mean averages them over the whole run.
    scale = REFERENCE_S / statistics.fmean(refs)
    wall = statistics.fmean(walls) * scale
    print(f"{wl.name}: {len(setups)} set-ups, {len(walls)} timed passes "
          f"({', '.join(f'{w:.3f}' for w in walls)} s as measured), "
          f"{len(refs)} reference chunks (mean {statistics.fmean(refs) * 1e3:.2f} ms, "
          f"scale {scale:.4f}), {iterations} iterations per pass")
    return {
        "setup_s": statistics.median(setups) * scale,
        "wall_s": wall,
        "iter_us": wall / max(iterations, 1) * 1e6,
        "peak_mb": peak,
    }


def _traced(wl: workloads.Workload, seconds: float, tally: Tally, spans_path: Path) -> dict[str, float]:
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or _expected_end(start, len(traced)) <= seconds:
        gc.collect()
        wall, results = run_pass(wl)
        untraced.append(wall)
        check_pass(wl, results, tally)
        gc.collect()
        with tracer.Tracer() as trace:
            wall, results = run_pass(wl, trace)
        traced.append(wall)
        outcomes = check_pass(wl, results, tally)
        layer = tracer.layer_metrics(trace.spans, sum(o.iterations for o in outcomes))
        layer["cli.output_bytes"] = sum(o.output_bytes for o in outcomes)
        layer["cli.outputs_identical"] = sum(o.identical for o in outcomes)
        layers.append(layer)
    trace.write(spans_path)

    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["fail_frac"] = tally.failed / tally.attempted
    print(f"{wl.name}: {len(traced)} traced and {len(untraced)} untraced passes")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path,
            tiny: bool = False) -> dict:
    """Run one workload and return {correct, attempted, failed, metrics}."""
    wl = workloads.build(name, seed, root, work, tiny)
    tally = Tally()
    if trace:
        values, units = _traced(wl, seconds, tally, work / "spans.csv"), PER_LAYER
    else:
        values, units = _untraced(wl, seconds, tally), END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units.items()},
    }
