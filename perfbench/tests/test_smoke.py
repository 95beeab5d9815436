"""Smoke test for the benchmark harness, at tiny sizes.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _wrapped_names() -> dict:
    return {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracer.TARGETS}


def test_metric_tables_match_benchmark_json():
    assert bench.END_TO_END == _units("end_to_end")
    assert bench.PER_LAYER == _units("per_layer")
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.NAMES


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_emitted(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_SECONDS_PER_PASS", 0.0)
    before = _wrapped_names()
    result = bench.measure(name, seed=1, seconds=0.0, trace=trace, root=ROOT, work=tmp_path, tiny=True)
    assert _wrapped_names() == before, "the traced run left a wrapped name behind"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.PER_LAYER if trace else bench.END_TO_END)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace:
        assert (tmp_path / "spans.csv").stat().st_size > 0
