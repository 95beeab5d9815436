"""Seeded inputs for the generated workloads: a directed ring plus chords.

The ring i -> i+1 keeps every graph strongly connected. Each agent then
sends two chords to distinct random agents other than itself and its ring
successor. In-degree is capped at MAX_IN_NEIGHBORS so that a weight floor
of 0.1 stays feasible: a row of A holds in-degree + 1 entries, each >= 0.1.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

MAX_IN_NEIGHBORS = 9
CHORDS_PER_AGENT = 2


def ring_with_chords(n: int, rng: np.random.Generator) -> list[list[int]]:
    """1-based [src, dst] edges: the ring plus CHORDS_PER_AGENT chords per agent."""
    if n < CHORDS_PER_AGENT + 2:
        raise ValueError(f"need n >= {CHORDS_PER_AGENT + 2} agents for {CHORDS_PER_AGENT} chords each")
    edges = {(i, (i + 1) % n) for i in range(n)}
    in_deg = np.ones(n, dtype=int)
    for i in range(n):
        added = 0
        while added < CHORDS_PER_AGENT:
            j = int(rng.integers(n))
            if j == i or (i, j) in edges or in_deg[j] >= MAX_IN_NEIGHBORS:
                continue
            edges.add((i, j))
            in_deg[j] += 1
            added += 1
    return [[a + 1, b + 1] for a, b in sorted(edges)]


def write_config(
    path: Path,
    *,
    n: int,
    weight_mode: str,
    p: int,
    d: int,
    alpha: float,
    K: int,
    seed: int,
    output_dir: str,
) -> Path:
    """Write a `wgtsim run` config whose graph and seeds all follow from `seed`."""
    rng = np.random.default_rng(seed)
    edges = ring_with_chords(n, rng)
    weight_seed, objective_seed, init_seed = (int(s) for s in rng.integers(0, 2**31, size=3))
    cfg = {
        "schema": 1,
        "graph": {"n": n, "edges": edges},
        "weights": {"mode": weight_mode, "a_floor": 0.1, "b_floor": 0.1, "seed": weight_seed},
        "objective": {"n": n, "d": d, "p": p, "r": 0.01, "seed": objective_seed},
        "algorithm": {
            "mode": "wgt",
            "alpha": alpha,
            "lambda": {"e": 0.8, "m": 10.0},
            "K": K,
            "init_seed": init_seed,
        },
        "report": {"output_dir": output_dir, "residual_threshold": 1.0e-6},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(cfg, default_flow_style=None, sort_keys=False))
    return path
