"""Command-line interface: config ingestion, runs, sweeps, attacks, audits.

Subcommands: run, sweep, attack, audit, validate. Configuration is a YAML
file with a versioned ``schema`` field and nested sections; unknown keys are
rejected so typos fail loudly, and every value is checked where it enters.
Exit codes: 0 success, 2 configuration error, 3 divergence, 4 inconclusive
attack, 5 numerical failure.

Reports are deterministic: the CSV body is a pure function of the resolved
config (floats are printed with repr, the shortest round-trip form), so
identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .adversary import (
    TwoAgentObservations,
    audit_gradient_system,
    audit_state_system,
    infer_gradient,
)
from .engine import LambdaSchedule, Scenario, StepSizes, check_steps, replay, run
from .errors import ConfigError, DivergenceError, NumericalError
from .graph import DirectedGraph, directed_ring, sensor_network_6
from .monitor import admissibility_report
from .objective import make_sensor_scenario
from .weights import WeightSchedule

SCHEMA_VERSION = 1
RNG_FAMILY = "numpy default_rng (PCG64)"

CSV_HEADER = "k,residual,consensus_error,tracking_error,lambda_k"
SWEEP_CSV_HEADER = (
    "kind,alpha,e,m,objective_seed,init_seed,status,iterations_to_threshold,terminal_residual"
)

_TOP_KEYS = {"schema", "graph", "weights", "objective", "algorithm", "report", "sweep", "attack", "audit"}
_GRAPH_KEYS = {"preset", "n", "edges"}
_WEIGHT_KEYS = {"mode", "a_floor", "b_floor", "seed"}
_OBJECTIVE_KEYS = {"n", "d", "p", "r", "seed"}
_ALGO_KEYS = {"mode", "alpha", "lambda", "K", "init_seed"}
_LAMBDA_KEYS = {"e", "m"}
_REPORT_KEYS = {
    "output_dir",
    "residual_threshold",
    "record_transcript",
    "admissibility",
    "admissibility_horizon",
    "divergence_cap",
}
_SWEEP_KEYS = {"alpha", "e", "seeds", "K"}
_SWEEP_ALPHA_KEYS = {"grid", "e", "m"}
_SWEEP_E_KEYS = {"grid", "alpha", "m"}
_ATTACK_KEYS = {"target", "stabilization_tol", "window"}
_AUDIT_KEYS = {"K", "honest", "attacker"}

# libyaml's parser where PyYAML was built with it: the same dicts, parsed 4-7x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}")


def _section(cfg: dict, name: str, allowed: set, required: bool = True) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"missing required section '{name}'")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    _check_keys(sec, allowed, f"section '{name}'")
    return sec


def _as_float(value, where: str) -> float:
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return x


def _as_int(value, where: str, lo: int | None = None, hi: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ConfigError(f"{where} must be {bounds}, got {value}")
    return value


def _as_grid(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return sorted(_as_float(v, f"{where}[i]") for v in value)


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _check_law(mode: str, alphas: list[float], lam: dict | None, where: str) -> None:
    """Check step sizes and the gradient-weight schedule by the engine's rules."""
    try:
        check_steps(mode, StepSizes(np.array(alphas)))
        if lam is not None:
            LambdaSchedule(lam["e"], lam["m"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path: str | Path) -> dict:
    """Parse and structurally validate a YAML config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(cfg, _TOP_KEYS, "config root")
    schema = cfg.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema must be {SCHEMA_VERSION}, got {schema!r}")
    return cfg


def build_graph(cfg: dict) -> DirectedGraph:
    sec = _section(cfg, "graph", _GRAPH_KEYS)
    preset = sec.get("preset")
    if preset is not None:
        if "edges" in sec or "n" in sec:
            raise ConfigError("graph: give either a preset or an explicit edge list, not both")
        if preset == "sensor-6":
            return sensor_network_6()
        ring = re.fullmatch(r"ring-(\d+)", str(preset))
        if ring:
            return directed_ring(_as_int(int(ring.group(1)), f"graph preset {preset}: n", lo=2))
        raise ConfigError(f"unknown graph preset {preset!r} (known: sensor-6, ring-<n>)")
    if "edges" not in sec or "n" not in sec:
        raise ConfigError("graph: need a preset, or both n and edges")
    edges = sec["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 for e in edges
    ):
        raise ConfigError("graph.edges must be a list of [src, dst] pairs")
    pairs = tuple((_as_int(a, "graph.edges[i]"), _as_int(b, "graph.edges[i]")) for a, b in edges)
    try:  # agent count, self-loops, duplicates, ids outside 1..n
        graph = DirectedGraph(_as_int(sec["n"], "graph.n"), pairs)
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}") from None
    if not graph.is_strongly_connected():
        raise ConfigError("graph is not strongly connected")
    return graph


def resolve(
    cfg: dict, overrides: argparse.Namespace | None = None, graph: DirectedGraph | None = None
) -> dict:
    """Fill defaults, apply CLI overrides, cross-validate. Returns a plain
    dict that fully determines a run (the reproducibility header). graph is
    build_graph(cfg), if the caller has built it already."""
    if graph is None:
        graph = build_graph(cfg)
    wsec = _section(cfg, "weights", _WEIGHT_KEYS, required=False)
    osec = _section(cfg, "objective", _OBJECTIVE_KEYS)
    asec = _section(cfg, "algorithm", _ALGO_KEYS)
    rsec = _section(cfg, "report", _REPORT_KEYS, required=False)

    obj_n = _as_int(osec.get("n", graph.n), "objective.n")
    if obj_n != graph.n:
        raise ConfigError(f"objective.n = {obj_n} but the graph has {graph.n} agents")

    mode = asec.get("mode")
    if mode not in ("ab", "wgt"):
        raise ConfigError(f"algorithm.mode must be 'ab' or 'wgt', got {mode!r}")
    alpha = asec.get("alpha")
    if alpha is None:
        raise ConfigError("algorithm.alpha is required")
    if isinstance(alpha, list):
        if len(alpha) != graph.n:
            raise ConfigError(f"algorithm.alpha lists {len(alpha)} step sizes for {graph.n} agents")
        alpha_values = [_as_float(a, "algorithm.alpha[i]") for a in alpha]
    else:
        alpha_values = [_as_float(alpha, "algorithm.alpha")] * graph.n

    lam = None
    if mode == "wgt":
        lsec = asec.get("lambda")
        if not isinstance(lsec, dict):
            raise ConfigError("algorithm.lambda with fields e, m is required in wgt mode")
        _check_keys(lsec, _LAMBDA_KEYS, "algorithm.lambda")
        e = _as_float(lsec.get("e", 0.0), "algorithm.lambda.e")
        m = _as_float(lsec.get("m", 0.0), "algorithm.lambda.m")
        lam = {"e": e, "m": m}
    _check_law(mode, alpha_values, lam, "algorithm")
    K = _as_int(asec.get("K", 1), "algorithm.K", lo=1)
    r = _as_float(osec.get("r", 0.01), "objective.r")
    if r < 0:
        raise ConfigError(f"objective.r must be >= 0, got {r}")

    resolved = {
        "schema": SCHEMA_VERSION,
        "library": {"name": "wgtsim", "version": __version__, "rng_family": RNG_FAMILY},
        "graph": {"n": graph.n, "edges": [list(edge) for edge in graph.edges]},
        "weights": {
            "mode": wsec.get("mode", "static"),
            "a_floor": _as_float(wsec.get("a_floor", 0.1), "weights.a_floor"),
            "b_floor": _as_float(wsec.get("b_floor", 0.1), "weights.b_floor"),
            "seed": _as_int(wsec.get("seed", 0), "weights.seed", lo=0),
        },
        "objective": {
            "n": obj_n,
            "d": _as_int(osec.get("d", 3), "objective.d", lo=1),
            "p": _as_int(osec.get("p", 2), "objective.p", lo=1),
            "r": r,
            "seed": _as_int(osec.get("seed", 0), "objective.seed", lo=0),
        },
        "algorithm": {
            "mode": mode,
            "alpha": alpha_values,
            "lambda": lam,
            "K": K,
            "init_seed": _as_int(asec.get("init_seed", 0), "algorithm.init_seed", lo=0),
        },
        "report": {
            "output_dir": str(rsec.get("output_dir", ".")),
            "residual_threshold": _as_float(
                rsec.get("residual_threshold", 1e-6), "report.residual_threshold"
            ),
            "record_transcript": _as_bool(
                rsec.get("record_transcript", False), "report.record_transcript"
            ),
            "admissibility": _as_bool(rsec.get("admissibility", False), "report.admissibility"),
            "admissibility_horizon": _as_int(
                rsec.get("admissibility_horizon", 200), "report.admissibility_horizon", lo=1
            ),
            "divergence_cap": _as_float(rsec.get("divergence_cap", 1e12), "report.divergence_cap"),
        },
    }
    if overrides is not None:
        if getattr(overrides, "output_dir", None):
            resolved["report"]["output_dir"] = overrides.output_dir
        if getattr(overrides, "threshold", None) is not None:
            resolved["report"]["residual_threshold"] = _as_float(overrides.threshold, "--threshold")
        if getattr(overrides, "objective_seed", None) is not None:
            resolved["objective"]["seed"] = _as_int(overrides.objective_seed, "--objective-seed", 0)
        if getattr(overrides, "init_seed", None) is not None:
            resolved["algorithm"]["init_seed"] = _as_int(overrides.init_seed, "--init-seed", 0)
        if getattr(overrides, "weight_seed", None) is not None:
            resolved["weights"]["seed"] = _as_int(overrides.weight_seed, "--weight-seed", 0)
    return resolved


def build_scenario(
    resolved: dict, graph: DirectedGraph | None = None
) -> tuple[Scenario, str, int, dict]:
    """Construct domain objects from a resolved config, on the graph that
    was resolved with it if given."""
    if graph is None:
        g = resolved["graph"]
        graph = DirectedGraph(g["n"], tuple((a, b) for a, b in g["edges"]))
    w = resolved["weights"]
    weights = WeightSchedule(
        graph, mode=w["mode"], a_floor=w["a_floor"], b_floor=w["b_floor"], seed=w["seed"]
    )
    o = resolved["objective"]
    ensemble = make_sensor_scenario(n=o["n"], d=o["d"], p=o["p"], r=o["r"], seed=o["seed"])
    a = resolved["algorithm"]
    lam = None
    if a["lambda"] is not None:
        lam = LambdaSchedule(a["lambda"]["e"], a["lambda"]["m"])
    scenario = Scenario(
        graph=graph,
        weights=weights,
        ensemble=ensemble,
        steps=StepSizes(np.array(a["alpha"], dtype=float)),
        lam=lam,
        init_seed=a["init_seed"],
    )
    return scenario, a["mode"], a["K"], resolved["report"]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_run_csv(path: Path, report) -> None:
    lines = [CSV_HEADER]
    columns = (report.residuals, report.consensus_errors, report.tracking_errors, report.lambdas)
    for k, row in enumerate(zip(*columns), 1):
        lines.append(f"{k}," + ",".join(map(_fmt, row)))
    _write(path, "\n".join(lines) + "\n")


def _write(path: Path, text: str) -> None:
    """Write an output file, creating its directory only now: a command
    refused before this point leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load(args: argparse.Namespace) -> tuple[dict, dict, DirectedGraph]:
    """The config named by args, resolved with its overrides, and its graph,
    built and checked once for the whole command."""
    cfg = load_config(args.config)
    graph = build_graph(cfg)
    return cfg, resolve(cfg, args, graph), graph


def _execute(resolved: dict, graph: DirectedGraph, record_transcript: bool):
    scenario, mode, K, ropt = build_scenario(resolved, graph)
    report, transcript = run(
        scenario,
        mode,
        K,
        record_transcript=record_transcript,
        residual_threshold=ropt["residual_threshold"],
        divergence_cap=ropt["divergence_cap"],
    )
    return scenario, report, transcript


def _admissibility_section(resolved: dict, scenario: Scenario, mode: str) -> dict | None:
    ropt = resolved["report"]
    if not ropt["admissibility"]:
        return None
    if mode != "wgt":
        return {"skipped": "admissibility analysis applies to weighted tracking only"}
    if resolved["weights"]["mode"] != "static":
        return {"skipped": "admissibility analysis needs static weights"}
    rep = admissibility_report(
        scenario.weights,
        scenario.ensemble,
        scenario.steps,
        scenario.lam,
        ropt["admissibility_horizon"],
    )
    return rep.to_dict()


def cmd_run(args: argparse.Namespace) -> int:
    _, resolved, graph = _load(args)
    out = Path(resolved["report"]["output_dir"])
    scenario, report, _ = _execute(resolved, graph, record_transcript=False)
    write_run_csv(out / "report.csv", report)
    payload = {
        "config": resolved,
        "summary": report.summary(),
        "max_conservation_residual": float(report.conservation_residuals.max()),
        "admissibility": _admissibility_section(resolved, scenario, report.mode),
    }
    _write_json(out / "report.json", payload)
    s = report.summary()
    print(
        f"mode={s['mode']} K={s['iterations_run']} terminal_residual={s['terminal_residual']:.6e} "
        f"iterations_to_threshold={s['iterations_to_threshold']} -> {out / 'report.csv'}, "
        f"{out / 'report.json'}"
    )
    return 0


def _sweep_cell(base: Scenario, resolved: dict, kind: str, alpha: float, e: float, m: float,
                seed: int, K: int) -> dict:
    # the cells share the graph and the weight schedule
    o, threshold = resolved["objective"], resolved["report"]["residual_threshold"]
    scenario = dataclasses.replace(
        base,
        ensemble=make_sensor_scenario(n=o["n"], d=o["d"], p=o["p"], r=o["r"], seed=seed),
        steps=StepSizes.homogeneous(alpha, base.graph.n),
        lam=LambdaSchedule(e, m),
        init_seed=seed,
    )
    cell = {
        "kind": kind,
        "alpha": alpha,
        "e": e,
        "m": m,
        "objective_seed": seed,
        "init_seed": seed,
    }
    try:
        report, _ = run(scenario, "wgt", K, record_transcript=False, residual_threshold=threshold,
                        divergence_cap=resolved["report"]["divergence_cap"], stop_when_below=threshold)
    except DivergenceError as exc:
        cell.update(status="diverged", iterations_to_threshold=None, terminal_residual=None,
                    diverged_at=exc.k)
        return cell
    cell.update(
        status="ok",
        iterations_to_threshold=report.iterations_to_threshold(),
        terminal_residual=float(report.residuals[-1]),
    )
    return cell


def _monotone_votes(cells: list[dict], grid_key: str, seeds: list[int], nonincreasing: bool) -> list[bool]:
    """One vote per seed: are iterations-to-threshold monotone along the grid?

    Cells that never reached the threshold (or diverged) are censored to
    +inf, which can only break nonincreasing orderings and never fake them.
    """
    votes = []
    for seed in seeds:
        row = [c for c in cells if c["objective_seed"] == seed]
        row.sort(key=lambda c: c[grid_key])
        its = [
            float("inf") if c["iterations_to_threshold"] is None else c["iterations_to_threshold"]
            for c in row
        ]
        if nonincreasing:
            ok = all(b <= a for a, b in zip(its, its[1:]))
        else:
            ok = all(b >= a for a, b in zip(its, its[1:]))
        votes.append(ok)
    return votes


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, resolved, graph = _load(args)
    if resolved["algorithm"]["mode"] != "wgt":
        raise ConfigError("sweeps cover the weighted-tracking parameter rules; set algorithm.mode: wgt")
    sec = _section(cfg, "sweep", _SWEEP_KEYS)
    lam0 = resolved["algorithm"]["lambda"]
    asweep = sec.get("alpha") or {}
    esweep = sec.get("e") or {}
    if not isinstance(asweep, dict) or not isinstance(esweep, dict):
        raise ConfigError("sweep.alpha and sweep.e must be mappings with a grid")
    _check_keys(asweep, _SWEEP_ALPHA_KEYS, "sweep.alpha")
    _check_keys(esweep, _SWEEP_E_KEYS, "sweep.e")
    alphas = _as_grid(asweep.get("grid", []), "sweep.alpha.grid")
    es = _as_grid(esweep.get("grid", []), "sweep.e.grid")
    if not alphas and not es:
        raise ConfigError("sweep: empty grid (need sweep.alpha.grid and/or sweep.e.grid)")
    alpha_fixed_e = _as_float(asweep.get("e", lam0["e"]), "sweep.alpha.e")
    alpha_fixed_m = _as_float(asweep.get("m", lam0["m"]), "sweep.alpha.m")
    e_fixed_alpha = _as_float(
        esweep.get("alpha", resolved["algorithm"]["alpha"][0]), "sweep.e.alpha"
    )
    e_fixed_m = _as_float(esweep.get("m", lam0["m"]), "sweep.e.m")
    seeds = sec.get("seeds", [resolved["objective"]["seed"]])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("sweep.seeds must be a non-empty list")
    seeds = [_as_int(s, "sweep.seeds[i]", lo=0) for s in seeds]
    K = _as_int(sec.get("K", resolved["algorithm"]["K"]), "sweep.K", lo=1)
    params = [("alpha", a, alpha_fixed_e, alpha_fixed_m) for a in alphas]
    params += [("e", e_fixed_alpha, e, e_fixed_m) for e in es]
    for kind, a, e, m in params:
        _check_law("wgt", [a], {"e": e, "m": m}, f"sweep.{kind}")

    base = build_scenario(resolved, graph)[0]
    cells = [_sweep_cell(base, resolved, *cell, seed, K) for seed in seeds for cell in params]

    alpha_cells = [c for c in cells if c["kind"] == "alpha"]
    e_cells = [c for c in cells if c["kind"] == "e"]
    summary = {
        "threshold": resolved["report"]["residual_threshold"],
        "seeds": seeds,
        "K": K,
        "alpha_grid": alphas,
        "alpha_fixed_lambda": {"e": alpha_fixed_e, "m": alpha_fixed_m},
        "e_grid": es,
        "e_fixed": {"alpha": e_fixed_alpha, "m": e_fixed_m},
    }
    if alphas:
        votes = _monotone_votes(alpha_cells, "alpha", seeds, nonincreasing=True)
        summary["alpha_monotone_votes"] = votes
        summary["alpha_monotone_majority"] = sum(votes) * 2 > len(votes)
    if es:
        votes = _monotone_votes(e_cells, "e", seeds, nonincreasing=False)
        summary["e_monotone_votes"] = votes
        summary["e_monotone_majority"] = sum(votes) * 2 > len(votes)

    out = Path(resolved["report"]["output_dir"])
    lines = [SWEEP_CSV_HEADER]
    for c in cells:
        its = "" if c["iterations_to_threshold"] is None else str(c["iterations_to_threshold"])
        tr = "" if c["terminal_residual"] is None else _fmt(c["terminal_residual"])
        lines.append(
            f"{c['kind']},{_fmt(c['alpha'])},{_fmt(c['e'])},{_fmt(c['m'])},"
            f"{c['objective_seed']},{c['init_seed']},{c['status']},{its},{tr}"
        )
    _write(out / "sweep.csv", "\n".join(lines) + "\n")
    _write_json(out / "sweep.json", {"config": resolved, "summary": summary, "cells": cells})
    print(
        f"sweep: {len(cells)} cells -> {out / 'sweep.csv'}, {out / 'sweep.json'}; "
        f"alpha majority={summary.get('alpha_monotone_majority')} "
        f"e majority={summary.get('e_monotone_majority')}"
    )
    return 0


def _numeric_audits(scenario: Scenario, transcript, honest: int, attacker: int, K_audit: int) -> dict:
    """Numeric rank/consistency audits on a worst-case two-agent transcript."""
    obs = TwoAgentObservations.from_transcript(transcript, honest, attacker)
    K_audit = min(K_audit, obs.K)
    xs, ys = replay(scenario, transcript.mode, transcript)
    hi = honest - 1
    a_weights = np.array(
        [scenario.weights.matrices_at(k)[0][hi, attacker - 1] for k in range(1, K_audit)]
    )
    state_truth = (xs[1:K_audit, hi, :], a_weights)
    state = audit_state_system(K_audit, obs.p, observations=obs, truth=state_truth)

    grads = np.array(
        [scenario.ensemble.gradients(xs[k])[hi] for k in range(1, K_audit + 1)]
    )
    grad_truth = (ys[1:K_audit, hi, :], grads)
    y_true_final = ys[K_audit, hi, :]
    gradient_attacker_view = audit_gradient_system(
        K_audit, obs.p, observations=obs, lam=scenario.lam
    )
    gradient_consistency = audit_gradient_system(
        K_audit, obs.p, observations=obs, lam=scenario.lam,
        y_final=y_true_final, truth=grad_truth,
    )
    return {
        "honest": honest,
        "attacker": attacker,
        "K": K_audit,
        "state": state.to_dict(),
        "gradient": gradient_attacker_view.to_dict(),
        "gradient_consistency_residual": gradient_consistency.consistency_residual,
    }


def cmd_attack(args: argparse.Namespace) -> int:
    cfg, resolved, graph = _load(args)
    sec = _section(cfg, "attack", _ATTACK_KEYS, required=False)
    n = resolved["graph"]["n"]
    target = sec.get("target", 1) if args.target is None else args.target
    target = _as_int(target, "attack target (--target or attack.target)", 1, n)
    tol = _as_float(sec.get("stabilization_tol", 1e-10), "attack.stabilization_tol")
    window = _as_int(sec.get("window", 50), "attack.window", lo=1)

    scenario, report, transcript = _execute(resolved, graph, record_transcript=True)
    attack = infer_gradient(
        transcript,
        target,
        final_state=report.final_state,
        ensemble=scenario.ensemble,
        stabilization_tol=tol,
        window=window,
    )
    p = resolved["objective"]["p"]
    audit_K = max(2, min(10, transcript.K))
    audits = {
        "state_structural": audit_state_system(audit_K, p).to_dict(),
        "gradient_structural": audit_gradient_system(audit_K, p).to_dict(),
    }
    if n == 2 and report.mode == "wgt" and transcript.K >= 2:
        other = 2 if target == 1 else 1
        audits["two_agent"] = _numeric_audits(scenario, transcript, target, other, audit_K)

    out = Path(resolved["report"]["output_dir"])
    payload = {
        "config": resolved,
        "summary": report.summary(),
        "attack": attack.to_dict(),
        "audits": audits,
    }
    _write_json(out / "attack.json", payload)
    status = "conclusive" if attack.conclusive else "inconclusive"
    err = "n/a" if attack.relative_error is None else f"{attack.relative_error:.6e}"
    print(
        f"attack on agent {target} ({report.mode}): {status}, relative_error={err} "
        f"-> {out / 'attack.json'}"
    )
    return 0 if attack.conclusive else 4


def cmd_audit(args: argparse.Namespace) -> int:
    cfg, resolved, graph = _load(args)
    sec = _section(cfg, "audit", _AUDIT_KEYS, required=False)
    n = resolved["graph"]["n"]
    two_agent = n == 2 and resolved["algorithm"]["mode"] == "wgt"
    # the numeric two-agent audit stacks at least two iterations of the run
    K_audit = _as_int(sec.get("K", 3), "audit.K", lo=2 if two_agent else 1)
    if two_agent and resolved["algorithm"]["K"] < 2:
        raise ConfigError("the two-agent audit needs algorithm.K >= 2")
    honest = _as_int(sec.get("honest", 1), "audit.honest", 1, n)
    attacker = _as_int(sec.get("attacker", 2), "audit.attacker", 1, n)
    if honest == attacker:
        raise ConfigError("audit.honest and audit.attacker must be different agents")
    p = resolved["objective"]["p"]

    payload = {
        "config": resolved,
        "state_structural": audit_state_system(max(K_audit, 2), p).to_dict(),
        "gradient_structural": audit_gradient_system(K_audit, p).to_dict(),
    }
    if two_agent:
        scenario, report, transcript = _execute(resolved, graph, record_transcript=True)
        payload["summary"] = report.summary()
        payload["two_agent"] = _numeric_audits(scenario, transcript, honest, attacker, K_audit)
    out = Path(resolved["report"]["output_dir"])
    _write_json(out / "audit.json", payload)
    s = payload["state_structural"]
    g = payload["gradient_structural"]
    print(
        f"audits at K={K_audit}, p={p}: state {s['equations']} eq / {s['unknowns']} unk "
        f"(nullity {s['nullity']}), gradient {g['equations']} eq / {g['unknowns']} unk "
        f"(nullity {g['nullity']}) -> {out / 'audit.json'}"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    _, resolved, graph = _load(args)
    build_scenario(resolved, graph)  # exercises every domain validation
    print(json.dumps(resolved, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgtsim",
        description="decentralized gradient-tracking simulator with privacy diagnostics",
    )
    parser.add_argument("--version", action="version", version=f"wgtsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="path to a YAML config file")
        p.add_argument("-o", "--output-dir", help="override report.output_dir")
        p.add_argument("--threshold", type=float, help="override report.residual_threshold")
        p.add_argument("--objective-seed", type=int, help="override objective.seed")
        p.add_argument("--init-seed", type=int, help="override algorithm.init_seed")
        p.add_argument("--weight-seed", type=int, help="override weights.seed")

    p_run = sub.add_parser("run", help="single run; writes report.csv and report.json")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="parameter grid; writes sweep.csv and sweep.json")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_attack = sub.add_parser("attack", help="run + transcript attack; writes attack.json")
    common(p_attack)
    p_attack.add_argument("--target", type=int, help="victim agent id (default from config)")
    p_attack.set_defaults(func=cmd_attack)

    p_audit = sub.add_parser("audit", help="underdetermination audits; writes audit.json")
    common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_val = sub.add_parser("validate", help="parse, validate, and print the resolved config")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
