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
from functools import partial
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
from .engine import (
    MODES, LambdaSchedule, Scenario, StepSizes, check_steps, check_tables, replay, run, run_batch,
)
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


def _as_float(value, where: str, lo: float | None = None, strict: bool = False) -> float:
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if lo is not None and (x <= lo if strict else x < lo):
        raise ConfigError(f"{where} must be {'>' if strict else '>='} {lo:g}, got {x}")
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


def _as_text(value, where: str) -> str:
    return str(value)


_as_seed = partial(_as_int, lo=0)
_as_count = partial(_as_int, lo=1)

# The scalar keys of these sections: each one's default and the check that
# its value, or the flag that overrides it, must pass. A default of None is
# filled in by resolve (objective.n: the graph's agent count). The weights and
# objective keys are the arguments of WeightSchedule and make_sensor_scenario.
_FIELDS = {
    "weights": {"mode": ("static", _as_text), "a_floor": (0.1, _as_float),
                "b_floor": (0.1, _as_float), "seed": (0, _as_seed)},
    "objective": {"n": (None, _as_int), "d": (3, _as_count), "p": (2, _as_count),
                  "r": (0.01, partial(_as_float, lo=0.0)), "seed": (0, _as_seed)},
    "algorithm": {"K": (1, _as_count), "init_seed": (0, _as_seed)},
    "report": {"output_dir": (".", _as_text), "residual_threshold": (1e-6, partial(_as_float, lo=0.0)),
               "record_transcript": (False, _as_bool), "admissibility": (False, _as_bool),
               "admissibility_horizon": (200, _as_count),
               "divergence_cap": (1e12, partial(_as_float, lo=0.0, strict=True))},
}
# override flag -> the (section, key) it replaces, and its argparse type
_FLAGS = {
    "--threshold": ("report", "residual_threshold", float),
    "--objective-seed": ("objective", "seed", int),
    "--init-seed": ("algorithm", "init_seed", int),
    "--weight-seed": ("weights", "seed", int),
}


def _fields(cfg: dict, name: str, required: bool = True, extra: tuple[str, ...] = ()) -> dict:
    """Section name's scalar keys, checked or defaulted by _FIELDS; extra: keys the caller reads."""
    sec = _section(cfg, name, _FIELDS[name].keys() | extra, required)
    return {
        key: check(sec[key], f"{name}.{key}") if key in sec else default
        for key, (default, check) in _FIELDS[name].items()
    }


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
    sec = _section(cfg, "graph", {"preset", "n", "edges"})
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
    weights = _fields(cfg, "weights", required=False)
    objective = _fields(cfg, "objective")
    algorithm = _fields(cfg, "algorithm", extra=("mode", "alpha", "lambda"))
    report = _fields(cfg, "report", required=False)
    asec = cfg["algorithm"]

    if objective["n"] not in (None, graph.n):
        raise ConfigError(f"objective.n = {objective['n']} but the graph has {graph.n} agents")
    objective["n"] = graph.n

    mode = asec.get("mode")
    if mode not in MODES:
        raise ConfigError(f"algorithm.mode must be one of {MODES}, got {mode!r}")
    alpha = asec.get("alpha")
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
        _check_keys(lsec, {"e", "m"}, "algorithm.lambda")
        lam = {key: _as_float(lsec.get(key, 0.0), f"algorithm.lambda.{key}") for key in ("e", "m")}
    _check_law(mode, alpha_values, lam, "algorithm")

    resolved = {
        "schema": SCHEMA_VERSION,
        "library": {"name": "wgtsim", "version": __version__, "rng_family": RNG_FAMILY},
        "graph": {"n": graph.n, "edges": [list(edge) for edge in graph.edges]},
        "weights": weights,
        "objective": objective,
        "algorithm": {"mode": mode, "alpha": alpha_values, "lambda": lam, **algorithm},
        "report": report,
    }
    if getattr(overrides, "output_dir", None):
        report["output_dir"] = overrides.output_dir
    for flag, (section, key, _) in _FLAGS.items():
        value = getattr(overrides, flag[2:].replace("-", "_"), None)
        if value is not None:
            resolved[section][key] = _FIELDS[section][key][1](value, flag)
    return resolved


def build_scenario(
    resolved: dict, graph: DirectedGraph | None = None
) -> tuple[Scenario, str, int, dict]:
    """Construct domain objects from a resolved config, on the graph that
    was resolved with it if given."""
    if graph is None:
        g = resolved["graph"]
        graph = DirectedGraph(g["n"], tuple((a, b) for a, b in g["edges"]))
    weights = WeightSchedule(graph, **resolved["weights"])
    ensemble = make_sensor_scenario(**resolved["objective"])
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
    built and checked once for the whole command. Warns on stderr where the
    config leaves the convergence theory."""
    cfg = load_config(args.config)
    graph = build_graph(cfg)
    resolved = resolve(cfg, args, graph)
    if (lam := resolved["algorithm"]["lambda"]) and not LambdaSchedule(lam["e"], lam["m"]).sum_diverges:
        print(f"warning: algorithm.lambda.e = {lam['e']:g} > 1 makes lambda_k summable, "
              "outside the convergence theory", file=sys.stderr)
    return cfg, resolved, graph


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


def _monotone_votes(cells: list[dict], kind: str, seeds: list[int], nonincreasing: bool) -> list[bool]:
    """One vote per seed: are iterations-to-threshold monotone along the grid of kind?

    Cells that never reached the threshold (or diverged) are censored to
    +inf, which can only break nonincreasing orderings and never fake them.
    """
    votes = []
    for seed in seeds:
        row = [c for c in cells if c["kind"] == kind and c["objective_seed"] == seed]
        row.sort(key=lambda c: c[kind])
        its = [
            float("inf") if c["iterations_to_threshold"] is None else c["iterations_to_threshold"]
            for c in row
        ]
        pairs = zip(its, its[1:]) if nonincreasing else zip(its[1:], its)
        votes.append(all(b <= a for a, b in pairs))
    return votes


# sweep kind -> (the parameters its cells hold fixed, the summary key that
# records them, whether iterations to threshold may only fall along its grid)
_SWEEP_KINDS = {
    "alpha": (("e", "m"), "alpha_fixed_lambda", True),
    "e": (("alpha", "m"), "e_fixed", False),
}


def _sweep_plan(cfg: dict, resolved: dict, graph: DirectedGraph) -> tuple[dict, list[dict]]:
    """Check the sweep section. Returns the summary's record of the plan and
    the parameters (kind, alpha, e, m) of one seed's cells, kind by kind."""
    algorithm = resolved["algorithm"]
    if algorithm["mode"] != "wgt":
        raise ConfigError("sweeps cover the weighted-tracking parameter rules; set algorithm.mode: wgt")
    sec = _section(cfg, "sweep", {"seeds", "K", *_SWEEP_KINDS})
    seeds = sec.get("seeds", [resolved["objective"]["seed"]])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("sweep.seeds must be a non-empty list")
    seeds = [_as_seed(s, "sweep.seeds[i]") for s in seeds]
    K = _as_count(sec.get("K", algorithm["K"]), "sweep.K")
    summary = {"threshold": resolved["report"]["residual_threshold"], "seeds": seeds, "K": K}
    defaults = {"alpha": algorithm["alpha"][0], **algorithm["lambda"]}
    params = []
    for kind, (held, fixed_key, _) in _SWEEP_KINDS.items():
        ksec = sec.get(kind) or {}
        if not isinstance(ksec, dict):
            raise ConfigError(f"sweep.{kind} must be a mapping with a grid")
        _check_keys(ksec, {"grid", *held}, f"sweep.{kind}")
        grid = summary[f"{kind}_grid"] = _as_grid(ksec.get("grid", []), f"sweep.{kind}.grid")
        fixed = summary[fixed_key] = {
            name: _as_float(ksec.get(name, defaults[name]), f"sweep.{kind}.{name}") for name in held
        }
        for value in grid:
            cell = {"kind": kind, **fixed, kind: value}
            _check_law("wgt", [cell["alpha"]], cell, f"sweep.{kind}")
            params.append(cell)
    if not params:
        raise ConfigError("sweep: empty grid (need sweep.alpha.grid and/or sweep.e.grid)")
    return summary, params


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, resolved, graph = _load(args)
    summary, params = _sweep_plan(cfg, resolved, graph)
    seeds, ropt = summary["seeds"], resolved["report"]
    # the cells share the graph and the weight schedule, and a seed's cells its objectives
    base = build_scenario(resolved, graph)[0]
    ensembles = {seed: make_sensor_scenario(**{**resolved["objective"], "seed": seed}) for seed in seeds}
    cells = [{**param, "objective_seed": seed, "init_seed": seed} for seed in seeds for param in params]
    scenarios = [dataclasses.replace(
        base, ensemble=ensembles[c["objective_seed"]], steps=StepSizes.homogeneous(c["alpha"], graph.n),
        lam=LambdaSchedule(c["e"], c["m"]), init_seed=c["init_seed"]) for c in cells]
    results = run_batch(scenarios, summary["K"], stop_when_below=ropt["residual_threshold"],
                        divergence_cap=ropt["divergence_cap"])
    for cell, (its, residual, diverged_at) in zip(cells, results):
        cell.update(status="ok", iterations_to_threshold=its, terminal_residual=residual)
        if diverged_at is not None:
            cell.update(status="diverged", terminal_residual=None, diverged_at=diverged_at)
    for kind, (_, _, nonincreasing) in _SWEEP_KINDS.items():
        if summary[f"{kind}_grid"]:
            votes = _monotone_votes(cells, kind, seeds, nonincreasing)
            summary[f"{kind}_monotone_votes"] = votes
            summary[f"{kind}_monotone_majority"] = sum(votes) * 2 > len(votes)

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


def _structural_audits(K: int, p: int) -> dict:
    """The structural state audit (over at least two iterations) and gradient audit."""
    return {
        "state_structural": audit_state_system(max(K, 2), p).to_dict(),
        "gradient_structural": audit_gradient_system(K, p).to_dict(),
    }


def _two_agent(resolved: dict) -> bool:
    """Whether the numeric two-agent audit applies: weighted tracking between two agents.
    Raises ConfigError if the run is shorter than the two iterations the audit stacks."""
    algorithm = resolved["algorithm"]
    if resolved["graph"]["n"] != 2 or algorithm["mode"] != "wgt":
        return False
    if algorithm["K"] < 2:
        raise ConfigError("the two-agent audit needs algorithm.K >= 2")
    return True


def _attack_options(cfg: dict, resolved: dict, graph: DirectedGraph,
                    target: int | None = None) -> tuple[int, float, int]:
    """Check the attack section, target being --target if given. Returns
    (target, stabilization_tol, window)."""
    sec = _section(cfg, "attack", {"target", "stabilization_tol", "window"}, required=False)
    target = sec.get("target", 1) if target is None else target
    target = _as_int(target, "attack target (--target or attack.target)", 1, graph.n)
    tol = _as_float(sec.get("stabilization_tol", 1e-10), "attack.stabilization_tol")
    window = _as_count(sec.get("window", 50), "attack.window")
    check_tables(graph, resolved["objective"]["p"], resolved["algorithm"]["K"], record_transcript=True)
    return target, tol, window


def cmd_attack(args: argparse.Namespace) -> int:
    cfg, resolved, graph = _load(args)
    target, tol, window = _attack_options(cfg, resolved, graph, args.target)

    scenario, report, transcript = _execute(resolved, graph, record_transcript=True)
    attack = infer_gradient(
        transcript,
        target,
        final_state=report.final_state,
        ensemble=scenario.ensemble,
        stabilization_tol=tol,
        window=window,
    )
    audit_K = max(2, min(10, transcript.K))
    audits = _structural_audits(audit_K, resolved["objective"]["p"])
    try:
        two_agent = _two_agent(resolved)
    except ConfigError as exc:  # the attack stands without it; audit refuses such a config
        two_agent, audits["two_agent"] = False, {"skipped": str(exc)}
    if two_agent:
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


def _audit_options(cfg: dict, resolved: dict, graph: DirectedGraph) -> tuple[int, int, int, bool]:
    """Check the audit section. Returns (K, honest, attacker, whether the
    numeric two-agent audit runs)."""
    sec = _section(cfg, "audit", {"K", "honest", "attacker"}, required=False)
    two_agent = _two_agent(resolved)
    # the numeric two-agent audit stacks at least two iterations of the run
    K_audit = _as_int(sec.get("K", 3), "audit.K", lo=2 if two_agent else 1)
    honest = _as_int(sec.get("honest", 1), "audit.honest", 1, graph.n)
    attacker = _as_int(sec.get("attacker", 2), "audit.attacker", 1, graph.n)
    if honest == attacker:
        raise ConfigError("audit.honest and audit.attacker must be different agents")
    if two_agent:
        check_tables(graph, resolved["objective"]["p"], resolved["algorithm"]["K"], record_transcript=True)
    return K_audit, honest, attacker, two_agent


def cmd_audit(args: argparse.Namespace) -> int:
    cfg, resolved, graph = _load(args)
    K_audit, honest, attacker, two_agent = _audit_options(cfg, resolved, graph)
    p = resolved["objective"]["p"]

    payload = {"config": resolved, **_structural_audits(K_audit, p)}
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
    """Apply to the file every rule a command applies: a section that only
    one command reads is checked when present."""
    cfg, resolved, graph = _load(args)
    check_tables(graph, resolved["objective"]["p"], resolved["algorithm"]["K"])
    build_scenario(resolved, graph)  # exercises every domain validation
    for name, check in (("sweep", _sweep_plan), ("attack", _attack_options), ("audit", _audit_options)):
        if cfg.get(name) is not None:
            check(cfg, resolved, graph)
    print(json.dumps(resolved, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgtsim",
        description="decentralized gradient-tracking simulator with privacy diagnostics",
    )
    parser.add_argument("--version", action="version", version=f"wgtsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("run", cmd_run, "single run; writes report.csv and report.json"),
        ("sweep", cmd_sweep, "parameter grid; writes sweep.csv and sweep.json"),
        ("attack", cmd_attack, "run + transcript attack; writes attack.json"),
        ("audit", cmd_audit, "underdetermination audits; writes audit.json"),
        ("validate", cmd_validate, "parse, validate, and print the resolved config"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a YAML config file")
        p.add_argument("-o", "--output-dir", help="override report.output_dir")
        for flag, (section, key, type_) in _FLAGS.items():
            p.add_argument(flag, type=type_, help=f"override {section}.{key}")
        if name == "attack":
            p.add_argument("--target", type=int, help="victim agent id (default from config)")
        p.set_defaults(func=func)
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
