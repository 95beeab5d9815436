"""The benchmark's workloads: their inputs, ops and result checks.

An op is one `wgtsim` command run in-process through `cli.main`, or one
library call. Its check compares the outputs with values pinned at the seed
commit; every pinned value below was read from that commit's outputs.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import gen
from wgtsim import cli, engine, weights

# sensor6: the shipped sweep, run, attack and audit configs, plus a replay.
# rings: the two generated networks. See NOTES.md for why each op is there.
NAMES = ("sensor6", "rings")

# iterations_to_threshold of each shipped sweep cell: (kind, grid value, seed)
SWEEP_ITERATIONS = {
    ("alpha", 0.02, 0): 2447, ("alpha", 0.05, 0): 527, ("alpha", 0.1, 0): 206,
    ("e", 0.6, 0): 163, ("e", 0.8, 0): 447, ("e", 1.0, 0): 20514,
    ("alpha", 0.02, 1): 1906, ("alpha", 0.05, 1): 434, ("alpha", 0.1, 1): 172,
    ("e", 0.6, 1): 130, ("e", 0.8, 1): 322, ("e", 1.0, 1): 8547,
    ("alpha", 0.02, 2): 2701, ("alpha", 0.05, 2): 573, ("alpha", 0.1, 2): 224,
    ("e", 0.6, 2): 184, ("e", 0.8, 2): 533, ("e", 1.0, 2): 33763,
}
RUN_ITERATIONS_TO_THRESHOLD = {"run_wgt": 128, "run_ab": 352}
AUDIT_NULLITIES = {"state_structural": 9, "gradient_structural": 18}

# SHA-256 of the byte-compared CSVs. A match is counted, not required: a
# declared change of summation order may alter the bytes.
CSV_SHA256 = {
    "sweep": "907dc67d340a623791e68868e51ac6dcc590fe642fea4d7ae8c7ef0f4638e8ac",
    "run_wgt": "252f3c825c17a14d04b60c55545793e3e0b38b33e4af49f099d9b0115c6d6db2",
    "run_ab": "f501de72bc58ba48d7bd10b3bee8289b25f6e52a262d7dd74afba09166e68a64",
    "tv-ring200@0": "730eb5bc2afcbce8bc6c4b56feffa7c51b5543054df0bf59d964f6aeed1ca1b0",
    "static-ring400@0": "6bd16872c6f445f9769a8d549ef3b13f0b9950a37a4aa868a5888854bb8cead8",
}
# terminal_residual of the generated workloads at seed 0, checked to 1e-6 relative
TERMINAL_RESIDUAL_SEED0 = {
    "tv-ring200": 1.8232577236114082e-05,
    "static-ring400": 0.0007242827291153062,
}

# Generated workloads. alpha=0.1 tripped the divergence guard within 25
# iterations on both graphs; these alphas run cleanly. d stays at the shipped
# 3: with p = d = 16 at n = 400, ObjectiveEnsemble.global_optimum's absolute
# stationarity tolerance raises NumericalError (see NOTES.md).
GENERATED = {
    "tv-ring200": dict(n=200, weight_mode="time-varying", p=2, d=3, alpha=0.02, K=200),
    "static-ring400": dict(n=400, weight_mode="static", p=16, d=3, alpha=0.005, K=2500),
}
# Smoke-test sizes: small enough that every pinned sensor-6 value still holds.
TINY_GENERATED = {"tv-ring200": dict(n=12, K=20), "static-ring400": dict(n=16, K=50)}
TINY_SWEEP = {"seeds": [0], "e": [0.6, 0.8]}
TINY_PRIVACY_K = 2000


@dataclass
class Outcome:
    """What one op's check found: problems (empty when the op is correct),
    the engine iterations its outputs report, bytes written, CSV pin matches."""

    problems: list[str]
    iterations: int = 0
    output_bytes: int = 0
    identical: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], object]  # timed
    check: Callable[[object], Outcome]  # untimed, gets run's return value
    out_dir: Path | None = None  # emptied before every pass

    @property
    def is_command(self) -> bool:
        return self.out_dir is not None


@dataclass
class Workload:
    name: str
    configs: list[Path]  # what setup_s covers
    ops: list[Op]

    def setup_seconds(self) -> float:
        """Time everything a command pays before iteration 1, over all configs."""
        start = time.perf_counter()
        for path in self.configs:
            scenario = cli.build_scenario(cli.resolve(cli.load_config(path)))[0]
            scenario.ensemble.global_optimum()
            if scenario.weights.mode == "static":
                weights.phi_static(scenario.weights.matrices_at(1)[0])
        return time.perf_counter() - start


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _identical(path: Path, key: str | None) -> int:
    pinned = CSV_SHA256.get(key)
    return int(pinned is not None and hashlib.sha256(path.read_bytes()).hexdigest() == pinned)


def _conservation_bound(config: Path) -> float:
    """The acceptance suite's 1e-9 * (1 + ||g||), with g the stacked local
    gradients at the optimum, which every row's gradient tends to."""
    ens = cli.build_scenario(cli.resolve(cli.load_config(config)))[0].ensemble
    return 1e-9 * (1.0 + float(np.linalg.norm(ens.gradients_at_consensus(ens.global_optimum()))))


def _command(name: str, command: str, config: Path, out_dir: Path,
             check_files: Callable[[Path], Outcome]) -> Op:
    argv = [command, str(config), "-o", str(out_dir)]

    def run() -> tuple[int, str]:
        text = io.StringIO()
        with redirect_stdout(text), redirect_stderr(text):
            rc = cli.main(argv)
        return rc, text.getvalue()

    def check(result: tuple[int, str]) -> Outcome:
        rc, text = result
        if rc != 0:
            return Outcome([f"exit code {rc}: {text.strip()[-500:]}"])
        outcome = check_files(out_dir)
        outcome.output_bytes = sum(f.stat().st_size for f in out_dir.iterdir())
        return outcome

    return Op(name, run, check, out_dir)


def _check_sweep(out_dir: Path) -> Outcome:
    doc = _read_json(out_dir / "sweep.json")
    problems, iterations = [], 0
    for c in doc["cells"]:
        value = c["alpha"] if c["kind"] == "alpha" else c["e"]
        pinned = SWEEP_ITERATIONS.get((c["kind"], value, c["objective_seed"]))
        its = c["iterations_to_threshold"]
        if c["status"] != "ok" or its != pinned:
            problems.append(f"cell {c['kind']}={value} seed {c['objective_seed']}: "
                            f"{c['status']}, {its} iterations, pinned {pinned}")
        iterations += its or 0
    for key in ("alpha_monotone_majority", "e_monotone_majority"):
        if doc["summary"].get(key) is not True:
            problems.append(f"{key} is not true")
    return Outcome(problems, iterations, identical=_identical(out_dir / "sweep.csv", "sweep"))


def _check_run(out_dir: Path, *, bound: float, sha_key: str | None,
               its_pin: int | None = None, residual_pin: float | None = None) -> Outcome:
    doc = _read_json(out_dir / "report.json")
    s = doc["summary"]
    problems = []
    if its_pin is not None and s["iterations_to_threshold"] != its_pin:
        problems.append(f"threshold reached at {s['iterations_to_threshold']}, pinned {its_pin}")
    if not doc["max_conservation_residual"] <= bound:
        problems.append(f"conservation residual {doc['max_conservation_residual']:.3e} > {bound:.3e}")
    if residual_pin is not None and not (
        abs(s["terminal_residual"] - residual_pin) <= 1e-6 * abs(residual_pin)
    ):
        problems.append(f"terminal residual {s['terminal_residual']!r}, pinned {residual_pin!r}")
    return Outcome(problems, s["iterations_run"], identical=_identical(out_dir / "report.csv", sha_key))


def _check_attack(out_dir: Path, *, baseline: bool) -> Outcome:
    doc = _read_json(out_dir / "attack.json")
    attack, err = doc["attack"], doc["attack"]["relative_error"]
    problems = []
    if not attack["conclusive"] or err is None:
        problems.append("attack inconclusive")
    elif baseline and not err < 1e-3:
        problems.append(f"baseline attack relative error {err:.3e}, want < 1e-3")
    elif not baseline and not err > 0.5:
        problems.append(f"weighted attack relative error {err:.3e}, want > 0.5")
    return Outcome(problems, doc["summary"]["iterations_run"])


def _check_audit(out_dir: Path) -> Outcome:
    doc = _read_json(out_dir / "audit.json")
    problems = [
        f"{key} nullity {doc[key]['nullity']}, pinned {want}"
        for key, want in AUDIT_NULLITIES.items()
        if doc[key]["nullity"] != want
    ]
    return Outcome(problems, doc["summary"]["iterations_run"])


@contextmanager
def _keep_run(box: dict):
    """Keep the scenario, report and transcript of the `run` a command makes."""
    original = cli.run

    def keep(scenario, mode, *args, **kwargs):
        box["scenario"], box["mode"] = scenario, mode
        box["report"], box["transcript"] = result = original(scenario, mode, *args, **kwargs)
        return result

    cli.run = keep
    try:
        yield
    finally:
        cli.run = original


def _tiny_copy(config: Path, work: Path, edit: Callable[[dict], None]) -> Path:
    cfg = yaml.safe_load(config.read_text())
    edit(cfg)
    path = work / config.name
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return path


def _sweep(root: Path, work: Path, tiny: bool) -> Workload:
    """18 static wgt cells on sensor-6, 73,793 iterations, stopping at 1e-6."""
    config = root / "configs" / "sweep.yaml"
    if tiny:
        def edit(cfg):
            cfg["sweep"]["seeds"] = TINY_SWEEP["seeds"]
            cfg["sweep"]["e"]["grid"] = TINY_SWEEP["e"]
        config = _tiny_copy(config, work, edit)
    return Workload("sweep", [config], [
        _command("sweep", "sweep", config, work / "sweep", _check_sweep),
    ])


def _privacy(root: Path, work: Path, tiny: bool) -> Workload:
    """Runs, attacks and the audit on the shipped configs, and a library replay."""
    names = ("run_wgt", "run_ab", "attack_ab", "audit_two_agent", "attack_wgt")
    configs = {name: root / "configs" / f"{name}.yaml" for name in names}
    if tiny:
        def edit(cfg):
            cfg["algorithm"]["K"] = min(cfg["algorithm"]["K"], TINY_PRIVACY_K)
        configs = {name: _tiny_copy(path, work, edit) for name, path in configs.items()}

    ops = [
        _command(name, "run", configs[name], work / name, functools.partial(
            _check_run, bound=_conservation_bound(configs[name]), sha_key=name,
            its_pin=RUN_ITERATIONS_TO_THRESHOLD[name]))
        for name in ("run_wgt", "run_ab")
    ]
    ops.append(_command("attack_ab", "attack", configs["attack_ab"], work / "attack_ab",
                        functools.partial(_check_attack, baseline=True)))
    ops.append(_command("audit", "audit", configs["audit_two_agent"], work / "audit", _check_audit))

    # The replay reads back the transcript the attack_wgt command recorded.
    box: dict = {}
    attack_wgt = _command("attack_wgt", "attack", configs["attack_wgt"], work / "attack_wgt",
                          functools.partial(_check_attack, baseline=False))
    attack_run = attack_wgt.run

    def record_and_attack():
        box.clear()
        with _keep_run(box):
            return attack_run()

    attack_wgt.run = record_and_attack

    def replay():
        return engine.replay(box["scenario"], box["mode"], box["transcript"])

    def check_replay(result) -> Outcome:
        xs, ys = result
        final, K = box["report"].final_state, box["transcript"].K
        box.clear()
        exact = np.array_equal(xs[-1], final.x) and np.array_equal(ys[-1], final.y)
        return Outcome([] if exact else ["replay is not bit-exact"], K)

    ops += [attack_wgt, Op("replay", replay, check_replay)]
    return Workload("privacy", list(configs.values()), ops)


def _generated(name: str, seed: int, work: Path, tiny: bool) -> Workload:
    """One `run` on a ring-plus-chords network generated from seed."""
    size = GENERATED[name] | (TINY_GENERATED[name] if tiny else {})
    out_dir = work / name / "run"
    config = gen.write_config(work / name / "config.yaml", seed=seed, output_dir=str(out_dir), **size)
    pinned = seed == 0 and not tiny
    check = functools.partial(
        _check_run, bound=_conservation_bound(config), sha_key=f"{name}@0" if pinned else None,
        residual_pin=TERMINAL_RESIDUAL_SEED0[name] if pinned else None)
    return Workload(name, [config], [_command(name, "run", config, out_dir, check)])


def build(name: str, seed: int, root: Path, work: Path, tiny: bool = False) -> Workload:
    """Make the workload's inputs under `work` from `seed` and return its ops.

    root is the checkout holding configs/. tiny shrinks every size for the
    smoke test; the sensor-6 pins still hold there.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")
    work.mkdir(parents=True, exist_ok=True)
    if name == "sensor6":
        parts = [_sweep(root, work, tiny), _privacy(root, work, tiny)]
    else:
        parts = [_generated(g, seed, work, tiny) for g in GENERATED]
    return Workload(name, [c for p in parts for c in p.configs], [op for p in parts for op in p.ops])
