"""End-to-end command-line behavior: configs, outputs, exit codes."""

import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import pytest
import yaml

from wgtsim import cli, engine
from wgtsim.cli import CSV_HEADER, SWEEP_CSV_HEADER, load_config, main, resolve
from wgtsim.errors import NumericalError


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# SHA-256 of report.csv from `wgtsim run` on the shipped configs. A change
# to the kernel, the metrics or the CSV format that moves one bit fails here.
GOLDEN_REPORT_SHA256 = {
    "run_wgt.yaml": "252f3c825c17a14d04b60c55545793e3e0b38b33e4af49f099d9b0115c6d6db2",
    "run_ab.yaml": "f501de72bc58ba48d7bd10b3bee8289b25f6e52a262d7dd74afba09166e68a64",
}
# The same for ring_config: the weight draw and the mixing of a larger
# network with time-varying weights, which the shipped runs skip, and the
# phi-weighted mean and stacked norms of a static ring of 64 agents with p=4.
GOLDEN_TV_RING_SHA256 = "3aa627a8943e626540882836013f75e72c07b0250ec27842e92ea17d08dacdc7"
GOLDEN_STATIC_RING_SHA256 = "f2d51bb3dded897ffca35f2955f17e5299411e379821cec52cc4b47d7d6039a0"
# payload_digest (SHA-256 of the indented, key-sorted JSON) of the analysis
# outputs on the shipped configs: the admissibility section of run_wgt's
# report.json, and attack.json and audit.json without their config echo.
GOLDEN_ADMISSIBILITY_SHA256 = "5f1895fb58d4672d5286684b85a5ee4d4e50f5c2c85d322f791bb0633abe4f87"
GOLDEN_ATTACK_SHA256 = {
    "attack_ab.yaml": "3363f2a2e2bb8698ded0729025b9eb71b3f5924439f253f4dbd6fd81af4da031",
    "attack_wgt.yaml": "45ee9f2baabd6e9868811fb2048c5b0f52aed524cc6ffad453a7b7bfb060b2e5",
}
GOLDEN_AUDIT_SHA256 = "46bbd62d1b3bfaec7c3f2870d168c1452e13868565662fad2c7be7daaf9dd846"
# SHA-256 of sweep.csv from `wgtsim sweep` on the shipped config
GOLDEN_SWEEP_SHA256 = "907dc67d340a623791e68868e51ac6dcc590fe642fea4d7ae8c7ef0f4638e8ac"


def payload_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, indent=2, sort_keys=True).encode()).hexdigest()


def shipped_payload(tmp_path, command, name, filename):
    """command's JSON output on a shipped config, without the config echo."""
    assert main([command, str(CONFIG_DIR / name), "-o", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / filename).read_text())
    del payload["config"]
    return payload


def write_config(path, **sections):
    cfg = {"schema": 1}
    cfg.update(sections)
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def flagship_config(tmp_path, out_dir, K=200, **extra):
    return write_config(
        tmp_path / "run.yaml",
        graph={"preset": "sensor-6"},
        weights={"mode": "static"},
        objective={"seed": 2},
        algorithm={
            "mode": "wgt",
            "alpha": 0.1,
            "lambda": {"e": 0.8, "m": 10.0},
            "K": K,
            "init_seed": 3,
        },
        report={"output_dir": str(out_dir), "residual_threshold": 1.0e-6},
        **extra,
    )


def baseline_config(tmp_path, out_dir, alpha=5.0e-4, K=3000, **extra):
    return write_config(
        tmp_path / "run_ab.yaml",
        graph={"preset": "sensor-6"},
        objective={"seed": 2},
        algorithm={"mode": "ab", "alpha": alpha, "K": K, "init_seed": 3},
        report={"output_dir": str(out_dir)},
        **extra,
    )


def ring_config(tmp_path, out_dir, n=40, weight_mode="time-varying", p=2, K=300):
    # a directed ring plus chords i -> (7i + 3) mod n + 1 and i -> (11i + 5) mod n + 1
    edges = {(i, i % n + 1) for i in range(1, n + 1)}
    edges |= {(i, (c * i + o) % n + 1) for i in range(1, n + 1) for c, o in ((7, 3), (11, 5))}
    return write_config(
        tmp_path / "ring.yaml",
        graph={"n": n, "edges": sorted([a, b] for a, b in edges if a != b)},
        weights={"mode": weight_mode, "a_floor": 0.1, "b_floor": 0.1, "seed": 5},
        objective={"n": n, "p": p, "seed": 4},
        algorithm={
            "mode": "wgt",
            "alpha": 0.02,
            "lambda": {"e": 0.8, "m": 10.0},
            "K": K,
            "init_seed": 6,
        },
        report={"output_dir": str(out_dir)},
    )


def two_agent_config(tmp_path, out_dir, K=200, **extra):
    return write_config(
        tmp_path / "two.yaml",
        graph={"preset": "ring-2"},
        objective={"n": 2, "seed": 2},
        algorithm={
            "mode": "wgt",
            "alpha": [0.05, 0.08],
            "lambda": {"e": 0.8, "m": 10.0},
            "K": K,
            "init_seed": 3,
        },
        report={"output_dir": str(out_dir)},
        **extra,
    )


class TestRun:
    def test_writes_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = flagship_config(tmp_path, out)
        assert main(["run", cfg]) == 0
        csv_text = (out / "report.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 201  # header + K+1 rows
        assert lines[1].startswith("1,1.0,")
        payload = json.loads((out / "report.json").read_text())
        assert payload["summary"]["iterations_to_threshold"] == 128
        assert payload["summary"]["converged"] is True
        assert payload["config"]["library"]["name"] == "wgtsim"
        assert payload["max_conservation_residual"] < 1e-9
        assert "iterations_to_threshold=128" in capsys.readouterr().out

    def test_single_iteration_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = flagship_config(tmp_path, out, K=1)
        assert main(["run", cfg]) == 0
        lines = (out / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header + initial row + one iteration

    def test_reports_are_byte_identical(self, tmp_path):
        cfg = flagship_config(tmp_path, tmp_path / "unused")
        assert main(["run", cfg, "-o", str(tmp_path / "a")]) == 0
        assert main(["run", cfg, "-o", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_SHA256))
    def test_shipped_report_bytes_are_pinned(self, tmp_path, name):
        assert main(["run", str(CONFIG_DIR / name), "-o", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_REPORT_SHA256[name]

    def test_time_varying_ring_report_bytes_are_pinned(self, tmp_path):
        assert main(["run", ring_config(tmp_path, tmp_path / "out")]) == 0
        digest = hashlib.sha256((tmp_path / "out" / "report.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_TV_RING_SHA256

    def test_static_ring_with_chords_report_bytes_are_pinned(self, tmp_path):
        cfg = ring_config(tmp_path, tmp_path / "out", n=64, weight_mode="static", p=4, K=400)
        assert main(["run", cfg]) == 0
        digest = hashlib.sha256((tmp_path / "out" / "report.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_STATIC_RING_SHA256

    def test_slow_mixing_ring_runs(self, tmp_path):
        # a ring of 400 with one chord 1 -> 200 mixes too slowly for the power
        # iteration to find phi; the direct solve takes over
        n = 400
        edges = [[i, i % n + 1] for i in range(1, n + 1)] + [[1, 200]]
        cfg = write_config(
            tmp_path / "slow.yaml",
            graph={"n": n, "edges": edges},
            objective={"n": n, "seed": 1},
            algorithm={"mode": "wgt", "alpha": 0.02, "lambda": {"e": 0.8, "m": 10.0}, "K": 20},
            report={"output_dir": str(tmp_path / "out")},
        )
        start = time.perf_counter()
        assert main(["run", cfg]) == 0
        assert time.perf_counter() - start < 1.0
        summary = json.loads((tmp_path / "out" / "report.json").read_text())["summary"]
        assert summary["xbar_weighting"] == "phi"

    def test_shipped_admissibility_section_is_pinned(self, tmp_path):
        payload = shipped_payload(tmp_path, "run", "run_wgt.yaml", "report.json")
        assert payload_digest(payload["admissibility"]) == GOLDEN_ADMISSIBILITY_SHA256

    def test_divergent_run_exits_3(self, tmp_path, capsys):
        cfg = baseline_config(tmp_path, tmp_path / "out", alpha=0.01)
        assert main(["run", cfg]) == 3
        assert "divergence guard" in capsys.readouterr().err

    def test_threshold_override(self, tmp_path):
        out = tmp_path / "out"
        cfg = flagship_config(tmp_path, out)
        assert main(["run", cfg, "--threshold", "1e-3"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["summary"]["residual_threshold"] == 1e-3
        assert payload["summary"]["iterations_to_threshold"] < 128

    def test_admissibility_section(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "adm.yaml",
            graph={"preset": "sensor-6"},
            objective={"seed": 2},
            algorithm={
                "mode": "wgt",
                "alpha": 1.0e-5,
                "lambda": {"e": 0.5, "m": 800.0},
                "K": 50,
                "init_seed": 3,
            },
            report={
                "output_dir": str(out),
                "admissibility": True,
                "admissibility_horizon": 200,
            },
        )
        assert main(["run", cfg]) == 0
        payload = json.loads((out / "report.json").read_text())
        adm = payload["admissibility"]
        assert adm["admissible"] is True
        assert adm["binding_term"] == "quadratic_margin"
        assert adm["window_first_k"] == 1

    def test_admissibility_skipped_for_baseline(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "ab_adm.yaml",
            graph={"preset": "sensor-6"},
            objective={"seed": 2},
            algorithm={"mode": "ab", "alpha": 5.0e-4, "K": 10, "init_seed": 3},
            report={"output_dir": str(out), "admissibility": True},
        )
        assert main(["run", cfg]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert "skipped" in payload["admissibility"]


@pytest.mark.parametrize("command", ["run", "attack", "audit", "sweep", "validate"])
def test_summable_lambda_warns_on_stderr_only(tmp_path, capsys, monkeypatch, command):
    cfg = write_config(
        tmp_path / "e3.yaml",
        graph={"preset": "sensor-6"},
        objective={"seed": 2},
        algorithm={"mode": "wgt", "alpha": 0.1, "lambda": {"e": 3.0, "m": 10.0}, "K": 60, "init_seed": 3},
        report={"output_dir": str(tmp_path / "out")},
        sweep={"seeds": [0], "e": {"grid": [0.8]}},
    )

    def outputs():
        rc = main([command, cfg])
        out, err = capsys.readouterr()
        return rc, out, err, {f.name: f.read_bytes() for f in (tmp_path / "out").glob("*")}

    rc, out, err, files = outputs()
    assert err.splitlines() == [
        "warning: algorithm.lambda.e = 3 > 1 makes lambda_k summable, outside the convergence theory"
    ]
    # the same command where the sum counts as divergent: no warning, and
    # the exit code, stdout and every output file as they were
    monkeypatch.setattr(engine.LambdaSchedule, "sum_diverges", True)
    assert outputs() == (rc, out, "", files)


class TestValidate:
    def test_prints_resolved_config(self, tmp_path, capsys):
        cfg = flagship_config(tmp_path, tmp_path / "out")
        assert main(["validate", cfg]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["schema"] == 1
        assert resolved["algorithm"]["alpha"] == [0.1] * 6
        assert resolved["graph"]["n"] == 6
        assert "rng_family" in resolved["library"]

    def test_seed_overrides_land_in_resolved_config(self, tmp_path, capsys):
        cfg = flagship_config(tmp_path, tmp_path / "out")
        assert main([
            "validate", cfg,
            "--objective-seed", "9", "--init-seed", "8", "--weight-seed", "7",
        ]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["objective"]["seed"] == 9
        assert resolved["algorithm"]["init_seed"] == 8
        assert resolved["weights"]["seed"] == 7

    def test_custom_edge_list_graph(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "tri.yaml",
            graph={"n": 3, "edges": [[1, 2], [2, 3], [3, 1]]},
            objective={"n": 3, "seed": 0},
            algorithm={
                "mode": "wgt",
                "alpha": 0.01,
                "lambda": {"e": 0.8, "m": 10.0},
                "K": 5,
            },
        )
        assert main(["validate", cfg]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["graph"]["edges"] == [[1, 2], [2, 3], [3, 1]]

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.yaml")))
    def test_shipped_configs_validate(self, name, capsys):
        assert main(["validate", str(CONFIG_DIR / name)]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == 1


class TestConfigErrors:
    def run_expecting_2(self, tmp_path, capsys, *flags, command="validate", **sections):
        cfg = write_config(tmp_path / "bad.yaml", **sections)
        assert main([command, cfg, *flags]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        self.run_expecting_2(
            tmp_path, capsys,
            graph={"preset": "sensor-6"},
            objective={"seed": 0},
            algorithm={"mode": "ab", "alpha": 1e-4, "K": 5},
            typo_section={},
        )

    def test_wrong_schema_version(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "bad.yaml",
            graph={"preset": "sensor-6"},
            objective={"seed": 0},
            algorithm={"mode": "ab", "alpha": 1e-4, "K": 5},
        )
        text = (tmp_path / "bad.yaml").read_text().replace("schema: 1", "schema: 2")
        (tmp_path / "bad.yaml").write_text(text)
        assert main(["validate", cfg]) == 2
        assert "schema" in capsys.readouterr().err

    def test_missing_required_sections(self, tmp_path, capsys):
        self.run_expecting_2(tmp_path, capsys, graph={"preset": "sensor-6"})

    def test_malformed_yaml(self, tmp_path, capsys):
        (tmp_path / "bad.yaml").write_text("schema: 1\ngraph: [1, 2\n")
        assert main(["validate", str(tmp_path / "bad.yaml")]) == 2
        assert "not valid YAML" in capsys.readouterr().err

    def test_unknown_preset_and_preset_edge_conflict(self, tmp_path, capsys):
        self.run_expecting_2(
            tmp_path, capsys,
            graph={"preset": "torus-9"},
            objective={"seed": 0},
            algorithm={"mode": "ab", "alpha": 1e-4, "K": 5},
        )
        self.run_expecting_2(
            tmp_path, capsys,
            graph={"preset": "sensor-6", "n": 6},
            objective={"seed": 0},
            algorithm={"mode": "ab", "alpha": 1e-4, "K": 5},
        )

    def test_disconnected_graph(self, tmp_path, capsys):
        self.run_expecting_2(
            tmp_path, capsys,
            graph={"n": 3, "edges": [[1, 2], [2, 3]]},
            objective={"n": 3, "seed": 0},
            algorithm={"mode": "ab", "alpha": 1e-4, "K": 5},
        )

    def test_agent_count_mismatch(self, tmp_path, capsys):
        self.run_expecting_2(
            tmp_path, capsys,
            graph={"preset": "sensor-6"},
            objective={"n": 4, "seed": 0},
            algorithm={"mode": "ab", "alpha": 1e-4, "K": 5},
        )

    def test_bad_algorithm_values(self, tmp_path, capsys):
        base = dict(graph={"preset": "sensor-6"}, objective={"seed": 0})
        self.run_expecting_2(
            tmp_path, capsys, **base,
            algorithm={"mode": "push", "alpha": 1e-4, "K": 5},
        )
        self.run_expecting_2(
            tmp_path, capsys, **base,
            algorithm={"mode": "ab", "alpha": -0.1, "K": 5},
        )
        self.run_expecting_2(
            tmp_path, capsys, **base,
            algorithm={"mode": "ab", "alpha": [1e-4, 1e-4], "K": 5},
        )
        self.run_expecting_2(
            tmp_path, capsys, **base,
            algorithm={"mode": "wgt", "alpha": 0.1, "K": 5},  # no lambda
        )
        self.run_expecting_2(
            tmp_path, capsys, **base,
            algorithm={"mode": "wgt", "alpha": 0.1, "lambda": {"e": 0.0}, "K": 5},
        )
        self.run_expecting_2(
            tmp_path, capsys, **base,
            algorithm={"mode": "ab", "alpha": 1e-4, "K": 0},
        )

    def test_baseline_needs_one_common_step(self, tmp_path, capsys):
        # validate and run check the engine's rule at the same place
        for command in ("validate", "run"):
            self.run_expecting_2(
                tmp_path, capsys, command=command,
                graph={"preset": "sensor-6"},
                objective={"seed": 0},
                algorithm={"mode": "ab", "alpha": [1e-4, 2e-4, 1e-4, 1e-4, 1e-4, 1e-4], "K": 5},
                report={"output_dir": str(tmp_path / "out")},
            )
        assert not (tmp_path / "out").exists()

    def test_non_finite_and_mistyped_numbers(self, tmp_path, capsys):
        base = dict(graph={"preset": "sensor-6"}, objective={"seed": 0})
        algo = {"mode": "wgt", "alpha": 0.1, "lambda": {"e": 0.8, "m": 10.0}, "K": 5}
        for bad in (float("nan"), float("inf"), True):
            self.run_expecting_2(tmp_path, capsys, **base, algorithm={**algo, "alpha": bad})
        self.run_expecting_2(
            tmp_path, capsys, **base,
            algorithm={**algo, "lambda": {"e": 0.8, "m": float("nan")}},
        )
        for report in (
            {"divergence_cap": float("nan")},
            {"divergence_cap": float("inf")},
            {"divergence_cap": 0.0},
            {"divergence_cap": -1.0},
            {"residual_threshold": -1.0},
            {"record_transcript": "no"},
            {"admissibility": "no"},
        ):
            report = {"output_dir": str(tmp_path / "out"), **report}
            for command in ("run", "validate"):
                self.run_expecting_2(tmp_path, capsys, command=command, **base, algorithm=algo,
                                     report=report)
        for threshold in ("nan", "-1"):
            self.run_expecting_2(tmp_path, capsys, "--threshold", threshold, **base, algorithm=algo)
        for flag in ("--objective-seed", "--init-seed", "--weight-seed"):
            self.run_expecting_2(tmp_path, capsys, flag, "-1", **base, algorithm=algo)
        # validate refuses the sweep sections the sweep command refuses
        for command in ("sweep", "validate"):
            for grid in ([0.1, float("nan")], 0.1, [-0.02, 0.05]):
                self.run_expecting_2(
                    tmp_path, capsys, command=command, **base, algorithm=algo,
                    sweep={"seeds": [0], "alpha": {"grid": grid}},
                )

    def test_out_of_range_counts_and_agent_ids(self, tmp_path, capsys):
        base = dict(graph={"preset": "sensor-6"}, objective={"seed": 0})
        algo = {"mode": "ab", "alpha": 5e-4, "K": 5}
        self.run_expecting_2(
            tmp_path, capsys, "--target", "0", command="attack", **base, algorithm=algo
        )
        # validate refuses the attack and audit sections their commands refuse
        for command in ("attack", "validate"):
            for attack in ({"target": 7}, {"window": 0}):
                self.run_expecting_2(
                    tmp_path, capsys, command=command, **base, algorithm=algo, attack=attack
                )
        for command in ("audit", "validate"):
            for audit in ({"K": 0}, {"honest": 9}, {"honest": 2, "attacker": 2}):
                self.run_expecting_2(
                    tmp_path, capsys, command=command, **base, algorithm=algo, audit=audit
                )
        self.run_expecting_2(
            tmp_path, capsys, **base, algorithm=algo, report={"admissibility_horizon": 0}
        )
        for dims in ({"d": 0}, {"p": 0}):
            self.run_expecting_2(
                tmp_path, capsys, graph={"preset": "sensor-6"}, objective=dims, algorithm=algo
            )
        for edges in ([[1, 2], [2, 3], [3, 1], [2, 2]], [[1, 2], [2, 3], [3, 1], [1, 2]],
                      [[1, 2], [2, 3], [3, 4]]):
            self.run_expecting_2(
                tmp_path, capsys, graph={"n": 3, "edges": edges}, objective={"n": 3},
                algorithm=algo,
            )
        self.run_expecting_2(
            tmp_path, capsys, graph={"preset": "ring-1"}, objective={"n": 1}, algorithm=algo
        )

    def test_library_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("library bug")

        monkeypatch.setattr(cli, "run", broken)
        with pytest.raises(ValueError, match="library bug"):
            main(["run", flagship_config(tmp_path, tmp_path / "out")])

    def test_numerical_error_exits_5(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise NumericalError("solver did not converge")

        monkeypatch.setattr(cli, "run", failing)
        assert main(["run", flagship_config(tmp_path, tmp_path / "out")]) == 5
        assert "numerical error: solver did not converge" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/nowhere.yaml"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_load_config_requires_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        from wgtsim.errors import ConfigError

        with pytest.raises(ConfigError):
            load_config(path)


class TestAttack:
    def test_baseline_attack_conclusive(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = baseline_config(
            tmp_path, out,
            attack={"target": 1, "stabilization_tol": 1.0e-10, "window": 50},
        )
        assert main(["attack", cfg]) == 0
        payload = json.loads((out / "attack.json").read_text())
        att = payload["attack"]
        assert att["conclusive"] is True
        assert att["relative_error"] <= 1e-10
        assert att["mode"] == "ab"
        s = payload["audits"]["state_structural"]
        assert (s["equations"], s["unknowns"], s["nullity"]) == (18, 27, 9)
        g = payload["audits"]["gradient_structural"]
        assert (g["equations"], g["unknowns"], g["nullity"]) == (20, 38, 18)
        assert "two_agent" not in payload["audits"]
        assert "conclusive" in capsys.readouterr().out

    def test_target_flag_overrides_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = baseline_config(
            tmp_path, out, attack={"target": 1},
        )
        assert main(["attack", cfg, "--target", "4"]) == 0
        payload = json.loads((out / "attack.json").read_text())
        assert payload["attack"]["target"] == 4

    def test_unstabilized_attack_exits_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = flagship_config(
            tmp_path, out, K=100,
            attack={"target": 1, "stabilization_tol": 1.0e-10, "window": 50},
        )
        assert main(["attack", cfg]) == 4
        payload = json.loads((out / "attack.json").read_text())
        assert payload["attack"]["conclusive"] is False
        assert "inconclusive" in capsys.readouterr().out

    def test_two_agent_attack_includes_numeric_audits(self, tmp_path):
        out = tmp_path / "out"
        cfg = two_agent_config(
            tmp_path, out, attack={"target": 1, "window": 50},
        )
        code = main(["attack", cfg])
        payload = json.loads((out / "attack.json").read_text())
        two = payload["audits"]["two_agent"]
        assert two["state"]["rank"] == 18
        assert two["state"]["nullity"] == 9
        assert two["state"]["consistency_residual"] <= 1e-12
        assert two["gradient"]["rank"] == 20
        assert two["gradient_consistency_residual"] <= 1e-12
        # Messages are still moving at K=200, so the eavesdropper's own
        # detector reports the attempt as not yet stabilized.
        assert code == 4

    def test_one_iteration_two_agent_attack_records_the_skipped_audit(self, tmp_path, capsys):
        # the attack stands on one iteration; the numeric two-agent audit
        # needs two, which attack.json says and audit refuses with exit 2
        out = tmp_path / "out"
        cfg = two_agent_config(tmp_path, out, K=1, attack={"target": 1})
        assert main(["attack", cfg]) == 4
        reason = "the two-agent audit needs algorithm.K >= 2"
        payload = json.loads((out / "attack.json").read_text())
        assert payload["audits"]["two_agent"] == {"skipped": reason}
        capsys.readouterr()
        assert main(["audit", cfg]) == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(GOLDEN_ATTACK_SHA256))
    def test_shipped_attack_payload_is_pinned(self, tmp_path, name):
        payload = shipped_payload(tmp_path, "attack", name, "attack.json")
        assert payload_digest(payload) == GOLDEN_ATTACK_SHA256[name]


def assert_refused_before_allocating(monkeypatch, capsys, command, cfg):
    """command on cfg exits 2, naming the size and the remedy, without
    drawing the first state, allocating more than 10 MiB or creating the
    output directory "out" next to cfg."""
    def started(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(engine, "_trajectory", started)
    tracemalloc.start()
    try:
        assert main([command, cfg]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    err = capsys.readouterr().err
    assert "GiB" in err and "lower algorithm.K" in err
    assert not (Path(cfg).parent / "out").exists()


@pytest.mark.parametrize("command", ["attack", "audit"])
def test_oversized_transcript_exits_2_before_allocating(tmp_path, capsys, monkeypatch, command):
    # 10^9 iterations of a transcript need hundreds of GiB; the run must be
    # refused before any table is allocated or the first state is drawn
    config = baseline_config if command == "attack" else two_agent_config
    cfg = config(tmp_path, tmp_path / "out", K=10**9)
    assert_refused_before_allocating(monkeypatch, capsys, command, cfg)


def test_oversized_run_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    # run records no transcript, but 10^9 rows of metrics and pis alone take
    # 89 GiB at n = 6; validate refuses what run refuses
    cfg = flagship_config(tmp_path, tmp_path / "out", K=10**9)
    for command in ("run", "validate"):
        assert_refused_before_allocating(monkeypatch, capsys, command, cfg)


class TestAudit:
    def test_two_agent_numeric_audit(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = two_agent_config(
            tmp_path, out, audit={"K": 10, "honest": 1, "attacker": 2},
        )
        assert main(["audit", cfg]) == 0
        payload = json.loads((out / "audit.json").read_text())
        assert payload["state_structural"]["method"] == "structural"
        two = payload["two_agent"]
        assert two["K"] == 10
        assert two["state"]["method"] == "numeric"
        assert two["state"]["rank"] == 18
        assert two["gradient"]["rank"] == 20
        assert two["gradient"]["nullity"] == 18
        assert two["gradient_consistency_residual"] <= 1e-12
        assert "nullity" in capsys.readouterr().out

    def test_shipped_audit_payload_is_pinned(self, tmp_path):
        payload = shipped_payload(tmp_path, "audit", "audit_two_agent.yaml", "audit.json")
        assert payload_digest(payload) == GOLDEN_AUDIT_SHA256

    def test_structural_only_for_larger_networks(self, tmp_path):
        out = tmp_path / "out"
        cfg = flagship_config(
            tmp_path, out, K=5, audit={"K": 3},
        )
        assert main(["audit", cfg]) == 0
        payload = json.loads((out / "audit.json").read_text())
        assert "two_agent" not in payload
        assert (
            payload["state_structural"]["equations"],
            payload["state_structural"]["unknowns"],
        ) == (4, 6)
        assert (
            payload["gradient_structural"]["equations"],
            payload["gradient_structural"]["unknowns"],
        ) == (6, 10)


class TestSweep:
    def sweep_config(self, tmp_path, out, **sweep):
        return write_config(
            tmp_path / "sweep.yaml",
            graph={"preset": "sensor-6"},
            objective={"seed": 2},
            algorithm={
                "mode": "wgt",
                "alpha": 0.02,
                "lambda": {"e": 0.8, "m": 10.0},
                "K": 100,
                "init_seed": 3,
            },
            report={"output_dir": str(out), "residual_threshold": 1.0e-6},
            sweep=sweep,
        )

    def test_grid_results_and_monotone_votes(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self.sweep_config(
            tmp_path, out,
            K=3000,
            seeds=[0],
            alpha={"grid": [0.05, 0.1], "e": 0.8, "m": 100.0},
            e={"grid": [0.6, 0.8], "alpha": 0.02, "m": 10.0},
        )
        assert main(["sweep", cfg]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 5  # header + 2 alpha cells + 2 e cells
        payload = json.loads((out / "sweep.json").read_text())
        cells = {(c["kind"], c["alpha"], c["e"]): c for c in payload["cells"]}
        assert cells[("alpha", 0.05, 0.8)]["iterations_to_threshold"] == 527
        assert cells[("alpha", 0.1, 0.8)]["iterations_to_threshold"] == 206
        assert cells[("e", 0.02, 0.6)]["iterations_to_threshold"] == 163
        assert cells[("e", 0.02, 0.8)]["iterations_to_threshold"] == 447
        assert payload["summary"]["alpha_monotone_votes"] == [True]
        assert payload["summary"]["alpha_monotone_majority"] is True
        assert payload["summary"]["e_monotone_votes"] == [True]
        assert payload["summary"]["e_monotone_majority"] is True
        assert "majority=True" in capsys.readouterr().out

    def test_censored_cells_cannot_fake_the_ordering(self, tmp_path):
        # A step size too small to converge within the budget is censored to
        # +inf iterations, which keeps a nonincreasing sequence valid.
        out = tmp_path / "out"
        cfg = self.sweep_config(
            tmp_path, out,
            K=500,
            seeds=[0],
            alpha={"grid": [1.0e-5, 0.1], "e": 0.8, "m": 100.0},
        )
        assert main(["sweep", cfg]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        slow = next(c for c in payload["cells"] if c["alpha"] == 1.0e-5)
        fast = next(c for c in payload["cells"] if c["alpha"] == 0.1)
        assert slow["iterations_to_threshold"] is None
        assert fast["iterations_to_threshold"] is not None
        assert payload["summary"]["alpha_monotone_votes"] == [True]
        # The censored cell leaves its CSV fields empty rather than faking 0.
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        censored = [l for l in lines[1:] if l.split(",")[1] == "1e-05"]
        assert censored and censored[0].endswith(",ok,,") is False
        assert censored[0].split(",")[7] == ""

    def test_shipped_sweep_csv_is_pinned(self, tmp_path):
        assert main(["sweep", str(CONFIG_DIR / "sweep.yaml"), "-o", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_SWEEP_SHA256

    def test_huge_budget_allocates_nothing_of_its_size(self, tmp_path):
        # a sweep keeps each cell's state and residual only, so a budget of
        # 10^9 iterations costs nothing until it is used
        out = tmp_path / "out"
        cfg = self.sweep_config(
            tmp_path, out, K=10**9, seeds=[0], alpha={"grid": [0.1], "e": 0.8, "m": 100.0}
        )
        tracemalloc.start()
        try:
            assert main(["sweep", cfg]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        (cell,) = json.loads((out / "sweep.json").read_text())["cells"]
        assert (cell["status"], cell["iterations_to_threshold"]) == ("ok", 206)

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path, tmp_path / "out", seeds=[0])
        for command in ("sweep", "validate"):
            assert main([command, cfg]) == 2
            assert "empty grid" in capsys.readouterr().err

    def test_sweep_requires_weighted_mode(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "sweep_ab.yaml",
            graph={"preset": "sensor-6"},
            objective={"seed": 2},
            algorithm={"mode": "ab", "alpha": 5.0e-4, "K": 100},
            sweep={"alpha": {"grid": [0.05, 0.1]}},
        )
        for command in ("sweep", "validate"):
            assert main([command, cfg]) == 2
            assert "wgt" in capsys.readouterr().err


class TestResolve:
    def test_defaults_fill_in(self, tmp_path):
        cfg = load_config(
            flagship_config(tmp_path, tmp_path / "out")
        )
        resolved = resolve(cfg)
        assert resolved["weights"]["a_floor"] == 0.1
        assert resolved["objective"]["d"] == 3
        assert resolved["objective"]["p"] == 2
        assert resolved["report"]["divergence_cap"] == 1e12
        assert resolved["algorithm"]["lambda"] == {"e": 0.8, "m": 10.0}

    def test_string_numbers_accepted(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path / "s.yaml",
                graph={"preset": "sensor-6"},
                objective={"seed": 2},
                algorithm={
                    "mode": "wgt",
                    "alpha": "1e-2",
                    "lambda": {"e": "0.8", "m": "10"},
                    "K": 5,
                },
            )
        )
        resolved = resolve(cfg)
        assert resolved["algorithm"]["alpha"] == [0.01] * 6
        assert resolved["algorithm"]["lambda"]["e"] == 0.8
