"""Update laws, run loop, transcripts, and bit-exact replay."""

import tracemalloc

import numpy as np
import pytest

from wgtsim.engine import (
    ConstantLambda,
    LambdaSchedule,
    Scenario,
    StepSizes,
    replay,
    run,
)
from wgtsim.errors import ConfigError, DivergenceError
from wgtsim.graph import DirectedGraph, directed_ring, sensor_network_6
from wgtsim.objective import QuadraticObjective, ObjectiveEnsemble, make_sensor_scenario
from wgtsim.weights import WeightSchedule


def single_agent_scenario(alpha=0.5, lam=ConstantLambda(1.0), init_seed=7):
    """n=1, f(x) = x^2: A = B = [[1]], gradient 2x."""
    graph = DirectedGraph(1, ())
    return Scenario(
        graph=graph,
        weights=WeightSchedule(graph, mode="static"),
        ensemble=ObjectiveEnsemble([QuadraticObjective(S=np.array([[1.0]]), s=np.array([0.0]))]),
        steps=StepSizes.homogeneous(alpha, 1),
        lam=lam,
        init_seed=init_seed,
    )


def flagship_scenario(lam=LambdaSchedule(e=0.8, m=10.0), alpha=0.1):
    graph = sensor_network_6()
    weights = WeightSchedule(graph, mode="static")
    ens = make_sensor_scenario(seed=2)
    return Scenario(
        graph=graph,
        weights=weights,
        ensemble=ens,
        steps=StepSizes.homogeneous(alpha, 6),
        lam=lam,
        init_seed=3,
    )


class TestLambdaSchedules:
    def test_values_and_divergence_flag(self):
        lam = LambdaSchedule(e=0.8, m=10.0)
        assert lam.value(1) == pytest.approx(1.0 / 11.0)
        assert lam.value(32) == pytest.approx(1.0 / (32**0.8 + 10.0))
        assert lam.sum_diverges
        assert not LambdaSchedule(e=1.4).sum_diverges
        assert LambdaSchedule(e=1.0).sum_diverges

    def test_nonincreasing(self):
        lam = LambdaSchedule(e=0.5, m=0.0)
        vals = [lam.value(k) for k in range(1, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_constant(self):
        lam = ConstantLambda(0.3)
        assert lam.value(1) == lam.value(999) == 0.3
        assert lam.sum_diverges

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LambdaSchedule(e=0.0)
        with pytest.raises(ValueError):
            LambdaSchedule(e=0.5, m=-1.0)
        with pytest.raises(ValueError):
            ConstantLambda(0.0)
        for e, m in ((np.nan, 0.0), (np.inf, 0.0), (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(ValueError):
                LambdaSchedule(e=e, m=m)
        for c in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ConstantLambda(c)


class TestStepSizes:
    def test_homogeneous(self):
        s = StepSizes.homogeneous(0.05, 4)
        assert s.is_homogeneous
        assert s.alpha_check == pytest.approx(0.05)

    def test_heterogeneous_max(self):
        s = StepSizes(np.array([0.01, 0.07, 0.03]))
        assert not s.is_homogeneous
        assert s.alpha_check == pytest.approx(0.07)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StepSizes(np.array([0.1, 0.0]))
        with pytest.raises(ValueError):
            StepSizes(np.array([-0.1]))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                StepSizes(np.array([0.1, bad]))
            with pytest.raises(ValueError):
                StepSizes.homogeneous(bad, 3)


class TestSingleAgentHandCases:
    def test_baseline_one_step(self):
        # alpha = 1/2: y1 = 2 x1, x2 = x1 - 0.5 * 2 x1 = 0, y2 = y1 + 0 - 2 x1 = 0.
        for init_seed in (0, 7, 123):
            scen = single_agent_scenario(init_seed=init_seed)
            report, _ = run(scen, "ab", 1, record_states=True)
            xs, ys = report.states
            assert xs[0, 0, 0] != 0.0 and ys[0, 0, 0] == 2.0 * xs[0, 0, 0]
            assert xs[1, 0, 0] == 0.0
            assert ys[1, 0, 0] == 0.0
            assert report.final_state.k == 2

    def test_weighted_one_step_with_unit_lambda(self):
        # adapt-then-combine with lambda = 1: x1 - 0.5 * 2 x1 = 0 is sent and kept.
        for init_seed in (0, 7, 123):
            scen = single_agent_scenario(init_seed=init_seed)
            report, _ = run(scen, "wgt", 1, record_states=True)
            xs, ys = report.states
            assert xs[0, 0, 0] != 0.0
            assert xs[1, 0, 0] == 0.0
            assert ys[1, 0, 0] == 0.0

    def test_both_laws_reduce_to_centralized_descent(self):
        # With one agent and unit gradient weight, both laws are plain
        # gradient descent: x_{k+1} = x_k - alpha * 2 x_k.
        alpha = 0.1
        scen = single_agent_scenario(alpha=alpha)
        rep_ab, _ = run(scen, "ab", 30, record_states=True)
        rep_w, _ = run(scen, "wgt", 30, record_states=True)
        xs_ab = rep_ab.states[0][:, 0, 0]
        xs_w = rep_w.states[0][:, 0, 0]
        x = xs_ab[0]
        expected = [x]
        for _ in range(30):
            x = x - alpha * 2.0 * x
            expected.append(x)
        assert np.allclose(xs_ab, expected, rtol=1e-13, atol=1e-300)
        assert np.array_equal(xs_ab, xs_w)


class TestRunLoop:
    def test_report_shapes(self):
        scen = flagship_scenario()
        report, transcript = run(scen, "wgt", 50)
        assert report.K == 50
        assert report.residuals.shape == (51,)
        assert report.pis.shape == (51, 6)
        assert transcript.K == 50
        assert transcript.x_msgs.shape == (50, 8, 2)
        assert report.residuals[0] == pytest.approx(1.0)

    def test_zero_and_one_iteration_runs(self):
        scen = flagship_scenario()
        r0, t0 = run(scen, "wgt", 0)
        assert r0.K == 0 and r0.residuals.shape == (1,) and t0.K == 0
        r1, t1 = run(scen, "wgt", 1)
        assert r1.K == 1 and r1.residuals.shape == (2,) and t1.K == 1

    def test_deterministic(self):
        r1, t1 = run(flagship_scenario(), "wgt", 80)
        r2, t2 = run(flagship_scenario(), "wgt", 80)
        assert np.array_equal(r1.residuals, r2.residuals)
        assert np.array_equal(t1.x_msgs, t2.x_msgs)
        assert np.array_equal(r1.final_state.x, r2.final_state.x)

    def test_flagship_convergence_count(self):
        # Frozen behavior of the canonical weighted-tracking run.
        report, _ = run(flagship_scenario(), "wgt", 300, record_transcript=False)
        assert report.iterations_to_threshold() == 128

    def test_residual_is_squared_and_normalized(self):
        scen = flagship_scenario()
        report, _ = run(scen, "wgt", 5, record_states=True)
        xs = report.states[0]
        d0 = np.linalg.norm(xs[0] - report.x_star) ** 2
        for t in range(6):
            direct = np.linalg.norm(xs[t] - report.x_star) ** 2 / d0
            assert report.residuals[t] == pytest.approx(direct, rel=1e-12)

    def test_run_holds_no_pi_table(self):
        # the (K+1, n) table of pi rows alone would take 8.0 MB; pis is built when read
        graph = directed_ring(200)
        ens = make_sensor_scenario(n=200, p=1, seed=0)
        scen = Scenario(graph=graph, weights=WeightSchedule(graph), ensemble=ens,
                        steps=StepSizes.homogeneous(0.1 / ens.L, 200), lam=LambdaSchedule(e=0.8, m=10.0))
        tracemalloc.start()
        try:
            report, _ = run(scen, "wgt", 5000, record_transcript=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert report.pis.tobytes() == scen.weights.pi_sequence(5001).tobytes()

    def test_divergence_guard(self):
        # Baseline tracking blows up at alpha = 0.01 on this ensemble.
        scen = flagship_scenario(lam=None, alpha=0.01)
        with pytest.raises(DivergenceError) as exc:
            run(scen, "ab", 3000, record_transcript=False)
        assert exc.value.residual > 1e12 or not np.isfinite(exc.value.residual)
        assert exc.value.k > 1

    def test_baseline_converges_at_small_step(self):
        scen = flagship_scenario(lam=None, alpha=5e-4)
        report, _ = run(scen, "ab", 3000, record_transcript=False)
        assert report.residuals[-1] < 1e-12
        assert report.iterations_to_threshold() is not None

    def test_slow_decay_beats_too_fast_decay(self):
        # e <= 1 (divergent weight sum) reaches the threshold; e > 1 stalls
        # above it for the whole budget (censored comparison).
        fast, _ = run(
            flagship_scenario(lam=LambdaSchedule(e=0.8, m=10.0)),
            "wgt", 3000, record_transcript=False,
        )
        slow, _ = run(
            flagship_scenario(lam=LambdaSchedule(e=1.4, m=10.0)),
            "wgt", 5000, record_transcript=False,
        )
        assert fast.iterations_to_threshold() == 128
        assert slow.iterations_to_threshold() is None
        assert slow.residuals[-1] > 1e-6


class TestConservation:
    def test_baseline_tracker_sum_conserves_gradient_sum(self):
        scen = flagship_scenario(lam=None, alpha=5e-4)
        report, _ = run(scen, "ab", 2000, record_transcript=False)
        bound = 1e-9 * (1.0 + report.grad_norms)
        assert (report.conservation_residuals <= bound).all()

    def test_weighted_tracker_sum_conserves_scaled_gradient_sum(self):
        report, _ = run(flagship_scenario(), "wgt", 2000, record_transcript=False)
        bound = 1e-9 * (1.0 + report.grad_norms)
        assert (report.conservation_residuals <= bound).all()

    def test_conservation_under_time_varying_weights(self):
        graph = sensor_network_6()
        scen = Scenario(
            graph=graph,
            weights=WeightSchedule(graph, mode="time-varying", seed=4),
            ensemble=make_sensor_scenario(seed=2),
            steps=StepSizes.homogeneous(0.1, 6),
            lam=LambdaSchedule(e=0.8, m=10.0),
            init_seed=3,
        )
        report, _ = run(scen, "wgt", 500, record_transcript=False)
        bound = 1e-9 * (1.0 + report.grad_norms)
        assert (report.conservation_residuals <= bound).all()

    def test_conservation_identity_directly(self):
        # Recompute sum_i y_i - lambda_k sum_i grad f_i(x_i) from raw states.
        scen = flagship_scenario()
        report, _ = run(scen, "wgt", 100, record_transcript=False, record_states=True)
        xs, ys = report.states
        lam = scen.lam
        for t in (0, 3, 50, 100):
            k = t + 1
            g = scen.ensemble.gradients(xs[t])
            gap = ys[t].sum(axis=0) - lam.value(k) * g.sum(axis=0)
            assert np.linalg.norm(gap) <= 1e-10 * (1.0 + np.linalg.norm(g))


class TestTranscript:
    def test_baseline_messages_match_states(self):
        scen = flagship_scenario(lam=None, alpha=5e-4)
        report, tr = run(scen, "ab", 10, record_states=True)
        xs, ys = report.states
        src, dst = scen.graph.edge_index_arrays()
        _, B = scen.weights.matrices_at(1)
        for t in range(10):
            assert np.array_equal(tr.x_msgs[t], xs[t][src])
            assert np.array_equal(tr.y_msgs[t], B[dst, src][:, None] * ys[t][src])

    def test_weighted_messages_carry_adapted_states(self):
        scen = flagship_scenario()
        report, tr = run(scen, "wgt", 10, record_states=True)
        xs, ys = report.states
        src, dst = scen.graph.edge_index_arrays()
        alphas = scen.steps.values
        for t in range(10):
            combined = xs[t] - alphas[:, None] * ys[t]
            assert np.array_equal(tr.x_msgs[t], combined[src])

    def test_edge_index_queries(self):
        scen = flagship_scenario()
        _, tr = run(scen, "wgt", 1)
        graph = tr.graph
        assert graph is scen.graph
        for i in range(1, 7):
            outs = graph.out_edge_indices(i)
            assert [e for e, (a, _) in enumerate(graph.edges) if a == i] == outs.tolist()
            ins = graph.in_edge_indices(i)
            assert [e for e, (_, b) in enumerate(graph.edges) if b == i] == ins.tolist()
        with pytest.raises(ValueError):
            graph.out_edge_indices(7)


class TestReplay:
    @pytest.mark.parametrize("mode", ["ab", "wgt"])
    @pytest.mark.parametrize("weight_mode", ["static", "time-varying"])
    def test_bit_exact(self, mode, weight_mode):
        graph = sensor_network_6()
        scen = Scenario(
            graph=graph,
            weights=WeightSchedule(graph, mode=weight_mode, seed=6),
            ensemble=make_sensor_scenario(seed=2),
            steps=StepSizes.homogeneous(0.1 if mode == "wgt" else 5e-4, 6),
            lam=LambdaSchedule(e=0.8, m=10.0),
            init_seed=3,
        )
        report, tr = run(scen, mode, 60, record_states=True)
        xs, ys = replay(scen, mode, tr)
        assert np.array_equal(xs, report.states[0])
        assert np.array_equal(ys, report.states[1])

    def test_replay_rejects_mode_mismatch(self):
        scen = flagship_scenario()
        _, tr = run(scen, "wgt", 3)
        with pytest.raises(ValueError):
            replay(scen, "ab", tr)

    def test_replay_rejects_graph_mismatch(self):
        scen = flagship_scenario()
        _, tr = run(scen, "wgt", 3)
        other = directed_ring(6)
        scen2 = Scenario(
            graph=other,
            weights=WeightSchedule(other, mode="static"),
            ensemble=make_sensor_scenario(seed=2),
            steps=StepSizes.homogeneous(0.1, 6),
            lam=LambdaSchedule(e=0.8, m=10.0),
            init_seed=3,
        )
        with pytest.raises(ValueError):
            replay(scen2, "wgt", tr)


class TestValidation:
    def test_run_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            run(flagship_scenario(), "push-pull", 5)

    def test_run_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            run(flagship_scenario(), "wgt", -1)

    def test_weighted_mode_needs_a_schedule(self):
        with pytest.raises(ConfigError):
            run(flagship_scenario(lam=None), "wgt", 5)

    def test_baseline_rejects_heterogeneous_steps(self):
        graph = sensor_network_6()
        scen = Scenario(
            graph=graph,
            weights=WeightSchedule(graph, mode="static"),
            ensemble=make_sensor_scenario(seed=2),
            steps=StepSizes(np.linspace(1e-4, 5e-4, 6)),
            lam=None,
            init_seed=3,
        )
        with pytest.raises(ConfigError):
            run(scen, "ab", 5)

    def test_weighted_mode_accepts_heterogeneous_steps(self):
        graph = sensor_network_6()
        scen = Scenario(
            graph=graph,
            weights=WeightSchedule(graph, mode="static"),
            ensemble=make_sensor_scenario(seed=2),
            steps=StepSizes(np.linspace(0.05, 0.1, 6)),
            lam=LambdaSchedule(e=0.8, m=10.0),
            init_seed=3,
        )
        report, _ = run(scen, "wgt", 200, record_transcript=False)
        assert report.residuals[-1] < report.residuals[0]

    def test_single_step_rejects_increasing_weight_schedule(self):
        class Increasing:
            def value(self, k):
                return float(k)

        # a duck-typed schedule that grows from k to k+1 fails in the shared
        # kernel, so run and replay reject it alike
        with pytest.raises(ValueError, match="nonincreasing"):
            run(single_agent_scenario(alpha=0.1, lam=Increasing()), "wgt", 1)
        _, tr = run(single_agent_scenario(alpha=0.1), "wgt", 3)
        with pytest.raises(ValueError, match="nonincreasing"):
            replay(single_agent_scenario(alpha=0.1, lam=Increasing()), "wgt", tr)

    def test_scenario_cross_checks(self):
        graph = sensor_network_6()
        ring = directed_ring(4)
        with pytest.raises(ConfigError):
            Scenario(
                graph=graph,
                weights=WeightSchedule(ring, mode="static"),
                ensemble=make_sensor_scenario(seed=2),
                steps=StepSizes.homogeneous(0.1, 6),
            )
        with pytest.raises(ConfigError):
            Scenario(
                graph=graph,
                weights=WeightSchedule(graph, mode="static"),
                ensemble=make_sensor_scenario(n=4, seed=2),
                steps=StepSizes.homogeneous(0.1, 4),
            )
        with pytest.raises(ConfigError):
            Scenario(
                graph=graph,
                weights=WeightSchedule(graph, mode="static"),
                ensemble=make_sensor_scenario(seed=2),
                steps=StepSizes.homogeneous(0.1, 5),
            )
