"""Eavesdropper and neighborhood-takeover attacks over recorded transcripts."""

import numpy as np
import pytest

from wgtsim.adversary import (
    TwoAgentObservations,
    audit_gradient_system,
    audit_state_system,
    infer_gradient,
    z_stream,
)
from wgtsim.engine import (
    ConstantLambda,
    LambdaSchedule,
    Scenario,
    StepSizes,
    Transcript,
    run,
)
from wgtsim.graph import directed_ring, sensor_network_6
from wgtsim.objective import make_sensor_scenario
from wgtsim.weights import WeightSchedule

LAM = LambdaSchedule(e=0.8, m=10.0)


def sensor_scenario(lam, alpha):
    graph = sensor_network_6()
    return Scenario(
        graph=graph,
        weights=WeightSchedule(graph, mode="static"),
        ensemble=make_sensor_scenario(seed=2),
        steps=StepSizes.homogeneous(alpha, 6),
        lam=lam,
        init_seed=3,
    )


def two_agent_scenario():
    graph = directed_ring(2)
    return Scenario(
        graph=graph,
        weights=WeightSchedule(graph, mode="static"),
        ensemble=make_sensor_scenario(n=2, seed=2),
        steps=StepSizes(np.array([0.05, 0.08])),
        lam=LAM,
        init_seed=3,
    )


@pytest.fixture(scope="module")
def baseline_attack():
    scen = sensor_scenario(lam=None, alpha=5e-4)
    report, tr = run(scen, "ab", 3000)
    return scen, report, tr


@pytest.fixture(scope="module")
def weighted_attack():
    scen = sensor_scenario(lam=LAM, alpha=0.1)
    report, tr = run(scen, "wgt", 20000)
    return scen, report, tr


@pytest.fixture(scope="module")
def two_agent_run():
    scen = two_agent_scenario()
    report, tr = run(scen, "wgt", 200, record_states=True)
    return scen, report, tr


class TestNetOutflow:
    def test_symmetric_messages_cancel(self):
        # If both directions of a channel always carry identical payloads,
        # every agent's net outflow is exactly zero.
        K, p = 7, 2
        rng = np.random.default_rng(0)
        y = rng.normal(size=(K, 1, p))
        transcript = Transcript(
            mode="wgt",
            graph=directed_ring(2),
            p=p,
            x_msgs=np.zeros((K, 2, p)),
            y_msgs=np.concatenate([y, y], axis=1),
        )
        assert np.array_equal(z_stream(transcript, 1), np.zeros((K, p)))
        assert np.array_equal(z_stream(transcript, 2), np.zeros((K, p)))

    def test_two_agents_are_antisymmetric(self, two_agent_run):
        _, _, tr = two_agent_run
        z1 = z_stream(tr, 1)
        z2 = z_stream(tr, 2)
        assert np.array_equal(z1, -z2)

    def test_rejects_empty_transcript(self):
        transcript = Transcript(
            mode="wgt",
            graph=directed_ring(2),
            p=1,
            x_msgs=np.zeros((0, 2, 1)),
            y_msgs=np.zeros((0, 2, 1)),
        )
        with pytest.raises(ValueError):
            z_stream(transcript, 1)


class TestLeakageIdentity:
    """Tracker = scaled own gradient minus accumulated net outflow.

    y_i^{k+1} = w_{k+1} grad f_i(x_i^{k+1}) - sum_{m<=k} z_i^m, with w = 1
    under baseline tracking and w = lambda under weighted tracking. This is
    what the eavesdropper exploits: the left side vanishes as the run
    converges, so the accumulated outflow reveals w * gradient.
    """

    @pytest.mark.parametrize("mode,alpha", [("ab", 5e-4), ("wgt", 0.1)])
    def test_identity_holds_along_the_run(self, mode, alpha):
        scen = sensor_scenario(lam=LAM, alpha=alpha)
        report, tr = run(scen, mode, 300, record_states=True)
        xs, ys = report.states
        for i in range(1, 7):
            z = z_stream(tr, i)
            z_acc = np.cumsum(z, axis=0)
            for k in (1, 10, 150, 300):
                w = LAM.value(k + 1) if mode == "wgt" else 1.0
                g = scen.ensemble.gradients(xs[k])[i - 1]
                gap = ys[k][i - 1] - (w * g - z_acc[k - 1])
                assert np.linalg.norm(gap) <= 1e-9


class TestEavesdropperAttack:
    def test_baseline_leaks_the_private_gradient(self, baseline_attack):
        scen, report, tr = baseline_attack
        att = infer_gradient(
            tr, 1, stabilization_tol=1e-10, window=50,
            final_state=report.final_state, ensemble=scen.ensemble,
        )
        assert att.conclusive
        assert att.max_recent_message_delta < 1e-10
        assert att.relative_error is not None and att.relative_error <= 1e-10
        # The final iterate sits at the optimum, so the estimate also matches
        # the victim's gradient evaluated exactly at the consensus optimum.
        g_star = scen.ensemble.gradients_at_consensus(report.x_star)[0]
        rel = np.linalg.norm(att.inferred_gradient - g_star) / np.linalg.norm(g_star)
        assert rel <= 1e-10

    def test_every_agent_leaks_under_baseline(self, baseline_attack):
        scen, report, tr = baseline_attack
        g_star = scen.ensemble.gradients_at_consensus(report.x_star)
        for i in range(1, 7):
            att = infer_gradient(tr, i)
            rel = np.linalg.norm(att.inferred_gradient - g_star[i - 1])
            rel /= np.linalg.norm(g_star[i - 1])
            assert rel <= 1e-10

    def test_constant_weight_disables_the_protection(self):
        # Weighted tracking with a non-vanishing weight behaves like the
        # baseline: the attack still recovers the gradient.
        scen = sensor_scenario(lam=ConstantLambda(1.0), alpha=5e-4)
        report, tr = run(scen, "wgt", 3000)
        att = infer_gradient(
            tr, 1, final_state=report.final_state, ensemble=scen.ensemble,
        )
        assert att.relative_error is not None and att.relative_error <= 1e-10

    def test_vanishing_weights_starve_the_attack(self, weighted_attack):
        scen, report, tr = weighted_attack
        att = infer_gradient(
            tr, 1, stabilization_tol=1e-7, window=50,
            final_state=report.final_state, ensemble=scen.ensemble,
        )
        assert att.conclusive
        # The attacker's best estimate is nowhere near the true gradient ...
        assert att.relative_error is not None and att.relative_error >= 0.9
        # ... because what it actually recovers is the vanishing quantity
        # lambda_{K+1} grad - tracker, bounded by two terms that both go to 0.
        K = tr.K
        i = 0
        g_final = scen.ensemble.gradients(report.final_state.x)[i]
        y_final = report.final_state.y[i]
        bound = LAM.value(K + 1) * np.linalg.norm(g_final) + np.linalg.norm(y_final)
        assert np.linalg.norm(att.inferred_gradient) <= bound + 1e-9
        assert np.linalg.norm(att.inferred_gradient) < 1e-2

    def test_identity_ties_estimate_to_tracker(self, weighted_attack):
        scen, report, tr = weighted_attack
        att = infer_gradient(tr, 3)
        K = tr.K
        g_final = scen.ensemble.gradients(report.final_state.x)[2]
        y_final = report.final_state.y[2]
        expected = LAM.value(K + 1) * g_final - y_final
        assert np.allclose(att.inferred_gradient, expected, atol=1e-9)

    def test_short_run_is_inconclusive(self):
        scen = sensor_scenario(lam=LAM, alpha=0.1)
        _, tr = run(scen, "wgt", 40)
        att = infer_gradient(tr, 1, window=50)
        assert not att.conclusive

    def test_strict_tolerance_is_inconclusive(self, weighted_attack):
        _, _, tr = weighted_attack
        att = infer_gradient(tr, 1, stabilization_tol=1e-16, window=50)
        assert not att.conclusive

    def test_report_dict_round_trip(self, baseline_attack):
        scen, report, tr = baseline_attack
        att = infer_gradient(
            tr, 2, final_state=report.final_state, ensemble=scen.ensemble,
        )
        d = att.to_dict()
        assert d["target"] == 2
        assert d["mode"] == "ab"
        assert d["conclusive"] is True
        assert len(d["inferred_gradient"]) == 2
        assert d["relative_error"] == att.relative_error
        assert d["error_is_absolute"] is False


class TestTwoAgentObservations:
    def test_extracts_the_four_channels(self, two_agent_run):
        scen, report, tr = two_agent_run
        obs = TwoAgentObservations.from_transcript(tr, honest=1, attacker=2)
        assert obs.K == 200 and obs.p == 2
        xs, ys = report.states
        alphas = scen.steps.values
        _, B = scen.weights.matrices_at(1)
        for t in (0, 5, 100):
            combined = xs[t] - alphas[:, None] * ys[t]
            assert np.array_equal(obs.x_from_honest[t], combined[0])
            assert np.array_equal(obs.x_from_attacker[t], combined[1])
            assert np.array_equal(obs.y_from_honest[t], B[1, 0] * ys[t][0])
            assert np.array_equal(obs.y_from_attacker[t], B[0, 1] * ys[t][1])

    def test_rejects_baseline_transcripts(self):
        scen = sensor_scenario(lam=None, alpha=5e-4)
        _, tr = run(scen, "ab", 5)
        with pytest.raises(ValueError):
            TwoAgentObservations.from_transcript(tr, honest=1, attacker=2)

    def test_rejects_missing_channel(self):
        scen = sensor_scenario(lam=LAM, alpha=0.1)
        _, tr = run(scen, "wgt", 5)
        # Agents 1 and 3 share no channel in the canonical network.
        with pytest.raises(ValueError):
            TwoAgentObservations.from_transcript(tr, honest=1, attacker=3)

    def test_rejects_uncovered_neighborhood(self):
        scen = sensor_scenario(lam=LAM, alpha=0.1)
        _, tr = run(scen, "wgt", 5)
        # 5 <-> 6 and 6 <-> 1 are not both present; and even where a
        # bidirectional pair existed, extra neighbors must be rejected.
        with pytest.raises(ValueError):
            TwoAgentObservations.from_transcript(tr, honest=6, attacker=5)

    def test_rejects_self_attack(self, two_agent_run):
        _, _, tr = two_agent_run
        with pytest.raises(ValueError):
            TwoAgentObservations.from_transcript(tr, honest=1, attacker=1)


class TestStateAudit:
    def test_structural_counts(self):
        rep = audit_state_system(K=3, p=2)
        assert (rep.equations, rep.unknowns) == (4, 6)
        assert rep.rank == 4 and rep.nullity == 2
        assert rep.method == "structural"
        rep = audit_state_system(K=2, p=1)
        assert (rep.equations, rep.unknowns) == (1, 2)
        assert rep.nullity == 1

    def test_rejects_horizon_below_two(self):
        with pytest.raises(ValueError):
            audit_state_system(K=1, p=2)

    def test_numeric_rank_and_consistency(self, two_agent_run):
        scen, report, tr = two_agent_run
        obs = TwoAgentObservations.from_transcript(tr, honest=1, attacker=2)
        K = 10
        xs, _ = report.states
        A, _ = scen.weights.matrices_at(1)
        states = xs[1:K, 0, :]  # victim states at iterations 2..K
        weights = np.full(K - 1, A[0, 1])  # victim's (static) mixing weight
        rep = audit_state_system(K, 2, observations=obs, truth=(states, weights))
        assert rep.method == "numeric"
        assert rep.rank == (K - 1) * 2 == 18
        assert rep.nullity == K - 1 == 9
        assert rep.consistency_residual is not None
        assert rep.consistency_residual <= 1e-12

    def test_truth_requires_observations(self):
        with pytest.raises(ValueError):
            audit_state_system(K=3, p=2, truth=(np.zeros((2, 2)), np.zeros(2)))


class TestGradientAudit:
    def test_structural_counts(self):
        rep = audit_gradient_system(K=3, p=2)
        assert (rep.equations, rep.unknowns) == (6, 10)
        assert rep.rank == 6 and rep.nullity == 4
        # A one-iteration horizon pins everything: zero slack, but only
        # because the attacker must assume a value for the final tracker.
        rep1 = audit_gradient_system(K=1, p=2)
        assert (rep1.equations, rep1.unknowns) == (2, 2)
        assert rep1.nullity == 0

    def test_numeric_rank_with_attacker_assumption(self, two_agent_run):
        scen, report, tr = two_agent_run
        obs = TwoAgentObservations.from_transcript(tr, honest=1, attacker=2)
        K = 10
        rep = audit_gradient_system(K, 2, observations=obs, lam=scen.lam)
        assert rep.method == "numeric"
        assert rep.rank == K * 2 == 20
        assert rep.nullity == (K - 1) * 2 == 18

    def test_genuine_trajectory_is_consistent(self, two_agent_run):
        scen, report, tr = two_agent_run
        obs = TwoAgentObservations.from_transcript(tr, honest=1, attacker=2)
        K = 10
        xs, ys = report.states
        trackers = ys[1:K, 0, :]  # iterations 2..K
        gradients = np.stack(
            [scen.ensemble.gradients(xs[t])[0] for t in range(1, K + 1)]
        )  # iterations 2..K+1
        rep = audit_gradient_system(
            K, 2,
            observations=obs,
            lam=scen.lam,
            y_final=ys[K, 0],
            truth=(trackers, gradients),
        )
        assert rep.consistency_residual is not None
        assert rep.consistency_residual <= 1e-12

    def test_numeric_path_needs_schedule(self, two_agent_run):
        _, _, tr = two_agent_run
        obs = TwoAgentObservations.from_transcript(tr, honest=1, attacker=2)
        with pytest.raises(ValueError):
            audit_gradient_system(10, 2, observations=obs)

    def test_report_dict(self):
        d = audit_gradient_system(K=3, p=2).to_dict()
        assert d["system"] == "gradient"
        assert d["equations"] == 6 and d["unknowns"] == 10
        assert d["nullity"] == 4 and d["method"] == "structural"
