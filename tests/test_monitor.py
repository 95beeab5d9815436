"""Error-propagation bounds, spectral checks, and admissibility analysis."""

import warnings

import numpy as np
import pytest

from wgtsim.engine import (
    ConstantLambda,
    LambdaSchedule,
    Scenario,
    StepSizes,
    run,
)
from wgtsim.errors import ConfigError
from wgtsim.graph import sensor_network_6
from wgtsim.monitor import (
    AdmissibilityReport,
    ContractionEstimates,
    admissibility_report,
    det_criterion,
    error_propagation,
    limit_propagation,
    metric_vector,
    scalar_recursion_bounds,
    spectral_radius,
)
from wgtsim.objective import make_sensor_scenario
from wgtsim.weights import WeightSchedule, phi_static

GRAPH = sensor_network_6()
SLOW_LAM = LambdaSchedule(e=0.5, m=800.0)


@pytest.fixture(scope="module")
def canonical():
    ws = WeightSchedule(GRAPH, mode="static")
    ens = make_sensor_scenario(seed=2)
    A, B = ws.matrices_at(1)
    phi = phi_static(A)
    return ws, ens, A, B, phi


def estimates(A, B, phi, alphas, pi=None, flavor="spectral_norm"):
    if pi is None:
        pi = np.full(6, 1.0 / 6.0)
    return ContractionEstimates.compute(A, B, phi, pi, B @ pi, alphas, flavor=flavor)


class TestMetricVector:
    def test_consensus_state_has_zero_disagreement(self, canonical):
        _, ens, A, B, phi = canonical
        x_star = ens.global_optimum()
        point = x_star + np.array([0.3, -0.2])
        x = np.tile(point, (6, 1))
        y = np.random.default_rng(1).normal(size=(6, 2))
        s1, s2, _ = metric_vector(x, y, x_star, phi, np.full(6, 1 / 6))
        assert s2 == pytest.approx(0.0, abs=1e-15)
        assert s1 == pytest.approx(np.hypot(0.3, 0.2), rel=1e-12)

    def test_aligned_trackers_have_zero_deviation(self, canonical):
        _, ens, A, B, phi = canonical
        pi = np.full(6, 1 / 6)
        v = np.array([0.7, -1.1])
        y = np.outer(pi, v)
        x = np.random.default_rng(2).normal(size=(6, 2))
        _, _, s3 = metric_vector(x, y, ens.global_optimum(), phi, pi)
        assert s3 == pytest.approx(0.0, abs=1e-15)

    def test_dense_recomputation(self, canonical):
        _, ens, A, B, phi = canonical
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 2))
        pi = rng.uniform(0.1, 1.0, 6)
        pi /= pi.sum()
        x_star = ens.global_optimum()
        s1, s2, s3 = metric_vector(x, y, x_star, phi, pi)
        xbar = phi @ x
        assert s1 == pytest.approx(np.linalg.norm(xbar - x_star), rel=1e-14)
        assert s2 == pytest.approx(np.linalg.norm(x - xbar[None, :]), rel=1e-14)
        y_hat = y.sum(axis=0)
        assert s3 == pytest.approx(
            np.linalg.norm(y - np.outer(pi, y_hat)), rel=1e-14
        )

    def test_uniform_fallback_without_phi(self, canonical):
        _, ens, *_ = canonical
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 2))
        s1, _, _ = metric_vector(x, y, ens.global_optimum(), None, np.full(6, 1 / 6))
        assert s1 == pytest.approx(
            np.linalg.norm(x.mean(axis=0) - ens.global_optimum()), rel=1e-14
        )


class TestContractionEstimates:
    def test_canonical_network_values(self, canonical):
        _, _, A, B, phi = canonical
        est = estimates(A, B, phi, np.full(6, 0.1))
        assert est.sigma_A == pytest.approx(0.809488263908055, rel=1e-12)
        assert est.flavor == "spectral_norm"
        assert 0 < est.sigma_B < 1
        est_r = estimates(A, B, phi, np.full(6, 0.1), flavor="spectral_radius")
        assert est_r.sigma_A == pytest.approx(0.5999047297800844, rel=1e-9)
        assert est_r.sigma_A < est.sigma_A

    def test_effective_step_aggregation(self, canonical):
        _, _, A, B, phi = canonical
        alphas = np.array([0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
        pi = np.full(6, 1 / 6)
        est = estimates(A, B, phi, alphas, pi=pi)
        expected = sum(float(phi[i] * alphas[i] * pi[i]) for i in range(6))
        assert est.alpha_tilde == pytest.approx(expected, rel=1e-14)
        assert est.alpha_check == pytest.approx(0.06)
        assert est.theta == pytest.approx(est.alpha_tilde / 0.06, rel=1e-14)

    def test_norm_fields_recomputed(self, canonical):
        _, _, A, B, phi = canonical
        pi = np.full(6, 1 / 6)
        est = estimates(A, B, phi, np.full(6, 0.1), pi=pi)
        one = np.ones(6)
        assert est.xi == pytest.approx(
            np.linalg.norm(np.eye(6) - np.outer(B @ pi, one), 2), rel=1e-14
        )
        assert est.A_norm == pytest.approx(np.linalg.norm(A, 2), rel=1e-14)
        assert est.A_minus_I_norm == pytest.approx(
            np.linalg.norm(A - np.eye(6), 2), rel=1e-14
        )
        assert est.phi_norm == pytest.approx(np.linalg.norm(phi), rel=1e-14)

    def test_rejects_unknown_flavor(self, canonical):
        _, _, A, B, phi = canonical
        with pytest.raises(ValueError):
            estimates(A, B, phi, np.full(6, 0.1), flavor="operator")


class TestErrorPropagation:
    def test_entries_match_independent_transcription(self, canonical):
        # Dual route: every entry re-derived here from the estimate fields.
        _, ens, A, B, phi = canonical
        est = estimates(A, B, phi, np.full(6, 1e-4))
        lam_k, lam_next = 1e-3, 9e-4
        g0 = 7.5
        M, d = error_propagation(
            est, lam_k, lam_next, ens.L, ens.mu_hat, ens.L_hat, 6, g0
        )
        rn = np.sqrt(6)
        ac = est.alpha_check
        dlam = lam_k - lam_next
        cross = rn * ac * ens.L * lam_k * lam_next * est.A_norm * est.pi_norm
        expected = np.array([
            [
                1.0 - ens.mu_hat * est.alpha_tilde * lam_k,
                rn * ens.L * est.alpha_tilde * lam_k,
                ac * est.phi_norm,
            ],
            [
                ac * ens.L_hat * est.sigma_A * est.pi_norm * lam_k,
                est.sigma_A * (1.0 + rn * ac * ens.L * est.pi_norm * lam_k),
                ac * est.sigma_A,
            ],
            [
                rn * ens.L * est.xi * (cross + dlam),
                ens.L * est.xi
                * (cross + lam_next * est.A_minus_I_norm + dlam),
                est.sigma_B + ac * ens.L * est.xi * lam_next * est.A_norm,
            ],
        ])
        assert np.allclose(M, expected, rtol=1e-14, atol=0)
        assert d[0] == 0.0 and d[1] == 0.0
        assert d[2] == pytest.approx(est.xi * dlam * g0, rel=1e-14)
        assert (M >= 0).all()

    def test_precondition_violation_warns(self, canonical):
        _, ens, A, B, phi = canonical
        est = estimates(A, B, phi, np.full(6, 0.1))
        # alpha_tilde * lam must stay below 2/(mu_hat + L_hat) ~ 6.5e-4.
        with pytest.warns(RuntimeWarning):
            error_propagation(est, 1.0, 0.9, ens.L, ens.mu_hat, ens.L_hat, 6, 1.0)

    def test_no_warning_when_precondition_holds(self, canonical):
        _, ens, A, B, phi = canonical
        est = estimates(A, B, phi, np.full(6, 1e-4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            error_propagation(est, 1e-4, 9e-5, ens.L, ens.mu_hat, ens.L_hat, 6, 1.0)

    def test_limit_is_the_zero_weight_matrix(self, canonical):
        _, ens, A, B, phi = canonical
        est = estimates(A, B, phi, np.full(6, 1e-4))
        C_inf = limit_propagation(est)
        M0, d0 = error_propagation(est, 0.0, 0.0, ens.L, ens.mu_hat, ens.L_hat, 6, 3.0)
        assert np.array_equal(M0, C_inf)
        assert np.array_equal(d0, np.zeros(3))
        # Upper triangular with the advertised diagonal.
        assert C_inf[1, 0] == C_inf[2, 0] == C_inf[2, 1] == 0.0
        assert np.allclose(np.diag(C_inf), [1.0, est.sigma_A, est.sigma_B])

    def test_matrix_approaches_its_limit_as_weights_vanish(self, canonical):
        _, ens, A, B, phi = canonical
        est = estimates(A, B, phi, np.full(6, 1e-4))
        C_inf = limit_propagation(est)
        gaps = []
        for lam in (1e-2, 1e-4, 1e-6):
            M, _ = error_propagation(
                est, lam, 0.9 * lam, ens.L, ens.mu_hat, ens.L_hat, 6, 3.0
            )
            gaps.append(np.abs(M - C_inf).max())
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


class TestOneStepBound:
    def test_componentwise_domination_along_admissible_run(self, canonical):
        # The propagation matrix is a true per-iteration upper bound on the
        # three-component error vector when the step sizes are admissible.
        ws, ens, A, B, phi = canonical
        rep = admissibility_report(ws, ens, StepSizes.homogeneous(1e-5, 6), SLOW_LAM, 200)
        assert rep.admissible
        alpha = rep.alpha_bound / 2.0
        scen = Scenario(
            graph=GRAPH, weights=ws, ensemble=ens,
            steps=StepSizes.homogeneous(alpha, 6), lam=SLOW_LAM, init_seed=3,
        )
        K = 200
        report, _ = run(scen, "wgt", K, record_transcript=False, record_states=True)
        xs, ys = report.states
        pis = report.pis
        x_star = report.x_star
        g0 = np.linalg.norm(ens.gradients_at_consensus(x_star))
        alphas = np.full(6, alpha)

        s = np.array([
            metric_vector(xs[t], ys[t], x_star, phi, pis[t])
            for t in range(K + 1)
        ])
        worst = -np.inf
        radii = []
        for k in range(1, K + 1):
            est = ContractionEstimates.compute(A, B, phi, pis[k - 1], pis[k], alphas, k=k)
            M, d = error_propagation(
                est, SLOW_LAM.value(k), SLOW_LAM.value(k + 1),
                ens.L, ens.mu_hat, ens.L_hat, 6, g0,
            )
            bound = M @ s[k - 1] + d
            assert (s[k] <= bound * (1.0 + 1e-9)).all()
            worst = max(worst, float((s[k] / bound).max()))
            radii.append(spectral_radius(M))
        assert worst <= 1.0 + 1e-9
        # Every per-iteration matrix is a contraction along this run.
        assert max(radii) < 1.0


class TestSpectralChecks:
    def test_spectral_radius_hand_cases(self):
        assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)
        assert spectral_radius(np.diag([0.5, 0.2])) == pytest.approx(0.5)
        # 2x2 closed form: rho = max |(a+d)/2 +- sqrt(((a-d)/2)^2 + bc)|.
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b, c, d = rng.uniform(0, 1, 4)
            disc = ((a - d) / 2.0) ** 2 + b * c
            root = np.sqrt(disc)
            expected = max(abs((a + d) / 2.0 + root), abs((a + d) / 2.0 - root))
            got = spectral_radius(np.array([[a, b], [c, d]]))
            assert got == pytest.approx(expected, rel=1e-10)

    def test_det_criterion_matches_radius_on_random_matrices(self):
        # 1000 seeded positive 3x3 matrices with diagonals below the cutoff:
        # det(c I - M) > 0 must coincide exactly with rho(M) < c.
        rng = np.random.default_rng(99)
        for _ in range(1000):
            M = rng.uniform(0.0, 1.0, size=(3, 3))
            c_star = float(M.diagonal().max() + rng.uniform(0.05, 1.0))
            assert det_criterion(M, c_star) == (spectral_radius(M) < c_star)

    def test_det_criterion_boundary(self):
        # Cyclic permutation: irreducible, zero diagonal, radius exactly 1.
        P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert spectral_radius(P) == pytest.approx(1.0)
        assert not det_criterion(P, 1.0)
        assert det_criterion(P, 1.0 + 1e-9)

    def test_det_criterion_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            det_criterion(np.zeros((2, 3)), 1.0)


class TestAdmissibility:
    def test_slow_schedule_is_admissible(self, canonical):
        ws, ens, *_ = canonical
        rep = admissibility_report(ws, ens, StepSizes.homogeneous(1e-5, 6), SLOW_LAM, 200)
        assert rep.window_first_k == 1
        assert rep.alpha_bound == pytest.approx(4.767918497289565e-05, rel=1e-9)
        assert rep.binding_term == "quadratic_margin"
        assert rep.admissible
        assert rep.sum_diverges

    def test_large_step_fails_the_same_analysis(self, canonical):
        ws, ens, *_ = canonical
        rep = admissibility_report(ws, ens, StepSizes.homogeneous(0.1, 6), SLOW_LAM, 200)
        assert rep.window_first_k == 1
        assert not rep.admissible

    def test_fast_decay_violates_the_ratio_window(self, canonical):
        # This schedule shrinks too fast early on: the window never holds
        # through this horizon, so no step bound is certified.
        ws, ens, *_ = canonical
        lam = LambdaSchedule(e=0.8, m=10.0)
        rep = admissibility_report(ws, ens, StepSizes.homogeneous(0.1, 6), lam, 200)
        assert rep.window_first_k is None
        assert rep.alpha_bound is None
        assert rep.binding_term is None
        assert not rep.admissible
        assert rep.to_dict()["window_violations"] > 0

    def test_constant_weights_hold_the_window_everywhere(self, canonical):
        ws, ens, *_ = canonical
        rep = admissibility_report(
            ws, ens, StepSizes.homogeneous(1e-6, 6), ConstantLambda(0.5), 100
        )
        assert rep.window_first_k == 1
        assert rep.window_ok.all()
        assert np.allclose(rep.ratio, 1.0)

    def test_convergent_weight_sum_is_reported(self, canonical):
        ws, ens, *_ = canonical
        rep = admissibility_report(
            ws, ens, StepSizes.homogeneous(1e-5, 6), LambdaSchedule(e=1.4, m=10.0), 50
        )
        assert not rep.sum_diverges
        assert rep.to_dict()["lambda_sum_diverges"] is False

    def test_margin_sign_equals_ratio_window(self, canonical):
        # Algebraic equivalence: the quadratic's constant coefficient is
        # positive exactly when the weight ratio exceeds its lower bound.
        ws, ens, *_ = canonical
        for lam in (SLOW_LAM, LambdaSchedule(e=0.8, m=10.0), ConstantLambda(0.3)):
            rep = admissibility_report(ws, ens, StepSizes.homogeneous(1e-5, 6), lam, 150)
            assert np.array_equal(rep.margin > 0.0, rep.ratio > rep.window_lb)
            assert np.array_equal(rep.window_ok, (rep.margin > 0.0) & (rep.ratio <= 1.0))

    def test_requires_static_weights(self, canonical):
        _, ens, *_ = canonical
        tv = WeightSchedule(GRAPH, mode="time-varying", seed=1)
        with pytest.raises(ConfigError):
            admissibility_report(tv, ens, StepSizes.homogeneous(1e-5, 6), SLOW_LAM, 10)

    def test_rejects_bad_horizon_and_flavor(self, canonical):
        ws, ens, *_ = canonical
        with pytest.raises(ValueError):
            admissibility_report(ws, ens, StepSizes.homogeneous(1e-5, 6), SLOW_LAM, 0)
        with pytest.raises(ValueError):
            admissibility_report(
                ws, ens, StepSizes.homogeneous(1e-5, 6), SLOW_LAM, 10, flavor="frobenius"
            )

    def test_to_dict(self, canonical):
        ws, ens, *_ = canonical
        rep = admissibility_report(ws, ens, StepSizes.homogeneous(1e-5, 6), SLOW_LAM, 50)
        d = rep.to_dict()
        assert d["horizon"] == 50
        assert d["binding_term"] in AdmissibilityReport.TERM_NAMES


class TestScalarRecursionBounds:
    def test_all_mass_absorbed_in_one_step(self):
        # c * lam = 1 every iteration: the product collapses to zero and
        # only the final forcing term survives in the plain suffix sum.
        product, tail, weighted = scalar_recursion_bounds(1.0, np.ones(3), 3)
        assert product == 0.0
        assert tail == 1.0
        assert weighted is None

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(33)
        K = 50
        c = 0.7
        lam = rng.uniform(0.0, 0.99 / c, K)
        r = rng.uniform(0.0, 2.0, K)
        product, tail, weighted = scalar_recursion_bounds(c, lam, K, r=r)
        factors = 1.0 - c * lam
        suffix = np.array([np.prod(factors[i + 1:]) for i in range(K)])
        assert product == pytest.approx(np.prod(factors), rel=1e-12)
        assert tail == pytest.approx(suffix.sum(), rel=1e-12)
        assert weighted == pytest.approx(float(suffix @ r), rel=1e-12)

    def test_harmonic_weights_telescope(self):
        # c = 1, lam_k = 1/k: suffix products telescope to i/K, so the
        # plain sum is exactly (K+1)/2 and the full product is zero.
        K = 10000
        lam = LambdaSchedule(e=1.0)
        product, tail, _ = scalar_recursion_bounds(1.0, lam, K)
        assert product == 0.0
        assert tail == pytest.approx((K + 1) / 2.0, rel=1e-10)

    def test_harmonic_weights_drive_the_product_down(self):
        product, _, _ = scalar_recursion_bounds(0.5, LambdaSchedule(e=1.0), 10000)
        assert 0.0 < product < 1e-2

    def test_bound_dominates_simulated_recursion(self):
        # u_{k+1} = (1 - c lam_k) u_k + r_k run forward must land exactly on
        # product * u_1 + weighted (equality case of the bound).
        rng = np.random.default_rng(7)
        K = 200
        c = 0.9
        lam_vals = rng.uniform(0.0, 1.0 / c, K)
        r = rng.uniform(0.0, 0.1, K)
        u = 3.7
        for k in range(K):
            u = (1.0 - c * lam_vals[k]) * u + r[k]
        product, _, weighted = scalar_recursion_bounds(c, lam_vals, K, r=r)
        assert u == pytest.approx(product * 3.7 + weighted, rel=1e-10)

    def test_schedule_and_array_inputs_agree(self):
        K = 100
        lam = LambdaSchedule(e=1.0)
        arr = np.array([1.0 / k for k in range(1, K + 1)])
        assert scalar_recursion_bounds(0.5, lam, K) == scalar_recursion_bounds(0.5, arr, K)

    def test_domain_and_shape_errors(self):
        with pytest.raises(ValueError):
            scalar_recursion_bounds(2.0, np.array([0.9]), 1)
        with pytest.raises(ValueError):
            scalar_recursion_bounds(0.5, np.ones(3), 4)
        with pytest.raises(ValueError):
            scalar_recursion_bounds(0.5, np.ones(4), 4, r=np.ones(3))
        with pytest.raises(ValueError):
            scalar_recursion_bounds(0.5, np.ones(1), 0)
