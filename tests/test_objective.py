"""Quadratic local objectives, ensembles, and the closed-form network optimum."""

import numpy as np
import pytest

from wgtsim.objective import (
    ObjectiveEnsemble,
    QuadraticObjective,
    make_sensor_scenario,
)


def finite_difference_gradient(f, x, h=1e-6):
    """Central-difference oracle, independent of the analytic gradient."""
    g = np.zeros_like(x, dtype=float)
    for j in range(x.size):
        step = np.zeros_like(x, dtype=float)
        step[j] = h
        g[j] = (f(x + step) - f(x - step)) / (2 * h)
    return g


class TestSingleObjective:
    def test_identity_hand_case(self):
        # f(x) = x^T x  =>  hessian 2I, gradient 2x, curvature bounds both 2.
        obj = QuadraticObjective(S=np.eye(2), s=np.zeros(2))
        assert np.allclose(obj.hessian, 2 * np.eye(2))
        assert obj.mu == pytest.approx(2.0)
        assert obj.L == pytest.approx(2.0)
        assert np.allclose(obj.gradient(np.array([1.0, 1.0])), [2.0, 2.0])
        assert obj.value(np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_scalar_square(self):
        obj = QuadraticObjective(S=np.array([[1.0]]), s=np.array([0.0]))
        for x in (-2.0, 0.0, 0.5, 3.0):
            xv = np.array([x])
            assert obj.value(xv) == pytest.approx(x**2)
            assert obj.gradient(xv)[0] == pytest.approx(2 * x)

    def test_value_matches_direct_formula(self):
        rng = np.random.default_rng(21)
        S = rng.normal(size=(3, 3))
        s = rng.normal(size=3)
        obj = QuadraticObjective(S=S, s=s, r=0.05)
        for _ in range(20):
            x = rng.normal(size=3)
            direct = float((S @ x - s) @ (S @ x - s)) + 0.05 * float(x @ x)
            assert obj.value(x) == pytest.approx(direct, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        # Acceptance-grade sweep: 100 random probes, relative error <= 1e-5.
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            S = rng.normal(size=(d, p))
            s = rng.normal(size=d)
            r = float(rng.uniform(0.0, 0.5))
            obj = QuadraticObjective(S=S, s=s, r=r)
            x = rng.normal(size=p)
            g = obj.gradient(x)
            g_fd = finite_difference_gradient(obj.value, x)
            denom = max(np.linalg.norm(g_fd), 1e-12)
            assert np.linalg.norm(g - g_fd) / denom <= 1e-5

    def test_curvature_bounds_are_hessian_eigenvalues(self):
        rng = np.random.default_rng(5)
        S = rng.normal(size=(4, 3))
        obj = QuadraticObjective(S=S, s=np.zeros(4), r=0.2)
        eigs = np.linalg.eigvalsh(obj.hessian)
        assert obj.mu == pytest.approx(eigs[0], rel=1e-10)
        assert obj.L == pytest.approx(eigs[-1], rel=1e-10)
        # Independent route: hessian must equal 2 (S^T S + r I).
        assert np.allclose(obj.hessian, 2 * (S.T @ S + 0.2 * np.eye(3)), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuadraticObjective(S=np.eye(2), s=np.zeros(3))
        obj = QuadraticObjective(S=np.eye(2), s=np.zeros(2))
        with pytest.raises(ValueError):
            obj.gradient(np.zeros(3))


@pytest.fixture(scope="module")
def ensemble():
    return make_sensor_scenario(seed=2)


class TestEnsemble:
    def test_dimensions(self, ensemble):
        assert ensemble.n == 6
        assert ensemble.p == 2
        assert len(ensemble.agents) == 6

    def test_curvature_aggregates(self, ensemble):
        mus = [a.mu for a in ensemble.agents]
        Ls = [a.L for a in ensemble.agents]
        assert ensemble.mu == pytest.approx(min(mus))
        assert ensemble.L == pytest.approx(max(Ls))
        assert ensemble.mu_hat == pytest.approx(ensemble.n * min(mus))
        assert ensemble.L_hat == pytest.approx(ensemble.n * max(Ls))
        # The aggregate hessian's spectrum sits inside [mu_hat, L_hat].
        H = sum(a.hessian for a in ensemble.agents)
        eigs = np.linalg.eigvalsh(H)
        assert ensemble.mu_hat <= eigs[0] + 1e-9
        assert eigs[-1] <= ensemble.L_hat + 1e-9

    def test_stacked_gradients(self, ensemble):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(6, 2))
        G = ensemble.gradients(X)
        assert G.shape == (6, 2)
        for i, agent in enumerate(ensemble.agents):
            assert np.allclose(G[i], agent.gradient(X[i]))
        x = rng.normal(size=2)
        Gc = ensemble.gradients_at_consensus(x)
        assert np.allclose(Gc, ensemble.gradients(np.tile(x, (6, 1))))

    def test_global_optimum_against_independent_solve(self, ensemble):
        x_star = ensemble.global_optimum()
        # Independent route: assemble sum H x = sum b from agent pieces and
        # solve with a different factorization path.
        H = sum(a.hessian for a in ensemble.agents)
        b = np.zeros(ensemble.p)
        for a in ensemble.agents:
            b -= a.gradient(np.zeros(ensemble.p))
        x_ref = np.linalg.lstsq(H, b, rcond=None)[0]
        assert np.allclose(x_star, x_ref, atol=1e-10)
        # First-order condition: total gradient vanishes at the optimum.
        total = ensemble.gradients_at_consensus(x_star).sum(axis=0)
        assert np.linalg.norm(total) <= 1e-9

    def test_global_optimum_at_scale(self):
        # The summed gradient grows with n and the sensing scale; the
        # stationarity check is relative to that scale, not absolute.
        ens = make_sensor_scenario(n=400, d=16, p=16, seed=0)
        x_star = ens.global_optimum()
        H = sum(a.hessian for a in ens.agents)
        b = sum(a._lin for a in ens.agents)
        assert np.linalg.norm(H @ x_star - b) <= 1e-12 * np.linalg.norm(b)

    def test_scenario_regeneration_is_deterministic(self):
        e1 = make_sensor_scenario(seed=2)
        e2 = make_sensor_scenario(seed=2)
        assert np.allclose(e1.global_optimum(), e2.global_optimum(), atol=0)
        for a1, a2 in zip(e1.agents, e2.agents):
            assert np.array_equal(a1.S, a2.S)
            assert np.array_equal(a1.s, a2.s)

    def test_different_seeds_differ(self):
        e1 = make_sensor_scenario(seed=2)
        e2 = make_sensor_scenario(seed=3)
        assert not np.allclose(e1.global_optimum(), e2.global_optimum())

    def test_ensemble_requires_matching_dimensions(self):
        a = QuadraticObjective(S=np.eye(2), s=np.zeros(2))
        b = QuadraticObjective(S=np.eye(3), s=np.zeros(3))
        with pytest.raises(ValueError):
            ObjectiveEnsemble(agents=(a, b))

    def test_regularizer_makes_agents_strongly_convex(self):
        ens = make_sensor_scenario(seed=2)
        for agent in ens.agents:
            assert agent.mu > 0
