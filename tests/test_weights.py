"""Mixing-weight schedules: stochasticity, floors, dithering, stationary vectors."""

import numpy as np
import pytest

from wgtsim.errors import ConfigError, NumericalError
from wgtsim.graph import DirectedGraph, directed_ring, sensor_network_6
from wgtsim.weights import WeightSchedule, contraction_radii, phi_static

GRAPH = sensor_network_6()


@pytest.fixture(scope="module")
def static_pair():
    sched = WeightSchedule(GRAPH, mode="static")
    return sched.matrices_at(1)


class TestStaticMatrices:
    def test_row_column_stochastic(self, static_pair):
        A, B = static_pair
        assert np.allclose(A.sum(axis=1), 1.0, atol=1e-14)
        assert np.allclose(B.sum(axis=0), 1.0, atol=1e-14)

    def test_support_matches_graph(self, static_pair):
        A, B = static_pair
        for i in range(1, 7):
            ins = set(GRAPH.in_neighbors(i)) | {i}
            outs = set(GRAPH.out_neighbors(i)) | {i}
            assert {j + 1 for j in np.nonzero(A[i - 1])[0]} == ins
            assert {l + 1 for l in np.nonzero(B[:, i - 1])[0]} == outs

    def test_uniform_hand_values(self, static_pair):
        A, B = static_pair
        # Row i of A splits mass 1/(1+in-degree) uniformly over {i} and its
        # in-neighborhood; column i of B does the same over out-neighbors.
        # Agent 1: in {6}, out {2, 4}.
        assert A[0, 0] == pytest.approx(1 / 2)
        assert A[0, 5] == pytest.approx(1 / 2)
        assert B[0, 0] == pytest.approx(1 / 3)
        assert B[1, 0] == pytest.approx(1 / 3)
        assert B[3, 0] == pytest.approx(1 / 3)
        # Agent 2: in {1, 5}, out {3}.
        assert A[1, 0] == A[1, 1] == A[1, 4] == pytest.approx(1 / 3)
        assert B[1, 1] == B[2, 1] == pytest.approx(1 / 2)
        # Agent 5: in {4}, out {2, 6}.
        assert A[4, 3] == A[4, 4] == pytest.approx(1 / 2)
        assert B[4, 4] == B[1, 4] == B[5, 4] == pytest.approx(1 / 3)

    def test_static_is_constant_in_k(self):
        sched = WeightSchedule(GRAPH, mode="static")
        A1, B1 = sched.matrices_at(1)
        A9, B9 = sched.matrices_at(9)
        assert np.array_equal(A1, A9)
        assert np.array_equal(B1, B9)


class TestTimeVarying:
    def test_deterministic_per_iteration(self):
        s1 = WeightSchedule(GRAPH, mode="time-varying", seed=11)
        s2 = WeightSchedule(GRAPH, mode="time-varying", seed=11)
        A1, B1 = s1.matrices_at(4)
        A2, B2 = s2.matrices_at(4)
        assert np.array_equal(A1, A2)
        assert np.array_equal(B1, B2)

    def test_varies_across_iterations(self):
        sched = WeightSchedule(GRAPH, mode="time-varying", seed=11)
        A1, _ = sched.matrices_at(1)
        A2, _ = sched.matrices_at(2)
        assert not np.array_equal(A1, A2)

    def test_stochastic_and_floored_along_sequence(self):
        sched = WeightSchedule(GRAPH, mode="time-varying", a_floor=0.1, b_floor=0.1, seed=3)
        for k in range(1, 60):
            A, B = sched.matrices_at(k)
            assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)
            assert np.allclose(B.sum(axis=0), 1.0, atol=1e-12)
            assert A[A > 0].min() >= 0.1 - 1e-12
            assert B[B > 0].min() >= 0.1 - 1e-12

    def test_support_fixed_across_iterations(self):
        sched = WeightSchedule(GRAPH, mode="time-varying", seed=5)
        A1, B1 = sched.matrices_at(1)
        for k in (2, 17, 300):
            A, B = sched.matrices_at(k)
            assert np.array_equal(A > 0, A1 > 0)
            assert np.array_equal(B > 0, B1 > 0)


class TestStationaryVectors:
    def test_phi_hand_oracle(self, static_pair):
        A, _ = static_pair
        phi = phi_static(A)
        expected = np.array([6, 3, 4, 6, 8, 6], dtype=float) / 33.0
        assert np.allclose(phi, expected, atol=1e-12)

    def test_phi_left_eigenvector_property(self, static_pair):
        A, _ = static_pair
        phi = phi_static(A)
        assert np.allclose(phi @ A, phi, atol=1e-12)
        assert phi.sum() == pytest.approx(1.0, abs=1e-12)
        assert (phi > 0).all()

    def test_phi_matches_dense_eigensolver(self, static_pair):
        A, _ = static_pair
        phi = phi_static(A)
        vals, vecs = np.linalg.eig(A.T)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        v = np.real(vecs[:, idx])
        v = v / v.sum()
        assert np.allclose(phi, v, atol=1e-10)

    def test_slow_mixing_ring_falls_back_to_a_direct_solve(self):
        # a ring of 400 with one chord 1 -> 200: 10,000 power sweeps fall short
        n = 400
        edges = {(i, i % n + 1) for i in range(1, n + 1)} | {(1, 200)}
        A = WeightSchedule(DirectedGraph(n, tuple(sorted(edges)))).matrices_at(1)[0]
        phi = phi_static(A)
        assert (phi > 0).all()
        assert np.abs(A.T @ phi - phi).sum() <= 1e-12
        vals, vecs = np.linalg.eig(A.T)
        v = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
        assert np.abs(phi - v / v.sum()).sum() <= 1e-11

    def test_boundary_stationary_vector_is_refused(self):
        # agent 1 absorbs the rest: the solve finds phi = e_1, not positive
        A = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        with pytest.raises(NumericalError, match="direct solve"):
            phi_static(A, max_iter=1)

    def test_pi_sequence_static_matches_right_eigenvector(self):
        sched = WeightSchedule(GRAPH, mode="static")
        _, B = sched.matrices_at(1)
        pis = sched.pi_sequence(200)
        vals, vecs = np.linalg.eig(B)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        v = np.real(vecs[:, idx])
        v = v / v.sum()
        assert np.allclose(pis[-1], v, atol=1e-10)

    def test_pi_sequence_positivity_floor(self):
        # Each entry of the tracker weight vector stays above floor^n / n.
        for mode, seed in (("static", 0), ("time-varying", 2)):
            sched = WeightSchedule(GRAPH, mode=mode, a_floor=0.1, b_floor=0.1, seed=seed)
            pis = sched.pi_sequence(1000)
            assert pis.shape == (1000, 6)
            assert np.allclose(pis.sum(axis=1), 1.0, atol=1e-10)
            assert pis.min() >= 0.1**6 / 6

    def test_pi_sequence_recursion(self):
        # pi_{k+1} is the k-th column-stochastic matrix applied to pi_k.
        sched = WeightSchedule(GRAPH, mode="time-varying", seed=9)
        pis = sched.pi_sequence(20)
        for k in range(1, 20):
            _, B = sched.matrices_at(k)
            assert np.allclose(pis[k], B @ pis[k - 1], atol=1e-14)


class TestContractionRadii:
    def test_radii_below_one_on_canonical_network(self, static_pair):
        A, B = static_pair
        phi = phi_static(A)
        sched = WeightSchedule(GRAPH, mode="static")
        pi = sched.pi_sequence(2000)[-1]
        sa, sb = contraction_radii(A, phi, B, pi)
        assert 0 < sa < 1
        assert 0 < sb < 1
        assert sa == pytest.approx(0.5999047297800844, rel=1e-9)
        assert sb == pytest.approx(sa, rel=1e-6)

    def test_radii_match_dense_eigenvalues(self, static_pair):
        # Second-largest eigenvalue magnitude, computed independently.
        A, B = static_pair
        phi = phi_static(A)
        sched = WeightSchedule(GRAPH, mode="static")
        pi = sched.pi_sequence(2000)[-1]
        sa, sb = contraction_radii(A, phi, B, pi)

        eig_a = np.sort(np.abs(np.linalg.eigvals(A)))[::-1]
        eig_b = np.sort(np.abs(np.linalg.eigvals(B)))[::-1]
        assert sa == pytest.approx(eig_a[1], abs=1e-9)
        assert sb == pytest.approx(eig_b[1], abs=1e-9)


class TestValidation:
    def test_vector_pair_validate_passes_for_canonical(self, static_pair):
        # (phi, pi_k): stochastic vectors above the floor-derived lower bounds
        A, _ = static_pair
        n = GRAPH.n
        phi = phi_static(A)
        pi = WeightSchedule(GRAPH, mode="static").pi_sequence(500)[-1]
        for v, floor in ((phi, 0.1), (pi, 0.1)):
            assert v.shape == (n,)
            assert np.all(v >= 0.0) and abs(v.sum() - 1.0) <= 1e-12
            assert np.all(v >= floor**n / n - 1e-15)

    def test_vector_pair_validate_rejects_negative(self):
        # rows sum to 1 and the diagonal is positive; only the -0.1 is wrong
        A = np.array([[0.5, 0.6, -0.1], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5]])
        with pytest.raises(ValueError, match="row-stochastic"):
            phi_static(A)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            WeightSchedule(GRAPH, mode="markov")

    def test_rejects_infeasible_floor(self):
        # Agent 5's B-column has 3 entries; a floor of 0.5 cannot sum to 1.
        with pytest.raises(ConfigError):
            WeightSchedule(GRAPH, mode="static", b_floor=0.5)

    def test_rejects_disconnected_graph(self):
        g = DirectedGraph(3, ((1, 2), (2, 3)))
        with pytest.raises(ConfigError):
            WeightSchedule(g, mode="static")

    def test_ring_two_agents(self):
        g = directed_ring(2)
        sched = WeightSchedule(g, mode="static")
        A, B = sched.matrices_at(1)
        assert np.allclose(A, 0.5)
        assert np.allclose(B, 0.5)
