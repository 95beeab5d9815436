"""Invariants on random strongly connected digraphs: a ring plus random chords.

The graph's adjacency structure is checked against a brute-force scan of
its edge list, the weight matrices against a reference builder that scans
the edges once per agent, the step kernel against a per-edge row scatter,
and the engine's run against replay, the tracker-mass identity and the
public definitions of its metrics row, also where runs end at the edges of
the blocks their bookkeeping is done in. Every tracker is checked against
the leakage identity, and the baseline attack's error against the victim's
final tracker. A batch of cells is checked against their serial runs, and
the eavesdropper's net outflow against a gathered sum. On two-agent rings
the takeover audits' numeric ranks are checked against their structural
counts.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgtsim import adversary, engine
from wgtsim.adversary import (
    TwoAgentObservations, audit_gradient_system, audit_state_system, infer_gradient, z_stream,
)
from wgtsim.engine import (
    LambdaSchedule, Scenario, StepSizes, Transcript, _plans, _step, replay, run, run_batch,
)
from wgtsim.errors import DivergenceError
from wgtsim.graph import DirectedGraph, directed_ring
from wgtsim.monitor import metric_vector
from wgtsim.objective import make_sensor_scenario
from wgtsim.weights import WeightSchedule, phi_static

# a support has at most n <= 30 entries, so these floors are always feasible
A_FLOOR, B_FLOOR = 0.02, 0.03

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def ring_plus_chords(draw):
    n = draw(st.integers(2, 30))
    agent = st.integers(1, n)
    chords = draw(st.lists(st.tuples(agent, agent), max_size=2 * n))
    edges = {(i, i % n + 1) for i in range(1, n + 1)} | {(a, b) for a, b in chords if a != b}
    return DirectedGraph(n, tuple(draw(st.permutations(sorted(edges)))))


def group(flat_ptr, i):
    """Agent i's (1-based) group of a (flat, ptr) layout, as a list."""
    flat, ptr = flat_ptr
    return flat[ptr[i - 1] : ptr[i]].tolist()


def scanned_in(graph, i):
    return {a for a, b in graph.edges if b == i}


def scanned_out(graph, i):
    return {b for a, b in graph.edges if a == i}


def reference_matrices(graph, mode, seed, k):
    """(A_k, B_k) from a per-agent scan of the edges; matrices_at must match it bit for bit."""
    n = graph.n

    def rows():
        return [sorted(scanned_in(graph, i) | {i}) for i in range(1, n + 1)]

    def cols():
        return [sorted(scanned_out(graph, i) | {i}) for i in range(1, n + 1)]

    UA, UB = np.zeros((n, n)), np.zeros((n, n))
    for i, (row, col) in enumerate(zip(rows(), cols()), 1):
        for j in row:
            UA[i - 1, j - 1] = 1.0 / len(row)
        for l in col:
            UB[l - 1, i - 1] = 1.0 / len(col)
    if mode == "static":
        return UA, UB

    rng = np.random.default_rng([seed, k])

    def on_support(size, floor):
        g = rng.uniform(size=size)
        return floor + (1.0 - size * floor) * (g / g.sum())

    A, B = np.zeros((n, n)), np.zeros((n, n))
    for i, row in enumerate(rows(), 1):
        A[i - 1, [j - 1 for j in row]] = on_support(len(row), A_FLOOR)
    for i, col in enumerate(cols(), 1):
        B[[l - 1 for l in col], i - 1] = on_support(len(col), B_FLOOR)
    return 0.5 * (UA + A), 0.5 * (UB + B)


@SETTINGS
@given(ring_plus_chords())
def test_adjacency_matches_an_edge_scan(graph):
    assert graph.is_strongly_connected()
    for i in range(1, graph.n + 1):
        ins, outs = scanned_in(graph, i), scanned_out(graph, i)
        assert graph.in_neighbors(i) == ins
        assert graph.out_neighbors(i) == outs
        assert group(graph.in_supports, i) == sorted(j - 1 for j in ins | {i})
        assert group(graph.out_supports, i) == sorted(j - 1 for j in outs | {i})
        assert [graph.edges[e] for e in graph.in_edge_indices(i)] == sorted((j, i) for j in ins)
        assert [graph.edges[e] for e in graph.out_edge_indices(i)] == sorted((i, j) for j in outs)
    src, dst = graph.edge_index_arrays()
    assert list(zip((src + 1).tolist(), (dst + 1).tolist())) == list(graph.edges)


@SETTINGS
@given(ring_plus_chords(), st.data())
def test_derived_adjacency_stays_out_of_identity(graph, data):
    # equality, hashing and repr see only n and the canonical edge set
    shuffled = DirectedGraph(graph.n, tuple(data.draw(st.permutations(graph.edges))))
    assert shuffled == graph and hash(shuffled) == hash(graph)
    assert repr(graph) == f"DirectedGraph(n={graph.n}, edges={graph.edges!r})"


@SETTINGS
@given(
    ring_plus_chords(),
    st.sampled_from(["static", "time-varying"]),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 500), min_size=1, max_size=4),
)
def test_matrices_are_bit_identical_to_the_edge_scan_builder(graph, mode, seed, ks):
    sched = WeightSchedule(graph, mode=mode, a_floor=A_FLOOR, b_floor=B_FLOOR, seed=seed)
    for k in ks:
        A, B = sched.matrices_at(k)
        ref_A, ref_B = reference_matrices(graph, mode, seed, k)
        assert A.tobytes() == ref_A.tobytes()
        assert B.tobytes() == ref_B.tobytes()


def test_wide_supports_match_the_edge_scan_builder():
    # g.sum() adds g[0] to the sum of the rest, taken pairwise from 8 values
    # on; a draw that sums its supports in plain order (np.add.reduceat)
    # differs from it in the last bit on supports of 9 to 12 entries
    n = 16
    edges = {(i, i % n + 1) for i in range(1, n + 1)}
    edges |= {(j, 1) for j in range(4, 12)} | {(j, 2) for j in range(5, 12)}
    edges |= {(3, j) for j in range(6, 14)} | {(4, j) for j in range(8, 14)}
    graph = DirectedGraph(n, tuple(sorted(edges)))
    for _, ptr in (graph.in_supports, graph.out_supports):
        assert {9, 10} <= set(np.diff(ptr).tolist())
    sched = WeightSchedule(graph, mode="time-varying", a_floor=A_FLOOR, b_floor=B_FLOOR, seed=3)
    for k in range(1, 21):
        A, B = sched.matrices_at(k)
        ref_A, ref_B = reference_matrices(graph, "time-varying", 3, k)
        assert A.tobytes() == ref_A.tobytes()
        assert B.tobytes() == ref_B.tobytes()


def random_scenario(graph, mode, weight_mode, p, seed, data):
    n = graph.n
    if mode == "ab":
        steps = StepSizes.homogeneous(1e-4, n)
    else:
        steps = StepSizes(np.array(data.draw(st.lists(
            st.floats(5e-5, 2e-4), min_size=n, max_size=n))))
    weights = WeightSchedule(graph, mode=weight_mode, a_floor=A_FLOOR, b_floor=B_FLOOR, seed=seed)
    return Scenario(
        graph=graph,
        weights=weights,
        ensemble=make_sensor_scenario(n=n, d=3, p=p, seed=seed),
        steps=steps,
        lam=LambdaSchedule(e=0.8, m=10.0),
        init_seed=seed,
    )


SCENARIOS = (
    ring_plus_chords(),
    st.sampled_from(["ab", "wgt"]),
    st.sampled_from(["static", "time-varying"]),
    st.integers(1, 8),
    st.integers(0, 2**16),
    st.data(),
)


@SETTINGS
@given(*SCENARIOS)
def test_step_mixes_like_a_per_edge_row_scatter(graph, mode, weight_mode, p, seed, data):
    # with zero gradients y_next is the tracker mix itself, not a sum that
    # could round a last-bit difference of the mix away
    scen = random_scenario(graph, mode, weight_mode, p, seed, data)
    src, dst = graph.edge_index_arrays()
    x, y = np.random.default_rng(seed).normal(size=(2, graph.n, p))
    zero = np.zeros_like(x)
    alphas = scen.steps.values[:, None]
    k = data.draw(st.integers(1, 50))
    plans = _plans(scen.weights, p)
    for _ in range(k):
        plan, B = next(plans)
    x_next, y_next, _, _, _ = _step(mode, x, y, zero, plan, alphas, 0.25, np.zeros_like)

    A, _ = scen.weights.matrices_at(k)
    sent = x - alphas * y if mode == "wgt" else x
    ref_x = np.diag(A)[:, None] * sent
    np.add.at(ref_x, dst, A[dst, src][:, None] * sent[src])
    if mode == "ab":
        ref_x -= alphas[0] * y
    ref_y = np.diag(B)[:, None] * y
    np.add.at(ref_y, dst, B[dst, src][:, None] * y[src])
    assert (x_next == ref_x).all()
    assert (y_next == ref_y).all()


@SETTINGS
@given(*SCENARIOS)
def test_replay_is_bit_exact_and_tracker_mass_is_conserved(graph, mode, weight_mode, p, seed, data):
    scen = random_scenario(graph, mode, weight_mode, p, seed, data)
    report, tr = run(scen, mode, 15, record_states=True)
    xs, ys = replay(scen, mode, tr)
    assert xs.tobytes() == report.states[0].tobytes()
    assert ys.tobytes() == report.states[1].tobytes()
    assert (report.conservation_residuals <= 1e-9 * (1.0 + report.grad_norms)).all()


@SETTINGS
@given(*SCENARIOS)
def test_metrics_row_equals_the_public_definitions(graph, mode, weight_mode, p, seed, data):
    scen = random_scenario(graph, mode, weight_mode, p, seed, data)
    report, _ = run(scen, mode, 15, record_transcript=False, record_states=True)
    phi = phi_static(scen.weights.matrices_at(1)[0]) if weight_mode == "static" else None
    x_star = report.x_star
    init_dist = float(np.linalg.norm(report.states[0][0] - x_star) ** 2)
    for t, (x, y) in enumerate(zip(*report.states)):
        _, s2, s3 = metric_vector(x, y, x_star, phi, report.pis[t])
        g = scen.ensemble.gradients(x)
        w = scen.lam.value(t + 1) if mode == "wgt" else 1.0
        assert report.residuals[t] == float(np.linalg.norm(x - x_star) ** 2) / init_dist
        assert report.consensus_errors[t] == s2
        assert report.tracking_errors[t] == s3
        assert report.lambdas[t] == w
        assert report.conservation_residuals[t] == np.linalg.norm(y.sum(axis=0) - w * g.sum(axis=0))
        assert report.grad_norms[t] == np.linalg.norm(g)


@SETTINGS
@given(*SCENARIOS)
def test_trackers_hold_the_gradients_less_the_net_outflow(graph, mode, weight_mode, p, seed, data):
    # the leakage identity y_{i,k} = lambda_k g_i(x_{i,k}) - sum_{t<k} z_{i,t}, lambda = 1
    # under ab: there the eavesdropper's sum misses the true gradient by the final tracker
    scen = random_scenario(graph, mode, weight_mode, p, seed, data)
    K = 30
    report, tr = run(scen, mode, K, record_states=True)
    xs, ys = report.states
    g = np.array([scen.ensemble.gradients(x) for x in xs])
    w = np.array([scen.lam.value(k) if mode == "wgt" else 1.0 for k in range(1, K + 2)])
    lg, bound = w[:, None, None] * g, 1e-9 * (1.0 + np.linalg.norm(g, axis=(1, 2)))
    for i in range(1, graph.n + 1):
        outflow = np.vstack((np.zeros(p), np.cumsum(z_stream(tr, i), axis=0)))  # row k: sum_{t<k+1}
        assert (np.linalg.norm(ys[:, i - 1] - (lg[:, i - 1] - outflow), axis=1) <= bound).all()
        if mode == "ab":
            attack = infer_gradient(tr, i, final_state=report.final_state, ensemble=scen.ensemble)
            error = np.linalg.norm(attack.inferred_gradient - attack.true_gradient_at_final)
            assert error == pytest.approx(np.linalg.norm(ys[K, i - 1]), rel=1e-9)


def blocks_of(rows):
    """run and run_batch with blocks of the given number of rows, whatever their size."""
    return mock.patch.multiple(engine, BLOCK_ROWS=rows, BLOCK_FLOATS=2**40)


def assert_rows_match_the_states(scen, mode, report, transcript):
    """report's tables, final state and transcript, row by row from its states,
    are what np.linalg.norm, pi_sequence and the senders' messages give."""
    xs, ys = report.states
    K, x_star = report.K, report.x_star
    phi = phi_static(scen.weights.matrices_at(1)[0]) if scen.weights.mode == "static" else None
    src, dst = scen.graph.edge_index_arrays()
    init = float(np.linalg.norm(xs[0] - x_star)) ** 2
    pis = scen.weights.pi_sequence(K + 1)
    for t, (x, y) in enumerate(zip(xs, ys)):
        g = scen.ensemble.gradients(x)
        w = scen.lam.value(t + 1) if mode == "wgt" else 1.0
        xbar = x.mean(axis=0) if phi is None else phi @ x
        row = (
            float(np.linalg.norm(x - x_star)) ** 2 / (init or 1.0),
            np.linalg.norm(x - xbar),
            np.linalg.norm(y - np.outer(pis[t], y.sum(axis=0))),
            w,
            np.linalg.norm(y.sum(axis=0) - w * g.sum(axis=0)),
            np.linalg.norm(g),
        )
        assert report.metrics[t].tobytes() == np.array(row).tobytes()
        if t < K:
            B = scen.weights.matrices_at(t + 1)[1]
            sent = x - scen.steps.values[:, None] * y if mode == "wgt" else x
            assert transcript.x_msgs[t].tobytes() == sent[src].tobytes()
            assert transcript.y_msgs[t].tobytes() == (B[dst, src][:, None] * y[src]).tobytes()
    assert transcript.K == K and report.final_state.k == K + 1
    assert report.final_state.x.tobytes() == xs[K].tobytes()
    assert report.final_state.y.tobytes() == ys[K].tobytes()


def record_rows(values, lower):
    """Rows t >= 2 whose value is below (lower) or above every one of rows 1..t-1."""
    return [t for t in range(2, len(values))
            if (values[t] < values[1:t].min() if lower else values[t] > values[1:t].max())]


@SETTINGS
@given(*SCENARIOS, st.integers(1, 6))
def test_block_edges_keep_every_row(graph, mode, weight_mode, p, seed, data, rows):
    scen = random_scenario(graph, mode, weight_mode, p, seed, data)
    with blocks_of(rows):
        for K in (0, rows - 1, rows, rows + 1, 2 * rows):
            assert_rows_match_the_states(scen, mode, *run(scen, mode, K, record_states=True))
    # a divergence on row t, inside the first block of t + 2 rows
    wild = dataclasses.replace(scen, steps=StepSizes.homogeneous(300.0 / scen.ensemble.L, graph.n))
    residuals = run(wild, mode, 12, divergence_cap=np.inf, record_transcript=False)[0].residuals
    highs = record_rows(residuals, lower=False)
    assert highs
    t = data.draw(st.sampled_from(highs))
    with blocks_of(t + 2), pytest.raises(DivergenceError) as exc:
        run(wild, mode, 12, divergence_cap=residuals[1:t].max())
    assert exc.value.k == t + 1
    assert np.float64(exc.value.residual).tobytes() == residuals[t].tobytes()


@SETTINGS
@given(
    st.sampled_from(["static", "time-varying"]),
    st.integers(1, 6),
    st.integers(2, 10),
    st.integers(0, 2**16),
    st.lists(st.floats(0.01, 0.5), min_size=2, max_size=2),
)
def test_two_agent_audits_have_their_structural_rank(weight_mode, p, K, seed, step_fractions):
    # agent 2 covers the whole neighborhood of agent 1, the victim
    graph = directed_ring(2)
    ensemble = make_sensor_scenario(n=2, d=3, p=p, seed=seed)
    scen = Scenario(
        graph=graph,
        weights=WeightSchedule(graph, mode=weight_mode, a_floor=A_FLOOR, b_floor=B_FLOOR, seed=seed),
        ensemble=ensemble,
        steps=StepSizes(np.array(step_fractions) / ensemble.L),
        lam=LambdaSchedule(e=0.8, m=10.0),
        init_seed=seed,
    )
    report, tr = run(scen, "wgt", K, record_states=True)
    xs, ys = report.states
    obs = TwoAgentObservations.from_transcript(tr, honest=1, attacker=2)
    mixing_weights = np.array([scen.weights.matrices_at(k)[0][0, 1] for k in range(1, K)])
    gradients = np.array([ensemble.gradients(xs[k])[0] for k in range(1, K + 1)])
    state = audit_state_system(K, p, obs, truth=(xs[1:K, 0], mixing_weights))
    gradient = audit_gradient_system(
        K, p, obs, lam=scen.lam, y_final=ys[K, 0], truth=(ys[1:K, 0], gradients)
    )
    for numeric, structural in ((state, audit_state_system(K, p)),
                                (gradient, audit_gradient_system(K, p))):
        assert numeric.method == "numeric"
        assert (numeric.rank, numeric.nullity) == (structural.rank, structural.nullity)
        assert numeric.consistency_residual <= 1e-12


def serial_cell(scen, K, threshold, cap):
    """(iterations to threshold, residual, divergence k) of one cell, read off its own
    run: the cell leaves at its first row past row 0 at or below threshold, or diverges."""
    diverged = None
    try:
        report, _ = run(scen, "wgt", K, record_transcript=False, residual_threshold=threshold,
                        divergence_cap=cap)
    except DivergenceError as exc:  # the rows before the divergent one: 0..k - 2
        diverged = exc
        report, _ = run(scen, "wgt", exc.k - 2, record_transcript=False,
                        residual_threshold=threshold, divergence_cap=cap)
    below = np.flatnonzero(report.residuals[1:] <= threshold)
    if below.size:
        return report.iterations_to_threshold(), float(report.residuals[below[0] + 1]), None
    if diverged is not None:
        return None, diverged.residual, diverged.k
    return report.iterations_to_threshold(), float(report.residuals[-1]), None


@SETTINGS
@given(
    ring_plus_chords(),
    st.sampled_from(["static", "time-varying"]),
    st.integers(1, 4),
    st.integers(0, 2**16),
    st.sampled_from([1e-3, 2.0]),  # 2.0: the initial state is already below it
    st.data(),
)
def test_batch_matches_serial_runs_cell_by_cell(graph, weight_mode, p, seed, threshold, data):
    # the cells share the graph and the weights; the first steps far too
    # long and diverges, the second too short to reach the threshold, which
    # is put below its least residual if the initial state is not below it
    K, cap = 150, 1e8
    weights = WeightSchedule(graph, mode=weight_mode, a_floor=A_FLOOR, b_floor=B_FLOOR, seed=seed)
    fractions = [1e3, 1e-6] + data.draw(st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3))
    scenarios = []
    for c, fraction in enumerate(fractions):
        ensemble = make_sensor_scenario(n=graph.n, d=3, p=p, seed=seed + c)
        scenarios.append(Scenario(
            graph=graph,
            weights=weights,
            ensemble=ensemble,
            steps=StepSizes.homogeneous(fraction / ensemble.L, graph.n),
            lam=LambdaSchedule(e=data.draw(st.floats(0.5, 1.0)), m=data.draw(st.floats(0.0, 3.0))),
            init_seed=seed + c,
        ))
    if threshold < 1.0:
        threshold = min(threshold, run(scenarios[1], "wgt", K, record_transcript=False)[0].residuals.min() / 2)
    batch = run_batch(scenarios, K, stop_when_below=threshold, divergence_cap=cap)
    serial = [serial_cell(scen, K, threshold, cap) for scen in scenarios]
    for (its, residual, diverged_at), (its_ref, residual_ref, diverged_ref) in zip(batch, serial):
        assert (its, diverged_at) == (its_ref, diverged_ref)
        assert np.float64(residual).tobytes() == np.float64(residual_ref).tobytes()
    assert serial[0][2] is not None
    assert serial[1][2] is None and serial[1][0] == (1 if threshold > 1.0 else None)


@SETTINGS
@given(ring_plus_chords(), st.sampled_from(["static", "time-varying"]), st.integers(1, 4),
       st.integers(0, 2**16), st.data())
def test_batch_cells_leave_on_block_edges(graph, weight_mode, p, seed, data):
    # the threshold is a record low of the first cell's residuals, on row t:
    # the first row of the second block of t - 1 steps and the last of the
    # first block of t
    weights = WeightSchedule(graph, mode=weight_mode, a_floor=A_FLOOR, b_floor=B_FLOOR, seed=seed)
    scenarios = []
    for c, fraction in enumerate([0.5, 1.0, 2.0]):
        ensemble = make_sensor_scenario(n=graph.n, d=3, p=p, seed=seed + c)
        scenarios.append(Scenario(graph=graph, weights=weights, ensemble=ensemble,
                                  steps=StepSizes.homogeneous(fraction / ensemble.L, graph.n),
                                  lam=LambdaSchedule(e=0.8, m=1.0), init_seed=seed + c))
    K, cap = 40, 1e8
    residuals = run(scenarios[0], "wgt", K, record_transcript=False)[0].residuals
    t = data.draw(st.sampled_from(record_rows(residuals, lower=True)))
    serial = [serial_cell(scen, K, residuals[t], cap) for scen in scenarios]
    assert serial[0] == (t + 1, residuals[t], None)
    for block in (t - 1, t, 1):
        with blocks_of(block):
            batch = run_batch(scenarios, K, stop_when_below=residuals[t], divergence_cap=cap)
        for (its, residual, diverged_at), (its_ref, residual_ref, diverged_ref) in zip(batch, serial):
            assert (its, diverged_at) == (its_ref, diverged_ref)
            assert np.float64(residual).tobytes() == np.float64(residual_ref).tobytes()


@SETTINGS
@given(ring_plus_chords(), st.integers(1, 30), st.integers(1, 4), st.integers(1, 7), st.integers(0, 2**16))
def test_z_stream_equals_the_gathered_sum(graph, K, p, block_rows, seed):
    # summed block by block without gathering copies, yet bit for bit the
    # reduction over the gathered edges, -0.0 payloads included
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(K, len(graph.edges), p)) * 10.0 ** rng.integers(-6, 7, size=(K, len(graph.edges), p))
    y[rng.random(y.shape) < 0.1] = -0.0
    transcript = Transcript("wgt", graph, p, np.zeros_like(y), y)
    with mock.patch.object(adversary, "_BLOCK_ROWS", block_rows):
        for i in range(1, graph.n + 1):
            sent = y[:, graph.out_edge_indices(i), :].sum(axis=1)
            received = y[:, graph.in_edge_indices(i), :].sum(axis=1)
            assert z_stream(transcript, i).tobytes() == (sent - received).tobytes()
