"""Distributed-optimization engine: update laws, runs, transcripts, replay.

Two update laws are implemented over a shared message-passing kernel.

Baseline tracking ("ab"): every agent mixes neighbor states with a
row-stochastic A_k, takes a step along its tracker with one common constant
alpha, and mixes trackers with a column-stochastic B_k plus the fresh
gradient increment. Trackers then conserve the exact sum of local gradients.

Weighted tracking ("wgt"): each agent first applies its own step size to its
tracker and then mixes (adapt-then-combine), while the gradient increments
entering the tracker are scaled by a vanishing sequence lambda_k. Trackers
conserve lambda_k times the gradient sum, which is what makes the on-channel
information dry up over time.

Every message placed on a channel during a run can be recorded into a
Transcript. Mixing accumulates per-edge contributions in canonical edge
order, so replaying a transcript through the same kernel reproduces the
recorded trajectory bit for bit.

A run's loop only steps and buffers: metrics rows, residual checks and stops
come per block of rows, from stacked NumPy calls that round as row by row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import monitor
from .errors import ConfigError, DivergenceError
from .graph import DirectedGraph
from .objective import ObjectiveEnsemble
from .weights import WeightSchedule, phi_static

__all__ = [
    "LambdaSchedule",
    "ConstantLambda",
    "StepSizes",
    "NetworkState",
    "Transcript",
    "Scenario",
    "RunReport",
    "check_steps",
    "run",
    "run_batch",
    "replay",
]

MODES = ("ab", "wgt")

BUFFER_LIMIT_BYTES = 2 * 2**30


@dataclass(frozen=True)
class LambdaSchedule:
    """Vanishing gradient weights lambda_k = 1 / (k^e + m).

    Positive and nonincreasing for any e > 0, m >= 0; the running sum
    diverges exactly when e <= 1, which is the regime the convergence
    theory needs.
    """

    e: float
    m: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.e) and self.e > 0.0):
            raise ValueError(f"decay exponent must be positive and finite, got e={self.e}")
        if not (math.isfinite(self.m) and self.m >= 0.0):
            raise ValueError(f"offset must be finite and >= 0, got m={self.m}")

    def value(self, k: int) -> float:
        return 1.0 / (float(k) ** self.e + self.m)

    @property
    def sum_diverges(self) -> bool:
        return self.e <= 1.0

    def describe(self) -> str:
        return f"1/(k^{self.e:g} + {self.m:g})"


@dataclass(frozen=True)
class ConstantLambda:
    """Constant gradient weight, for experiments only.

    Does not vanish, so the privacy mechanism is disabled and the
    diminishing-weight convergence theory does not cover it.
    """

    c: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"constant weight must be positive and finite, got {self.c}")

    def value(self, k: int) -> float:
        return self.c

    @property
    def sum_diverges(self) -> bool:
        return True

    def describe(self) -> str:
        return f"constant {self.c:g} (non-vanishing; outside the convergence theory)"


@dataclass(frozen=True)
class StepSizes:
    """Per-agent step sizes; alpha_check is the largest one."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("step sizes must be a non-empty 1-d array")
        if not np.all(np.isfinite(v) & (v > 0.0)):
            raise ValueError("step sizes must be positive and finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def homogeneous(cls, alpha: float, n: int) -> "StepSizes":
        return cls(np.full(n, float(alpha)))

    @property
    def alpha_check(self) -> float:
        return float(self.values.max())

    @property
    def is_homogeneous(self) -> bool:
        return bool(np.all(self.values == self.values[0]))


def check_steps(mode: str, steps: StepSizes) -> None:
    """Raise ConfigError if the update law cannot use these step sizes."""
    if mode == "ab" and not steps.is_homogeneous:
        raise ConfigError("baseline tracking uses one common constant step size")


def check_tables(graph: DirectedGraph, p: int, K: int, *, record_transcript: bool = False,
                 record_states: bool = False) -> None:
    """Raise ConfigError if the tables of a K-iteration run (metrics and what
    it records) exceed BUFFER_LIMIT_BYTES."""
    floats = (K + 1) * (len(METRIC_COLUMNS) + (2 * graph.n * p if record_states else 0))
    floats += 2 * K * len(graph.edges) * p if record_transcript else 0
    if (size := 8 * floats) > BUFFER_LIMIT_BYTES:
        raise ConfigError(f"the tables of a {K}-iteration run take {size / 2**30:.1f} GiB, over "
                          f"the {BUFFER_LIMIT_BYTES / 2**30:g} GiB limit; lower algorithm.K")


@dataclass
class NetworkState:
    """Stacked agent states at iteration k: row i of x / y belongs to agent i+1."""

    k: int
    x: np.ndarray  # (n, p)
    y: np.ndarray  # (n, p)


@dataclass
class Transcript:
    """Everything that crossed a channel during a run.

    For iteration k (1-based) and edge index e, x_msgs[k-1, e] is the
    x-channel payload sent along graph.edges[e] and y_msgs[k-1, e] the
    tracker payload, already scaled by the sender's column weight.
    Self-weighted tracker terms never appear because they never leave the
    agent. The graph answers which channels touch an agent.
    """

    mode: str
    graph: DirectedGraph
    p: int
    x_msgs: np.ndarray  # (K, E, p)
    y_msgs: np.ndarray  # (K, E, p)

    @property
    def K(self) -> int:
        return self.x_msgs.shape[0]


@dataclass
class Scenario:
    """A fully constructed experiment: who talks to whom, about what."""

    graph: DirectedGraph
    weights: WeightSchedule
    ensemble: ObjectiveEnsemble
    steps: StepSizes
    lam: LambdaSchedule | ConstantLambda | None = None
    init_seed: int = 0

    def __post_init__(self):
        if self.weights.graph is not self.graph and self.weights.graph != self.graph:
            raise ConfigError("weight schedule was built for a different graph")
        if self.ensemble.n != self.graph.n:
            raise ConfigError(
                f"ensemble has {self.ensemble.n} agents, graph has {self.graph.n}"
            )
        if self.steps.values.size != self.graph.n:
            raise ConfigError(
                f"{self.steps.values.size} step sizes for {self.graph.n} agents"
            )

    def initial_x(self) -> np.ndarray:
        """Seeded i.i.d. uniform start in [0, 1]^(n x p)."""
        rng = np.random.default_rng(self.init_seed)
        return rng.uniform(size=(self.graph.n, self.ensemble.p))


METRIC_COLUMNS = (
    "residual", "consensus_error", "tracking_error", "lambda", "conservation_residual", "grad_norm"
)


def _column(j: int) -> property:
    return property(lambda self: self.metrics[:, j], doc=f"The {METRIC_COLUMNS[j]!r} column.")


@dataclass
class RunReport:
    """Per-iteration metrics plus summary data for a finished run.

    Row t of metrics (columns METRIC_COLUMNS) and of pis corresponds to
    iteration k = t + 1; a K-step run has K + 1 rows, the first describing
    the initial state. residuals are squared distances to the consensus
    optimum, normalized by the initial one. residuals, consensus_errors and
    the other per-metric attributes are views of the table's columns; pis is
    built from the run's weight schedule when it is read.
    """

    mode: str
    K: int
    n: int
    p: int
    xbar_weighting: str  # "phi" or "uniform"
    threshold: float
    metrics: np.ndarray  # (K+1, len(METRIC_COLUMNS))
    x_star: np.ndarray
    weights: WeightSchedule = field(repr=False)
    final_state: NetworkState
    states: tuple[np.ndarray, np.ndarray] | None = None  # (xs, ys), if recorded

    residuals = _column(0)
    consensus_errors = _column(1)
    tracking_errors = _column(2)
    lambdas = _column(3)
    conservation_residuals = _column(4)
    grad_norms = _column(5)

    @property
    def pis(self) -> np.ndarray:
        """(K+1, n): pi_1..pi_{K+1}, the tracker profiles of the rows."""
        return self.weights.pi_sequence(self.K + 1)

    def iterations_to_threshold(self) -> int | None:
        hit = np.nonzero(self.residuals <= self.threshold)[0]
        return int(hit[0]) + 1 if hit.size else None

    def summary(self) -> dict:
        its = self.iterations_to_threshold()
        return {
            "mode": self.mode,
            "iterations_run": self.K,
            "terminal_residual": float(self.residuals[-1]),
            "terminal_consensus_error": float(self.consensus_errors[-1]),
            "terminal_tracking_error": float(self.tracking_errors[-1]),
            "residual_threshold": self.threshold,
            "iterations_to_threshold": its,
            "converged": its is not None,
            "xbar_weighting": self.xbar_weighting,
        }


# a block of bookkeeping has BLOCK_ROWS rows, fewer if its stacked copies would pass BLOCK_FLOATS
BLOCK_ROWS, BLOCK_FLOATS = 64, 16384


def _block_rows(floats_per_row: int) -> int:
    return max(1, min(BLOCK_ROWS, BLOCK_FLOATS // floats_per_row))


def _squares(sq_norms: np.ndarray) -> np.ndarray:
    """sqrt(v) ** 2 for each squared norm v by Python's pow, as the residual has
    it: NumPy's ** 2 multiplies, which rounds differently now and then."""
    return np.array([math.sqrt(v) ** 2 for v in sq_norms.tolist()])


def _plans(weights: WeightSchedule, p: int, cells: int = 1):
    """Yield (plan, B_k) for k = 1, 2, ...: the plan holds diag(A_k),
    A_k[dst, src], diag(B_k) and B_k[dst, src] as column vectors, gathered
    once for a static schedule and afresh per k for a time-varying one, then
    src and the flat index (s * n + dst) * p + c of component c of each edge
    of cell s < cells, built once; the first S * E * p entries serve S cells."""
    n = weights.graph.n
    src, dst = weights.graph.edge_index_arrays()
    rows, cols = np.r_[np.arange(n), dst], np.r_[np.arange(n), src]
    src = src.copy()  # writeable: take copies a read-only index on every call
    flat_dst = ((np.arange(cells)[:, None, None] * n + dst[:, None]) * p + np.arange(p)).ravel()

    def plan(k: int):
        A, B = weights.matrices_at(k)
        a, b = A[rows, cols][:, None], B[rows, cols][:, None]
        return (a[:n], a[n:], b[:n], b[n:], src, flat_dst), B

    if weights.mode == "static":
        return itertools.repeat(plan(1))
    return map(plan, itertools.count(1))


def _step(
    mode: str, x: np.ndarray, y: np.ndarray, lg_prev: np.ndarray, plan: tuple, alphas: np.ndarray,
    lam_next, gradients, msgs: tuple[np.ndarray, np.ndarray] | None = None,
):
    """One synchronous iteration; returns new x, y, grad, lg and the messages.

    x, y and lg_prev are (n, p), or (S, n, p) for S cells the plan's flat
    index covers; lg is the weighted gradient the tracker takes in, lambda *
    grad (wgt) or grad (ab), carried to the next step. alphas is the (n, 1)
    or (S, n, 1) step column and lam_next lambda_k+1, a float or (S, 1, 1)
    column. gradients maps the new x to its gradients. msgs=None computes the
    (x_msgs, y_msgs) the senders put on the channels; recorded messages
    (replay) are mixed in their place."""
    a_self, a_edge, b_self, b_edge, src, flat_dst = plan
    # wgt adapts before it combines: the x-channel carries x - alpha * y
    sent = x - alphas * y if mode == "wgt" else x
    if msgs is None:
        msgs = sent.take(src, axis=-2), b_edge * y.take(src, axis=-2)
    x_msgs, y_msgs = msgs
    # np.add.at on the flattened state adds the raveled (..., E, p) terms
    # one at a time at flat_dst: each element receives its edges' terms in
    # edge order, which pins the summation order bit-exact replay needs
    x_next = a_self * sent
    np.add.at(x_next.ravel(), flat_dst, (a_edge * x_msgs).ravel())
    if mode == "ab":
        x_next -= alphas[0] * y
    y_mix = b_self * y
    np.add.at(y_mix.ravel(), flat_dst, y_msgs.ravel())
    g_next = gradients(x_next)
    lg_next = lam_next * g_next if mode == "wgt" else g_next
    y_mix += lg_next  # (y_mix + lg_next) - lg_prev in place: no temporaries to allocate
    y_mix -= lg_prev
    return x_next, y_mix, g_next, lg_next, msgs


def _trajectory(scenario: Scenario, mode: str, K: int, transcript: Transcript | None = None):
    """Yield (x, y, grad, lambda_k, msgs, B_k) at the start (msgs and B_k
    None) and after each of K steps. Trackers start at the lambda_1-weighted
    gradients; ab carries lambda = 1. Each lambda_k is evaluated once. A
    transcript's messages are mixed in place of computed ones (replay)."""
    lam = scenario.lam
    if mode == "wgt" and lam is None:
        raise ConfigError("weighted tracking needs a gradient-weight schedule")
    weight = lam.value if mode == "wgt" else lambda k: 1.0
    x = scenario.initial_x()
    g = scenario.ensemble.gradients(x)
    w = weight(1)
    y = lg = (w * g) if mode == "wgt" else g.copy()
    yield x, y, g, w, None, None
    alphas = scenario.steps.values[:, None]
    plans = _plans(scenario.weights, x.shape[1])
    gradients = scenario.ensemble.gradients
    for k, (plan, B) in zip(range(1, K + 1), plans):
        w_next = weight(k + 1)
        if w_next > w:
            raise ValueError("gradient-weight schedule must be nonincreasing")
        msgs = None if transcript is None else (transcript.x_msgs[k - 1], transcript.y_msgs[k - 1])
        x, y, g, lg, msgs = _step(mode, x, y, lg, plan, alphas, w_next, gradients, msgs)
        w = w_next
        yield x, y, g, w, msgs, B


def run(
    scenario: Scenario,
    mode: str,
    K: int,
    *,
    record_transcript: bool = True,
    record_states: bool = False,
    residual_threshold: float = 1e-6,
    divergence_cap: float = 1e12,
) -> tuple[RunReport, Transcript | None]:
    """Execute K synchronous iterations and collect per-iteration metrics.

    Returns (report, transcript); the transcript is None when recording is
    disabled (long runs: messages cost K * E * 2 * p floats). A run whose
    tables would take more than BUFFER_LIMIT_BYTES is refused with
    ConfigError before any is allocated. The report
    has one row per visited iterate including the initial state: K + 1
    rows. A non-finite or cap-exceeding residual aborts with
    DivergenceError. Rows are evaluated a block at a time; a divergence
    still takes effect at its own row.
    """
    if mode not in MODES:
        raise ValueError(f"mode {mode!r} not in {MODES}")
    if K < 0:
        raise ValueError(f"iteration count must be >= 0, got {K}")
    check_steps(mode, scenario.steps)
    ens = scenario.ensemble
    n, p = ens.n, ens.p
    check_tables(scenario.graph, p, K, record_transcript=record_transcript, record_states=record_states)
    ws = scenario.weights
    x_star = ens.global_optimum()

    phi = phi_static(ws.matrices_at(1)[0]) if ws.mode == "static" else None
    weighting = "uniform" if phi is None else "phi"

    metrics = np.empty((K + 1, len(METRIC_COLUMNS)))
    x_msgs, y_msgs = np.empty((2, K, len(scenario.graph.edges), p)) if record_transcript else (None, None)
    xs, ys = np.empty((2, K + 1, n, p)) if record_states else (None, None)
    L = _block_rows(3 * n * p)

    pi, pi_moves, norm_by = np.full(n, 1.0 / n), True, 1.0

    def evaluate(t0: int, block: list) -> None:
        """Fill the block's rows, from row t0 on; raise at its first divergent one past row 0."""
        nonlocal norm_by
        t1 = t0 + len(block)
        # one row (large n * p) is viewed, not copied: its copies would add to the peak memory
        X, Y, G, P = (rows[0][None] if len(block) == 1 else np.array(rows) for rows in zip(*block))
        lam = metrics[t0:t1, 3]
        sq = _squares(monitor.sq_norms(X - x_star))
        if t0 == 0:  # residuals are relative to the initial squared distance, where it is not 0
            norm_by = sq[0] if sq[0] > 0.0 else 1.0
        res = (sq / norm_by).tolist()
        _, y_hat, s2, s3 = monitor.deviations(X, Y, phi, P)
        conservation = monitor.norms(y_hat - lam[:, None] * G.sum(axis=1))
        metrics[t0:t1, [0, 1, 2, 4, 5]] = np.column_stack((res, s2, s3, conservation, monitor.norms(G)))
        if record_states:
            xs[t0:t1], ys[t0:t1] = X, Y
        for t, r in enumerate(res[1:] if t0 == 0 else res, max(t0, 1)):
            if not math.isfinite(r) or r > divergence_cap:
                raise DivergenceError(t + 1, r)

    # the loop steps and buffers, and evaluates a block once it is full; steps
    # past a divergence are dropped, overflows and all
    block = []  # the states, gradients and pi of the block's rows
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (x, y, g, w, msgs, B) in enumerate(_trajectory(scenario, mode, K)):
            if k and record_transcript:
                x_msgs[k - 1], y_msgs[k - 1] = msgs
            if k and pi_moves:  # a static B_k leaves pi as it is once B pi == pi bit for bit
                pi, last = B @ pi, pi
                pi_moves = phi is None or not np.array_equal(pi, last)
            metrics[k, 3] = w
            block.append((x, y, g, pi))
            if len(block) == L or k == K:
                evaluate(k + 1 - len(block), block)
                block = []

    report = RunReport(
        mode=mode,
        K=K,
        n=n,
        p=p,
        xbar_weighting=weighting,
        threshold=residual_threshold,
        metrics=metrics,
        x_star=x_star,
        weights=ws,
        final_state=NetworkState(K + 1, x, y),
        states=(xs, ys) if record_states else None,
    )
    transcript = Transcript(mode, scenario.graph, p, x_msgs, y_msgs) if record_transcript else None
    return report, transcript


def run_batch(
    scenarios: list[Scenario], K: int, *, stop_when_below: float, divergence_cap: float = 1e12
) -> list[tuple[int | None, float, int | None]]:
    """Weighted tracking on cells that share the graph and the weight schedule.

    Each cell keeps only its state and residual, advancing through run's kernel
    over a leading (S, n, p) axis. A cell leaves the batch at its first row past
    row 0 whose residual is at or below stop_when_below, or at its first
    divergent row, as run judges one. Returns per cell (iterations to threshold
    or None, residual of the cell's last row, divergence k or None), bit for bit
    what run's report up to that row, or its DivergenceError, gives."""
    if not scenarios or K < 0:
        raise ValueError(f"need cells and K >= 0, got {len(scenarios)} cells and K={K}")
    ws = scenarios[0].weights
    if any(s.weights != ws or s.lam is None for s in scenarios):
        raise ConfigError("batched cells need one weight schedule and a gradient-weight schedule each")
    x = np.stack([s.initial_x() for s in scenarios])
    hess = np.stack([s.ensemble.hessians for s in scenarios])
    lin = np.stack([s.ensemble.linear_terms for s in scenarios])
    x_star = np.stack([s.ensemble.global_optimum() for s in scenarios])[:, None, :]
    alphas = np.stack([s.steps.values for s in scenarios])[:, :, None]
    weight = [s.lam.value for s in scenarios]

    def gradients(x):
        return np.einsum("sipq,siq->sip", hess, x) - lin

    init = _squares(monitor.sq_norms(x - x_star))
    norm_by = np.where(init > 0.0, init, 1.0)
    res = init / norm_by
    first = [1 if r <= stop_when_below else None for r in res.tolist()]  # the initial state's row
    g = gradients(x)
    y = lg = np.array([value(1) for value in weight])[:, None, None] * g
    cells, out = list(range(len(scenarios))), [None] * len(scenarios)
    L, E, p = _block_rows(x.size), len(ws.graph.edges), x.shape[2]
    plans, diffs = _plans(ws, p, len(cells)), np.empty(L * x.size)
    # the loop steps and buffers distances; lambda, residuals and leaving cells come per block
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(1, K + 1, L):
            m = min(L, K + 1 - k0)
            lam = np.array([[weight[c](k) for c in cells] for k in range(k0, k0 + m + 1)])
            if (lam[1:] > lam[:-1]).any():
                raise ValueError("gradient-weight schedule must be nonincreasing")
            lam, d = lam[:, :, None, None], diffs[: m * x.size].reshape(m, *x.shape)
            for j, (plan, _) in zip(range(m), plans):
                plan = (*plan[:5], plan[5][: len(cells) * E * p])  # the cells' flat index
                x, y, _, lg, _ = _step("wgt", x, y, lg, plan, alphas, lam[j + 1], gradients)
                np.subtract(x, x_star, out=d[j])
            R = _squares(monitor.sq_norms(d.reshape(-1, *x.shape[1:]))).reshape(m, -1) / norm_by
            diverged = ~np.isfinite(R) | (R > divergence_cap)
            ended = diverged | (R <= stop_when_below)
            for j in np.flatnonzero(ended.any(axis=0)).tolist():  # each at its first such row
                t = int(ended[:, j].argmax())
                r, k = float(R[t, j]), k0 + t
                out[cells[j]] = (None, r, k + 1) if diverged[t, j] else (first[cells[j]] or k + 1, r, None)
            keep = [j for j, c in enumerate(cells) if out[c] is None]  # drop finished and diverged cells
            cells = [cells[j] for j in keep]
            x, y, lg, norm_by, hess, lin, x_star, alphas, res = (
                a[keep] for a in (x, y, lg, norm_by, hess, lin, x_star, alphas, R[-1]))
            if not cells:
                break
    for c, r in zip(cells, res.tolist()):
        out[c] = (first[c], r, None)
    return out


def replay(scenario: Scenario, mode: str, transcript: Transcript) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild the full state trajectory from a transcript.

    Each agent is advanced using only its own state, its own weights and
    gradients, and the recorded incoming messages. The result is bit-exact
    against the recording run because the kernel and summation order are
    identical. Returns (xs, ys) of shape (K + 1, n, p).
    """
    if transcript.mode != mode:
        raise ValueError(f"transcript was recorded in mode {transcript.mode!r}")
    if transcript.graph != scenario.graph:
        raise ValueError("transcript was recorded over a different graph")
    K = transcript.K
    xs = np.empty((K + 1, scenario.graph.n, scenario.ensemble.p))
    ys = np.empty_like(xs)
    for k, (x, y, *_) in enumerate(_trajectory(scenario, mode, K, transcript)):
        xs[k], ys[k] = x, y
    return xs, ys
