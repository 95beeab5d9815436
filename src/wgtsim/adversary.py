"""Attacker models evaluated against recorded message transcripts.

Two threat models are covered. An eavesdropper reads every message on every
channel and sums an agent's net tracker outflow over time; under baseline
tracking that running sum converges to the agent's private gradient at the
optimum, while under weighted tracking it converges to zero. An
honest-but-curious neighbor additionally knows the update protocol and can
stack the update equations of a victim whose entire neighborhood it
controls; the audits build those stacked linear systems and measure how
underdetermined they are.

Everything here is read-only over transcripts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .engine import Transcript

__all__ = [
    "z_stream",
    "AttackReport",
    "infer_gradient",
    "TwoAgentObservations",
    "AuditReport",
    "audit_state_system",
    "audit_gradient_system",
]

_TRUE_GRADIENT_FLOOR = 1e-12
_BLOCK_ROWS = 4096


def z_stream(transcript: Transcript, i: int) -> np.ndarray:
    """Net tracker outflow of agent i per iteration, shape (K, p).

    Computed purely from on-channel tracker messages: the sum of what i
    sent minus the sum of what i received. Self-weighted tracker terms
    never cross a channel and so never enter. The sums are taken
    _BLOCK_ROWS iterations at a time, so that no temporary grows with K.
    """
    if transcript.K < 1:
        raise ValueError("transcript is empty; nothing to observe")
    sent, received = transcript.graph.out_edge_indices(i), transcript.graph.in_edge_indices(i)
    z = np.empty((transcript.K, transcript.p))
    for start in range(0, transcript.K, _BLOCK_ROWS):
        rows = transcript.y_msgs[start : start + _BLOCK_ROWS]
        # each edge's slice added to 0 in edge order: rows[:, edges, :].sum(axis=1), uncopied
        z[start : start + _BLOCK_ROWS] = sum(rows[:, e] for e in sent) - sum(rows[:, e] for e in received)
    return z


@dataclass
class AttackReport:
    """Outcome of a transcript-based gradient-inference attempt.

    inferred_gradient is the attacker's estimate (the summed net outflow).
    conclusive reflects the attacker's own convergence detector: the run is
    only trusted if the last `window` iterations moved every message by
    less than the stabilization tolerance. relative_error compares against
    the victim's true gradient at its final iterate when that oracle is
    available; if the true gradient is numerically zero the error is
    reported in absolute terms and flagged.
    """

    target: int
    mode: str
    iterations: int
    inferred_gradient: np.ndarray
    conclusive: bool
    max_recent_message_delta: float
    stabilization_tol: float
    window: int
    true_gradient_at_final: np.ndarray | None = None
    relative_error: float | None = None
    error_is_absolute: bool = False

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["inferred_gradient"] = [float(v) for v in self.inferred_gradient]
        d["inferred_norm"] = float(np.linalg.norm(self.inferred_gradient))
        if self.true_gradient_at_final is not None:
            d["true_gradient_at_final"] = [float(v) for v in self.true_gradient_at_final]
        return d


def infer_gradient(
    transcript: Transcript,
    target: int,
    *,
    final_state=None,
    ensemble=None,
    stabilization_tol: float = 1e-10,
    window: int = 50,
) -> AttackReport:
    """Eavesdropper attack: sum agent `target`'s net tracker outflow.

    The attacker cannot see states, so convergence is judged from the
    channel itself: the attack is conclusive only when no message moved by
    more than stabilization_tol over the last `window` iterations. The
    tolerance is configurable because message deltas shrink much more
    slowly under a vanishing gradient-weight sequence than under baseline
    tracking.

    final_state and ensemble are evaluation-only oracles (the attacker has
    neither); when both are given the report carries the victim's true
    gradient at its final iterate and the error of the estimate.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    K = transcript.K
    inferred = z_stream(transcript, target).sum(axis=0)

    if K >= 2:
        tail_x = transcript.x_msgs[-(window + 1):]
        tail_y = transcript.y_msgs[-(window + 1):]
        max_delta = max(
            float(np.abs(np.diff(tail_x, axis=0)).max()),
            float(np.abs(np.diff(tail_y, axis=0)).max()),
        )
    else:
        max_delta = float("inf")
    conclusive = K >= window + 1 and max_delta < stabilization_tol

    report = AttackReport(
        target=target,
        mode=transcript.mode,
        iterations=K,
        inferred_gradient=inferred,
        conclusive=conclusive,
        max_recent_message_delta=max_delta,
        stabilization_tol=stabilization_tol,
        window=window,
    )
    if final_state is not None and ensemble is not None:
        true_g = ensemble.gradients(final_state.x)[target - 1]
        diff = float(np.linalg.norm(inferred - true_g))
        true_norm = float(np.linalg.norm(true_g))
        report.true_gradient_at_final = true_g
        if true_norm < _TRUE_GRADIENT_FLOOR:
            report.relative_error = diff
            report.error_is_absolute = True
        else:
            report.relative_error = diff / true_norm
    return report


@dataclass(frozen=True)
class TwoAgentObservations:
    """What an attacker controlling a victim's whole neighborhood sees.

    In the worst-case reduction the victim (honest agent) exchanges
    messages with a single counterparty that is both an eavesdropper and a
    protocol-aware participant. Per iteration k the four observed vectors
    are the victim's outgoing state message (its state after applying its
    private step to its tracker), the attacker's own outgoing state
    message, and the two column-weighted tracker messages.
    """

    honest: int
    attacker: int
    K: int
    p: int
    x_from_honest: np.ndarray  # (K, p)
    x_from_attacker: np.ndarray  # (K, p)
    y_from_honest: np.ndarray  # (K, p)
    y_from_attacker: np.ndarray  # (K, p)

    @classmethod
    def from_transcript(
        cls, transcript: Transcript, honest: int, attacker: int
    ) -> "TwoAgentObservations":
        if transcript.mode != "wgt":
            raise ValueError(
                "the reduction models the weighted-tracking protocol; "
                f"transcript was recorded in mode {transcript.mode!r}"
            )
        if honest == attacker:
            raise ValueError("honest agent and attacker must differ")
        if transcript.K < 1:
            raise ValueError("transcript is empty; nothing to observe")
        graph = transcript.graph
        src, dst = graph.edge_index_arrays()
        out_idx, in_idx = graph.out_edge_indices(honest), graph.in_edge_indices(honest)
        if attacker - 1 not in dst[out_idx] or attacker - 1 not in src[in_idx]:
            raise ValueError(
                f"transcript has no bidirectional channel between {honest} and {attacker}"
            )
        if out_idx.size + in_idx.size != 2:
            raise ValueError(
                f"agent {honest} has channels beyond agent {attacker}; "
                "the worst-case reduction needs the attacker to cover its whole neighborhood"
            )
        (idx_ha,), (idx_ah,) = out_idx, in_idx
        return cls(
            honest=honest,
            attacker=attacker,
            K=transcript.K,
            p=transcript.p,
            x_from_honest=transcript.x_msgs[:, idx_ha, :],
            x_from_attacker=transcript.x_msgs[:, idx_ah, :],
            y_from_honest=transcript.y_msgs[:, idx_ha, :],
            y_from_attacker=transcript.y_msgs[:, idx_ah, :],
        )


@dataclass
class AuditReport:
    """Size and rank accounting for one stacked attacker system.

    nullity is the dimension of the solution set of the stacked linear
    system (unknowns minus rank); any positive value means the attacker's
    data admits infinitely many consistent explanations. method records
    whether the rank came from the block structure alone ("structural") or
    from a rank computation on observed numbers ("numeric").
    consistency_residual, when set, is the max-norm defect of the true run
    values plugged into the system.
    """

    system: str
    K: int
    p: int
    equations: int
    unknowns: int
    rank: int
    nullity: int
    method: str
    consistency_residual: float | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _audit(
    system: str,
    K: int,
    p: int,
    K_min: int,
    equations: int,
    unknowns: int,
    observations: TwoAgentObservations | None,
    truth: tuple[np.ndarray, ...] | None,
    truth_shapes: tuple[tuple[int, ...], ...],
    build,
) -> AuditReport:
    """Rank accounting shared by both audits.

    Without observations the rank is the structural one, equations.
    Otherwise build() returns the stacked system (M, rhs) and the rank is
    computed from M; truth, arrays of truth_shapes stacked in the order of
    M's unknowns, gives the consistency residual.
    """
    if K < K_min:
        raise ValueError(f"{system} audit needs K >= {K_min}, got {K}")
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if observations is None:
        if truth is not None:
            raise ValueError("a consistency check needs observations")
        return AuditReport(system, K, p, equations, unknowns, equations, unknowns - equations,
                           "structural")
    if observations.K < K or observations.p != p:
        raise ValueError(
            f"observations cover K={observations.K}, p={observations.p}; "
            f"audit needs K={K}, p={p}"
        )
    M, rhs = build()
    rank = int(np.linalg.matrix_rank(M))
    residual = None
    if truth is not None:
        parts = [np.asarray(t, dtype=float) for t in truth]
        shapes = tuple(t.shape for t in parts)
        if shapes != truth_shapes:
            raise ValueError(f"truth shapes {shapes}; expected {truth_shapes}")
        u = np.concatenate([t.ravel() for t in parts])
        residual = float(np.abs(M @ u - rhs).max())
    return AuditReport(system, K, p, equations, unknowns, rank, unknowns - rank, "numeric",
                       residual)


def _state_system_matrices(
    K: int, p: int, obs: TwoAgentObservations
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked system over unknowns [victim states 2..K, mixing weights 1..K-1]."""
    blocks = K - 1
    M = np.zeros((blocks * p, blocks * (p + 1)))
    rhs = np.empty(blocks * p)
    for k in range(1, blocks + 1):
        r = (k - 1) * p
        M[r : r + p, r : r + p] = np.eye(p)
        M[r : r + p, blocks * p + (k - 1)] = -(
            obs.x_from_attacker[k - 1] - obs.x_from_honest[k - 1]
        )
        rhs[r : r + p] = obs.x_from_honest[k - 1]
    return M, rhs


def audit_state_system(
    K: int,
    p: int,
    observations: TwoAgentObservations | None = None,
    truth: tuple[np.ndarray, np.ndarray] | None = None,
) -> AuditReport:
    """Audit the attacker's system for the victim's intermediate states.

    Over a K-iteration horizon the attacker relates each next state of the
    victim to observed state messages, with the victim's mixing weight per
    iteration unknown: (K-1)p equations in (K-1)(p+1) unknowns (the states
    at iterations 2..K plus K-1 weights). Each block carries an identity
    sub-block, so the rank is (K-1)p regardless of the observed numbers
    and the solution set has dimension at least K-1.

    With observations the rank is recomputed numerically from the actual
    stacked matrix. truth = (states, weights) — the victim's real states
    at iterations 2..K, shape (K-1, p), and its real mixing weights, shape
    (K-1,) — yields the consistency residual of the genuine trajectory.
    """
    blocks = K - 1
    return _audit(
        "state", K, p, 2, blocks * p, blocks * (p + 1), observations, truth,
        ((blocks, p), (blocks,)), lambda: _state_system_matrices(K, p, observations),
    )


def _gradient_system_matrices(
    K: int, p: int, obs: TwoAgentObservations, lam, y_final: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked system over unknowns [trackers 2..K, gradients 2..K+1].

    The tracker at iteration K+1 sits on the known side: a converged run
    pins it (the attacker takes it as zero, y_final=None; a consistency
    check passes the real value).
    """
    if lam is None:
        raise ValueError("numeric gradient audit needs the gradient-weight schedule")
    y_final = np.zeros(p) if y_final is None else np.asarray(y_final, dtype=float)
    if y_final.shape != (p,):
        raise ValueError(f"final tracker has shape {y_final.shape}, expected ({p},)")
    n_y = K - 1
    M = np.zeros((K * p, (n_y + K) * p))
    rhs = np.empty(K * p)

    def y_col(j: int) -> int:  # tracker at iteration j, 2 <= j <= K
        return (j - 2) * p

    def g_col(j: int) -> int:  # gradient at iteration j, 2 <= j <= K+1
        return (n_y + j - 2) * p

    eye = np.eye(p)
    for k in range(1, K + 1):
        r = (k - 1) * p
        c = obs.y_from_attacker[k - 1] - obs.y_from_honest[k - 1]
        if k >= 2:
            M[r : r + p, y_col(k) : y_col(k) + p] -= eye
            M[r : r + p, g_col(k) : g_col(k) + p] += lam.value(k) * eye
        M[r : r + p, g_col(k + 1) : g_col(k + 1) + p] -= lam.value(k + 1) * eye
        if k <= K - 1:
            M[r : r + p, y_col(k + 1) : y_col(k + 1) + p] += eye
            rhs[r : r + p] = c
        else:
            rhs[r : r + p] = c - y_final
    return M, rhs


def audit_gradient_system(
    K: int,
    p: int,
    observations: TwoAgentObservations | None = None,
    lam=None,
    y_final: np.ndarray | None = None,
    truth: tuple[np.ndarray, np.ndarray] | None = None,
) -> AuditReport:
    """Audit the attacker's system for the victim's gradients.

    Chaining the victim's tracker update over K iterations (with the
    initial tracker eliminated through its known scaling) gives Kp
    equations in (2K-1)p unknowns: the trackers at iterations 2..K and the
    gradients at iterations 2..K+1. Each block introduces a fresh unknown
    with an invertible coefficient, so the rank is Kp and the solution set
    has dimension at least (K-1)p.

    The numeric path needs observations, the gradient-weight schedule, and
    a value for the tracker at iteration K+1 (defaults to zero — what an
    attacker assumes of a converged run). truth = (trackers, gradients)
    with shapes (K-1, p) and (K, p) — the victim's real trackers at
    iterations 2..K and gradients at 2..K+1 — yields the consistency
    residual; pass the real final tracker as y_final to make the genuine
    trajectory exactly consistent.
    """
    return _audit(
        "gradient", K, p, 1, K * p, (2 * K - 1) * p, observations, truth,
        ((K - 1, p), (K, p)), lambda: _gradient_system_matrices(K, p, observations, lam, y_final),
    )
