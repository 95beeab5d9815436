"""Stochastic weight matrices over a directed graph.

Two matrices drive the dynamics: a row-stochastic A (state mixing; row i is
supported on the in-neighbors of i plus i itself) and a column-stochastic B
(tracker mixing; column i is supported on the out-neighbors of i plus i
itself). Every supported entry is kept at or above a configured floor so the
standard lower bounds on the stationary vectors apply.

Schedules come in two modes. "static" builds the uniform weights once:
1/(deg+1) across each row support of A and each column support of B.
"time-varying" redraws jittered weights at every iteration k by averaging the
uniform weights with a seeded random stochastic matrix on the same pattern,
which preserves pattern, stochasticity, and floors while making A_k, B_k
genuinely time dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .graph import DirectedGraph

__all__ = [
    "WeightSchedule",
    "phi_static",
    "contraction_radii",
]

MODES = ("static", "time-varying")


def _on_supports(graph: DirectedGraph, a_values: np.ndarray, b_values: np.ndarray):
    """(A, B) with a_values laid row by row over A's supports, agent 1 first,
    and b_values column by column over B's."""
    n = graph.n
    (a_flat, a_ptr), (b_flat, b_ptr) = graph.in_supports, graph.out_supports
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    A[np.repeat(np.arange(n), np.diff(a_ptr)), a_flat] = a_values
    B[b_flat, np.repeat(np.arange(n), np.diff(b_ptr))] = b_values
    return A, B


def _random_on_support(support_size: int, floor: float, rng: np.random.Generator) -> np.ndarray:
    """Random stochastic vector of given length with entries >= floor."""
    g = rng.uniform(size=support_size)
    g = g / g.sum()
    return floor + (1.0 - support_size * floor) * g


@dataclass
class WeightSchedule:
    """Weight-matrix generator for a strongly connected digraph.

    a_floor / b_floor lower-bound every supported entry of A_k / B_k. The
    seed only matters in time-varying mode, where (seed, k) fully determines
    the matrices at iteration k.
    """

    graph: DirectedGraph
    mode: str = "static"
    a_floor: float = 0.1
    b_floor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"weight mode {self.mode!r} not in {MODES}")
        if not (self.a_floor > 0.0 and self.b_floor > 0.0):
            raise ConfigError("weight floors must be positive")
        if not self.graph.is_strongly_connected():
            raise ConfigError("weight schedule requires a strongly connected graph")
        # support sizes per agent: A's rows, then B's columns
        self._sizes = [np.diff(ptr) for _, ptr in (self.graph.in_supports, self.graph.out_supports)]
        for name, floor, sizes, line in zip(
            ("a_floor", "b_floor"), (self.a_floor, self.b_floor), self._sizes, ("row", "column")
        ):
            widest = int(sizes.max())
            if floor * widest > 1.0:
                raise ConfigError(f"{name}={floor} infeasible: some {line} has {widest} entries")
        A, B = _on_supports(self.graph, *(np.repeat(1.0 / m, m) for m in self._sizes))
        A.setflags(write=False)
        B.setflags(write=False)
        self._uniform = (A, B)

    def matrices_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(A_k, B_k) for iteration k >= 1. Static mode ignores k."""
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        if self.mode == "static":
            return self._uniform
        # fresh generator per (seed, k): repeat calls are bit-identical
        rng = np.random.default_rng([self.seed, k])
        UA, UB = self._uniform
        a_sizes, b_sizes = self._sizes
        # draw order: A rows for i=1..n, then B columns for i=1..n
        a_values = [_random_on_support(m, self.a_floor, rng) for m in a_sizes.tolist()]
        b_values = [_random_on_support(m, self.b_floor, rng) for m in b_sizes.tolist()]
        A, B = _on_supports(self.graph, np.concatenate(a_values), np.concatenate(b_values))
        A = 0.5 * (UA + A)
        B = 0.5 * (UB + B)
        A.setflags(write=False)
        B.setflags(write=False)
        return A, B

    def pi_sequence(self, K: int) -> np.ndarray:
        """Stationary-tracking vectors pi_1..pi_K, shape (K, n).

        pi_1 is uniform and pi_{k+1} = B_k pi_k, so each pi_k is a
        stochastic vector with entries bounded below by b_floor^n / n.
        """
        if K < 1:
            raise ValueError(f"need K >= 1, got {K}")
        n = self.graph.n
        out = np.empty((K, n))
        pi = np.full(n, 1.0 / n)
        out[0] = pi
        for k in range(1, K):
            _, B = self.matrices_at(k)
            pi = B @ pi
            out[k] = pi
        return out


def phi_static(A: np.ndarray, tol: float = 1e-12, max_iter: int = 100_000) -> np.ndarray:
    """Left stationary vector of a static row-stochastic matrix.

    Power iteration on A^T starting from the uniform vector, normalized to
    sum 1 each sweep. A must be row-stochastic with positive diagonal (which
    together with strong connectivity makes it primitive, so the iteration
    converges to the unique stationary vector).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if np.any(A < 0.0) or np.max(np.abs(A.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("A must be row-stochastic")
    if np.any(np.diag(A) <= 0.0):
        raise ValueError("A must have a positive diagonal")
    phi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = A.T @ phi
        nxt = nxt / nxt.sum()
        if np.abs(nxt - phi).sum() <= tol:
            return nxt
        phi = nxt
    raise NumericalError(f"stationary vector did not converge within {max_iter} sweeps")


def contraction_radii(
    A: np.ndarray, phi: np.ndarray, B: np.ndarray, pi: np.ndarray
) -> tuple[float, float]:
    """Spectral radii of A - 1 phi^T and B - pi 1^T.

    Both are < 1 for admissible static matrices: deflating the stationary
    rank-one part removes the unit eigenvalue and a primitive stochastic
    matrix has all remaining eigenvalues strictly inside the unit circle.
    """
    n = A.shape[0]
    one = np.ones(n)
    rho_a = float(np.max(np.abs(np.linalg.eigvals(A - np.outer(one, phi)))))
    rho_b = float(np.max(np.abs(np.linalg.eigvals(B - np.outer(pi, one)))))
    return rho_a, rho_b
