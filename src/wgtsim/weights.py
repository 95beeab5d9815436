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

import contextlib
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
        n = self.graph.n
        (a_flat, a_ptr), (b_flat, b_ptr) = self.graph.in_supports, self.graph.out_supports
        # support sizes per agent: A's rows, then B's columns
        a_sizes, b_sizes = np.diff(a_ptr), np.diff(b_ptr)
        for name, floor, sizes, line in zip(
            ("a_floor", "b_floor"), (self.a_floor, self.b_floor), (a_sizes, b_sizes), ("row", "column")
        ):
            widest = int(sizes.max())
            if floor * widest > 1.0:
                raise ConfigError(f"{name}={floor} infeasible: some {line} has {widest} entries")
        # every supported entry in draw order (A rows for i=1..n, then B
        # columns for i=1..n) with its flat position in an n x n matrix
        self._positions = (
            np.repeat(np.arange(n), a_sizes) * n + a_flat,
            b_flat * n + np.repeat(np.arange(n), b_sizes),
        )
        sizes = np.concatenate((a_sizes, b_sizes))
        entry_sizes = np.repeat(sizes, sizes)
        self._uniform_values = 1.0 / entry_sizes
        self._floors = np.repeat((self.a_floor, self.b_floor), (a_flat.size, b_flat.size))
        self._scales = 1.0 - entry_sizes * self._floors
        # the supports of each size m as a (count, m) index into one draw; a
        # row sum over it adds in the order g.sum() uses on one support
        # (np.add.reduceat does not, so its sums differ in the last bit)
        starts = np.cumsum(sizes) - sizes
        self._groups = [starts[sizes == m][:, None] + np.arange(m) for m in np.unique(sizes)]
        self._uniform = self._dense(self._uniform_values)

    def _dense(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (A, B) holding values, in draw order, on their supports."""
        n = self.graph.n
        mats = np.zeros((n, n)), np.zeros((n, n))
        for M, pos, part in zip(mats, self._positions, np.split(values, [self._positions[0].size])):
            M.put(pos, part)
            M.setflags(write=False)
        return mats

    def matrices_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(A_k, B_k) for iteration k >= 1. Static mode ignores k."""
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        if self.mode == "static":
            return self._uniform
        # fresh generator per (seed, k): repeat calls are bit-identical. One
        # uniform draw returns the stream that one draw per support would.
        u = np.random.default_rng([self.seed, k]).uniform(size=self._floors.size)
        g = np.empty_like(u)
        for idx in self._groups:
            part = u[idx]
            g[idx] = part / part.sum(axis=1, keepdims=True)
        # each support: a random stochastic vector with entries >= floor,
        # averaged with the uniform weights
        return self._dense(0.5 * (self._uniform_values + (self._floors + self._scales * g)))

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


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float)))))


def phi_static(A: np.ndarray, tol: float = 1e-12, max_iter: int = 10_000) -> np.ndarray:
    """Left stationary vector of a static row-stochastic matrix.

    Power iteration on A^T starting from the uniform vector, normalized to
    sum 1 each sweep. A must be row-stochastic with positive diagonal (which
    together with strong connectivity makes it primitive, so the iteration
    converges to the unique stationary vector). Slow mixing (long rings) leaves
    max_iter sweeps short: then a direct solve, accepted if positive with
    ||A^T phi - phi||_1 <= tol.
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
    M = A.T - np.eye(n)
    M[-1] = 1.0  # the last equation, implied by the others, gives way to 1^T phi = 1
    with contextlib.suppress(np.linalg.LinAlgError):
        phi = np.linalg.solve(M, np.eye(n)[-1])
    if phi.min() > 0.0 and np.abs(A.T @ phi - phi).sum() <= tol:
        return phi
    raise NumericalError(f"stationary vector: {max_iter} sweeps and the direct solve fell short")


def contraction_radii(
    A: np.ndarray, phi: np.ndarray, B: np.ndarray, pi: np.ndarray
) -> tuple[float, float]:
    """Spectral radii of A - 1 phi^T and B - pi 1^T.

    Both are < 1 for admissible static matrices: deflating the stationary
    rank-one part removes the unit eigenvalue and a primitive stochastic
    matrix has all remaining eigenvalues strictly inside the unit circle.
    """
    one = np.ones(A.shape[0])
    return spectral_radius(A - np.outer(one, phi)), spectral_radius(B - np.outer(pi, one))
