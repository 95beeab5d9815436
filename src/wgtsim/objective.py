"""Local least-squares objectives and their ensemble.

Each agent i holds f_i(x) = ||s_i - S_i x||^2 + r_i ||x||^2, a ridge
least-squares fit of its own observations. The gradient is affine,
grad f_i(x) = 2 S_i^T (S_i x - s_i) + 2 r_i x, so the Hessian
2 (S_i^T S_i + r_i I) is constant and the strong-convexity / smoothness
constants are its extreme eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "QuadraticObjective",
    "ObjectiveEnsemble",
    "make_sensor_scenario",
]


@dataclass
class QuadraticObjective:
    """One agent's ridge least-squares objective."""

    S: np.ndarray  # (d, p) sensing matrix
    s: np.ndarray  # (d,) observation vector
    r: float = 0.0  # ridge coefficient, >= 0

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        if self.S.ndim != 2:
            raise ValueError(f"S must be 2-d, got shape {self.S.shape}")
        d, p = self.S.shape
        if self.s.shape != (d,):
            raise ValueError(f"s has shape {self.s.shape}, expected ({d},)")
        if self.r < 0.0:
            raise ValueError(f"ridge coefficient must be >= 0, got {self.r}")
        self.hessian = 2.0 * (self.S.T @ self.S + self.r * np.eye(p))
        self._lin = 2.0 * (self.S.T @ self.s)
        evals = np.linalg.eigvalsh(self.hessian)
        self.mu = float(evals[0])
        self.L = float(evals[-1])

    @property
    def p(self) -> int:
        return self.S.shape[1]

    def value(self, x: np.ndarray) -> float:
        res = self.s - self.S @ x
        return float(res @ res + self.r * (x @ x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """grad f(x) = 2 S^T (S x - s) + 2 r x, evaluated as Hx - 2 S^T s."""
        return self.hessian @ x - self._lin


class ObjectiveEnsemble:
    """The n local objectives plus the quantities the analysis needs.

    L and mu are the worst-case per-agent smoothness and strong-convexity
    constants; L_hat = n L and mu_hat = n mu bound the aggregate objective
    sum_i f_i.
    """

    def __init__(self, agents: list[QuadraticObjective]):
        if not agents:
            raise ValueError("ensemble needs at least one agent")
        p = agents[0].p
        if any(a.p != p for a in agents):
            raise ValueError("all agents must share the decision dimension p")
        self.agents = list(agents)
        self.n = len(agents)
        self.p = p
        self.hessians = np.stack([a.hessian for a in agents])  # (n, p, p)
        self.linear_terms = np.stack([a._lin for a in agents])  # (n, p)
        self.L = max(a.L for a in agents)
        self.mu = min(a.mu for a in agents)
        self.L_hat = self.n * self.L
        self.mu_hat = self.n * self.mu

    def gradients(self, x: np.ndarray) -> np.ndarray:
        """Stacked gradients: row i is grad f_i(x_i) for x of shape (n, p)."""
        return np.einsum("ipq,iq->ip", self.hessians, x) - self.linear_terms

    def gradients_at_consensus(self, x: np.ndarray) -> np.ndarray:
        """Row i is grad f_i(x) for a single point x of shape (p,)."""
        return np.einsum("ipq,q->ip", self.hessians, x) - self.linear_terms

    def global_optimum(self) -> np.ndarray:
        """Minimizer of sum_i f_i via the stacked normal equations.

        Solves [sum_i (S_i^T S_i + r_i I)] x = sum_i S_i^T s_i and verifies
        first-order stationarity of the result as a relative backward error:
        |sum grad| <= 1e-12 (|H|_2 |x*| + |b|) for the summed system H x = b,
        a bound a backward-stable solve meets at any n and scale.
        """
        H, b = self.hessians.sum(axis=0), self.linear_terms.sum(axis=0)
        x_star = np.linalg.solve(H, b)
        residual = np.linalg.norm(self.gradients_at_consensus(x_star).sum(axis=0))
        if residual > 1e-12 * (np.linalg.norm(H, 2) * np.linalg.norm(x_star) + np.linalg.norm(b)):
            raise NumericalError(f"optimum failed stationarity check: |sum grad| = {residual:.3e}")
        return x_star


def make_sensor_scenario(
    n: int = 6, d: int = 3, p: int = 2, r: float = 0.01, seed: int = 0
) -> ObjectiveEnsemble:
    """Seeded sensing ensemble: s_i = S_i x_true + noise.

    One generator drives all draws, in a fixed documented order: first the
    sensing matrices S_i (uniform on [0, 10], agents in order, entries
    row-major), then the hidden signal x_true (uniform on [0, 1]), then the
    standard normal noise per agent. Same seed, same ensemble, bit for bit.
    """
    if n < 1 or d < 1 or p < 1:
        raise ValueError("n, d, p must all be >= 1")
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.0, 10.0, size=(n, d, p))
    x_true = rng.uniform(0.0, 1.0, size=p)
    noise = rng.standard_normal((n, d))
    obs = np.einsum("idp,p->id", S, x_true) + noise
    return ObjectiveEnsemble([QuadraticObjective(S[i], obs[i], r) for i in range(n)])
