"""Convergence-theory diagnostics.

The analysis tracks a three-component error vector per iteration: distance
of the weighted mean to the optimum, consensus error, and tracker deviation
from its stationary profile. One iteration multiplies that vector by a
nonnegative 3x3 matrix (plus a forcing term fed by the decrement of the
gradient-weight sequence), so convergence questions reduce to spectral
questions about small matrices.

Matrix norms here are evaluated with spectral-norm surrogates and unit
norm-equivalence constants, so those constants drop out of every bound. That
keeps every inequality a true statement about Euclidean quantities at the
price of slightly different constants than any hand-constructed weighted
norm would give.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .weights import WeightSchedule, phi_static, spectral_radius

__all__ = [
    "ContractionEstimates",
    "metric_vector",
    "error_propagation",
    "limit_propagation",
    "spectral_radius",
    "det_criterion",
    "admissibility_report",
    "AdmissibilityReport",
    "scalar_recursion_bounds",
]

FLAVORS = ("spectral_norm", "spectral_radius")


def sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean (Frobenius) norms of v[0], v[1], ...: the dots
    np.linalg.norm takes the square root of, as one (c, 1, m) @ (c, m, 1)."""
    v = v.reshape(len(v), 1, -1)
    return (v @ v.transpose(0, 2, 1)).ravel()


def norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of v[0], v[1], ...: np.linalg.norm(v[i]) bit for bit."""
    return np.sqrt(sq_norms(v))


def deviations(x: np.ndarray, y: np.ndarray, phi: np.ndarray | None, pi: np.ndarray):
    """(xbar, y_hat, ||x - 1 xbar^T||, ||y - pi y_hat^T||) for each row c of x, y
    (c, n, p) and pi (c, n): xbar the phi-weighted (phi=None: uniform) mean, y_hat the sum."""
    xbar = x.mean(axis=1) if phi is None else phi @ x
    y_hat = y.sum(axis=1)
    return xbar, y_hat, norms(x - xbar[:, None]), norms(y - pi[:, :, None] * y_hat[:, None])


def metric_vector(
    x: np.ndarray, y: np.ndarray, x_star: np.ndarray, phi: np.ndarray | None, pi_k: np.ndarray
) -> tuple[float, float, float]:
    """(s1, s2, s3) for states x, y of shape (n, p): optimality gap of the
    weighted mean, consensus error and tracker deviation, in Euclidean norms;
    the one-row case of deviations.

    phi=None falls back to the uniform average for the mean (the honest
    choice when no stationary left vector is available, e.g. time-varying
    weights).
    """
    xbar, _, s2, s3 = deviations(x[None], y[None], phi, pi_k[None])
    return float(norms(xbar - x_star)[0]), float(s2[0]), float(s3[0])


def _sigma(M: np.ndarray, flavor: str) -> float:
    """Contraction factor of a deflated mixing matrix in the given flavor."""
    if flavor == "spectral_norm":
        return float(np.linalg.norm(M, 2))
    if flavor == "spectral_radius":
        return spectral_radius(M)
    raise ValueError(f"flavor {flavor!r} not in {FLAVORS}")


def _static_terms(A: np.ndarray, phi: np.ndarray, flavor: str) -> dict:
    """The terms fixed by A and its stationary left vector phi."""
    n = A.shape[0]
    return {
        "sigma_A": _sigma(A - np.outer(np.ones(n), phi), flavor),
        "phi_norm": float(np.linalg.norm(phi)),
        "A_norm": float(np.linalg.norm(A, 2)),
        "A_minus_I_norm": float(np.linalg.norm(A - np.eye(n), 2)),
    }


def _step_terms(B: np.ndarray, phi: np.ndarray, pi_k: np.ndarray, pi_next: np.ndarray,
                alphas: np.ndarray, flavor: str) -> dict:
    """The terms of iteration k: B_k against pi_k and pi_{k+1}, and the steps."""
    n = B.shape[0]
    one = np.ones(n)
    alphas = np.asarray(alphas, dtype=float)
    alpha_check = float(alphas.max())
    alpha_tilde = float(phi @ (alphas * pi_k))
    return {
        "sigma_B": _sigma(B - np.outer(pi_k, one), flavor),
        "xi": float(np.linalg.norm(np.eye(n) - np.outer(pi_next, one), 2)),
        "pi_norm": float(np.linalg.norm(pi_k)),
        "alpha_tilde": alpha_tilde,
        "theta": alpha_tilde / alpha_check,
        "alpha_check": alpha_check,
    }


@dataclass(frozen=True)
class ContractionEstimates:
    """Per-iteration contraction and coupling quantities.

    sigma_A / sigma_B measure how strongly mixing shrinks disagreement,
    in the chosen flavor: the spectral norm of the deflated matrix (makes
    the propagation inequality a true Euclidean statement) or its spectral
    radius (always < 1 for admissible static matrices, but only an
    asymptotic contraction factor).
    """

    k: int
    sigma_A: float
    sigma_B: float
    xi: float  # ||I - pi_{k+1} 1^T||
    phi_norm: float
    pi_norm: float
    A_norm: float
    A_minus_I_norm: float
    alpha_tilde: float  # phi^T diag(alpha) pi_k
    theta: float  # alpha_tilde / alpha_check
    alpha_check: float
    flavor: str = "spectral_norm"

    @classmethod
    def compute(
        cls,
        A: np.ndarray,
        B: np.ndarray,
        phi: np.ndarray,
        pi_k: np.ndarray,
        pi_next: np.ndarray,
        alphas: np.ndarray,
        k: int = 1,
        flavor: str = "spectral_norm",
    ) -> "ContractionEstimates":
        static = _static_terms(A, phi, flavor)
        step = _step_terms(B, phi, pi_k, pi_next, alphas, flavor)
        return cls(k=k, **static, **step, flavor=flavor)


def error_propagation(
    est: ContractionEstimates,
    lam_k: float,
    lam_next: float,
    L: float,
    mu_hat: float,
    L_hat: float,
    n: int,
    grad_opt_norm: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One-step bound: s_{k+1} <= M s_k + d componentwise.

    Returns (M, d). Requires alpha_tilde * lam_k <= 2 / (mu_hat + L_hat)
    for the first diagonal entry to be a genuine contraction; a violation
    is flagged with a warning but the matrix is still returned.
    """
    if est.alpha_tilde * lam_k > 2.0 / (mu_hat + L_hat):
        warnings.warn(
            "effective step exceeds 2/(mu_hat + L_hat); the mean-error row "
            "is not a contraction at this iteration",
            RuntimeWarning,
            stacklevel=2,
        )
    rn = np.sqrt(n)
    ac = est.alpha_check
    dlam = lam_k - lam_next
    cross = rn * ac * L * lam_k * lam_next * est.A_norm * est.pi_norm
    M = np.array(
        [
            [
                1.0 - mu_hat * est.alpha_tilde * lam_k,
                rn * L * est.alpha_tilde * lam_k,
                ac * est.phi_norm,
            ],
            [
                ac * L_hat * est.sigma_A * est.pi_norm * lam_k,
                est.sigma_A * (1.0 + rn * ac * L * est.pi_norm * lam_k),
                ac * est.sigma_A,
            ],
            [
                rn * L * est.xi * (cross + dlam),
                L * est.xi * (cross + lam_next * est.A_minus_I_norm + dlam),
                est.sigma_B + ac * L * est.xi * lam_next * est.A_norm,
            ],
        ]
    )
    d = np.array([0.0, 0.0, est.xi * dlam * grad_opt_norm])
    return M, d


def limit_propagation(est: ContractionEstimates) -> np.ndarray:
    """The upper-triangular limit of the propagation matrix as lam -> 0."""
    return np.array(
        [
            [1.0, 0.0, est.alpha_check * est.phi_norm],
            [0.0, est.sigma_A, est.alpha_check * est.sigma_A],
            [0.0, 0.0, est.sigma_B],
        ]
    )


def det_criterion(M: np.ndarray, c_star: float) -> bool:
    """Determinant test for the spectral radius of a small nonnegative matrix.

    For a nonnegative irreducible M whose diagonal entries all lie below
    c_star, the radius satisfies rho(M) < c_star if and only if
    det(c_star I - M) > 0. Only that determinant is evaluated here.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    return bool(np.linalg.det(c_star * np.eye(M.shape[0]) - M) > 0.0)


@dataclass
class AdmissibilityReport:
    """Outcome of the sufficient-condition check over a horizon.

    window_ok[k-1] says whether the ratio of consecutive gradient weights
    stays inside its admissible window at iteration k; window_first_k is
    the first iteration from which the window holds through the horizon.
    alpha_bound is the largest provably safe max step size over that tail
    (None when the window never holds), computed as the minimum of four
    per-iteration terms; binding_term names the minimizer.
    """

    K: int
    flavor: str
    sigma_A: float
    alpha_check: float
    sum_diverges: bool
    lam_description: str
    sigma_B: np.ndarray
    ratio: np.ndarray
    window_lb: np.ndarray
    window_ok: np.ndarray
    margin: np.ndarray  # constant coefficient of the step-size quadratic
    window_first_k: int | None
    alpha_bound: float | None
    binding_term: str | None
    admissible: bool

    TERM_NAMES = (
        "mean_contraction",
        "consensus_coupling",
        "tracker_coupling",
        "quadratic_margin",
    )

    def to_dict(self) -> dict:
        return {
            "horizon": self.K,
            "flavor": self.flavor,
            "sigma_A": self.sigma_A,
            "sigma_B_range": [float(self.sigma_B.min()), float(self.sigma_B.max())],
            "alpha_check": self.alpha_check,
            "lambda": self.lam_description,
            "lambda_sum_diverges": self.sum_diverges,
            "window_violations": int(np.count_nonzero(~self.window_ok)),
            "window_first_k": self.window_first_k,
            "alpha_bound": self.alpha_bound,
            "binding_term": self.binding_term,
            "admissible": self.admissible,
        }


def admissibility_report(
    weights: WeightSchedule,
    ensemble,
    steps,
    lam,
    K: int,
    flavor: str = "spectral_norm",
) -> AdmissibilityReport:
    """Check the sufficient convergence conditions over iterations 1..K.

    Static weights only: the stationary left vector of A anchors the mean.
    Per iteration this evaluates the ratio window for consecutive gradient
    weights and four upper bounds on the max step size; the final bound is
    the minimum over the tail where the window holds. The configured steps
    are judged against that bound. Failing is not fatal for a run (the
    conditions are sufficient, not necessary) and is reported, not raised.
    """
    if weights.mode != "static":
        raise ConfigError("admissibility analysis requires static weights")
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    alphas = np.asarray(getattr(steps, "values", steps), dtype=float)
    A, B = weights.matrices_at(1)
    n = A.shape[0]
    phi = phi_static(A)
    L, mu = ensemble.L, ensemble.mu
    L_hat, mu_hat = ensemble.L_hat, ensemble.mu_hat
    rn = np.sqrt(n)
    static = _static_terms(A, phi, flavor)
    sigma_A, phi_norm, A_norm = static["sigma_A"], static["phi_norm"], static["A_norm"]

    lam_vals = np.array([lam.value(k) for k in range(1, K + 2)])
    pis = weights.pi_sequence(K + 1)
    sigma_B = np.empty(K)
    margin = np.empty(K)
    window_lb = np.empty(K)
    terms = np.full((K, 4), np.inf)

    for k in range(1, K + 1):
        lam_k, lam_next = lam_vals[k - 1], lam_vals[k]
        dlam = lam_k - lam_next
        step = _step_terms(B, phi, pis[k - 1], pis[k], alphas, flavor)
        sB, xk, pn, th = step["sigma_B"], step["xi"], step["pi_norm"], step["theta"]

        quad = (
            n * rn * L**2 * sigma_A * xk * A_norm * pn
            * lam_k**2 * lam_next
            * (L * th + L * phi_norm * pn + mu * th)
        )
        lin = (
            n * L * sigma_A * xk * lam_k * dlam
            * ((L + mu) * th + L * phi_norm * pn)
            + n * L * xk * lam_k * lam_next
            * (
                0.5 * L * phi_norm * (1.0 - sigma_A) * A_norm * pn
                + (L * sigma_A * phi_norm * pn + mu * sigma_A * th) * (A_norm + 1.0)
            )
            + 0.5 * n * rn * L**2 * sigma_A * pn * (1.0 - sB) * th * lam_k**2
        )
        mrg = (
            0.25 * mu_hat * (1.0 - sigma_A) * (1.0 - sB) * th * lam_k
            - 0.5 * rn * L * xk * phi_norm * (1.0 - sigma_A) * dlam
        )

        terms[k - 1, 0] = 2.0 / (th * lam_k * (mu_hat + L_hat))
        terms[k - 1, 1] = (1.0 - sigma_A) / (2.0 * rn * L * sigma_A * lam_k * pn)
        terms[k - 1, 2] = (1.0 - sB) / (2.0 * L * xk * lam_next * A_norm)
        if mrg > 0.0:
            terms[k - 1, 3] = 2.0 * mrg / (lin + np.sqrt(lin**2 + 4.0 * quad * mrg))

        sigma_B[k - 1] = sB
        margin[k - 1] = mrg
        window_lb[k - 1] = 1.0 - rn * mu * (1.0 - sB) * th / (2.0 * L * xk * phi_norm)

    alpha_check = step["alpha_check"]  # max step, the same at every k
    ratio = lam_vals[1:] / lam_vals[:-1]
    window_ok = (margin > 0.0) & (ratio <= 1.0)

    # first k from which the window holds through the full horizon
    failing = np.flatnonzero(~window_ok)
    last_fail = int(failing[-1]) + 1 if failing.size else 0
    window_first_k = last_fail + 1 if last_fail < K else None

    alpha_bound = None
    binding = None
    if window_first_k is not None:
        tail = terms[window_first_k - 1 :]
        flat = int(np.argmin(tail))
        alpha_bound = float(tail.flat[flat])
        binding = AdmissibilityReport.TERM_NAMES[flat % 4]

    return AdmissibilityReport(
        K=K,
        flavor=flavor,
        sigma_A=sigma_A,
        alpha_check=alpha_check,
        sum_diverges=bool(lam.sum_diverges),
        lam_description=lam.describe(),
        sigma_B=sigma_B,
        ratio=ratio,
        window_lb=window_lb,
        window_ok=window_ok,
        margin=margin,
        window_first_k=window_first_k,
        alpha_bound=alpha_bound,
        binding_term=binding,
        admissible=window_first_k is not None and alpha_check < alpha_bound,
    )


def scalar_recursion_bounds(c: float, lam, K: int, r=None):
    """Closed-form pieces of u_{K+1} <= prod * u_1 + sum_i r_i * suffix_i.

    For the scalar recursion u_{k+1} <= (1 - c lam_k) u_k + r_k these are
    the full product prod_{j=1..K} (1 - c lam_j), the plain suffix-product
    sum, and the r-weighted suffix-product sum (None when r is omitted).
    Every factor must be nonnegative; a c lam_k > 1 is a domain error.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    if hasattr(lam, "value"):
        lam_vals = np.array([lam.value(k) for k in range(1, K + 1)])
    else:
        lam_vals = np.asarray(lam, dtype=float)
        if lam_vals.shape != (K,):
            raise ValueError(f"lambda values have shape {lam_vals.shape}, expected ({K},)")
    factors = 1.0 - c * lam_vals
    if np.any(factors < 0.0):
        k_bad = int(np.argmax(factors < 0.0)) + 1
        raise ValueError(f"1 - c*lambda_k is negative at k={k_bad}")
    # suffix[i] = prod_{j > i} factors[j], with the empty product equal to 1
    suffix = np.ones(K)
    if K > 1:
        suffix[:-1] = np.cumprod(factors[::-1])[:-1][::-1]
    product = float(factors[0] * suffix[0])
    tail_sum = float(suffix.sum())
    weighted = None
    if r is not None:
        r_vals = np.asarray(r, dtype=float)
        if r_vals.shape != (K,):
            raise ValueError(f"r has shape {r_vals.shape}, expected ({K},)")
        weighted = float(suffix @ r_vals)
    return product, tail_sum, weighted
