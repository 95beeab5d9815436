"""Exception types shared across the package."""

__all__ = ["ConfigError", "DivergenceError", "NumericalError"]


class ConfigError(ValueError):
    """Invalid configuration: bad file, bad value, or inconsistent sections."""


class DivergenceError(RuntimeError):
    """A run tripped the divergence guard.

    Carries the iteration index and the offending residual so callers can
    report where the trajectory blew up.
    """

    def __init__(self, k: int, residual: float):
        self.k = k
        self.residual = residual
        super().__init__(
            f"divergence guard tripped at iteration {k}: "
            f"relative residual {residual:.6e}"
        )


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its advertised accuracy."""
