"""Exception types shared across the pricing library."""

from __future__ import annotations


class McfdmError(Exception):
    """Base class for all library errors."""


class ValidationError(McfdmError, ValueError):
    """An input violates a documented invariant."""


class StabilityError(McfdmError):
    """The requested time step exceeds the explicit scheme's stable bound."""

    def __init__(self, dt: float, dt_max: float, n_time_min: int | None) -> None:
        self.dt = dt
        self.dt_max = dt_max
        self.n_time_min = n_time_min
        remedy = f"use n_time >= {n_time_min} or"
        if n_time_min is None:
            remedy = "no time grid meets the bound; use"
        super().__init__(
            f"time step dt={dt:.6e} exceeds the stable bound dt_max={dt_max:.6e}; "
            f"{remedy} allow_unstable=True"
        )


class SingularSystemError(McfdmError):
    """The implicit step's tridiagonal matrix is singular."""


class QuadratureError(McfdmError):
    """Adaptive quadrature did not converge to the requested tolerance."""

    def __init__(self, message: str, achieved: float) -> None:
        self.achieved = achieved
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
