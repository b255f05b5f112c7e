"""Domain types, payoffs, grid construction, and the finite-difference march
shared by every grid solver."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularSystemError, ValidationError

__all__ = [
    "AlphaProfile",
    "Discretization",
    "MarketParams",
    "Method",
    "OptionContract",
    "OptionKind",
    "PriceSurface",
    "PricingResult",
    "build_grid",
    "payoff",
]

# relative slack for floating-point grid consistency checks
_REL_TOL = 1e-9

# single-step excess over the neighborhood maximum that counts as oscillation
OSCILLATION_TOLERANCE = 1e-9


class OptionKind(enum.Enum):
    CALL = "call"
    PUT = "put"


class AlphaProfile(enum.Enum):
    """Local volatility profile alpha(S) used by the convection tuning integral."""

    CONSTANT = "constant"        # alpha(S) = sigma
    PROPORTIONAL = "proportional"  # alpha(S) = sigma * S


class Method(enum.Enum):
    MCFDM = "MCFDM"
    CFDM = "CFDM"
    MONTE_CARLO = "MonteCarlo"
    EXACT = "Exact"


@dataclass(frozen=True, slots=True)
class MarketParams:
    """Risk-free rate, volatility, and the local volatility profile alpha(S).

    Parameters
    ----------
    r : float
        Risk-free rate per year. Must be nonnegative.
    sigma : float
        Volatility per square-root year. Must be positive.
    alpha_profile : AlphaProfile
        Shape of alpha(S); only enters the convection tuning factor.
    """

    r: float
    sigma: float
    alpha_profile: AlphaProfile = AlphaProfile.CONSTANT

    def __post_init__(self) -> None:
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValidationError(f"r must be finite and >= 0, got {self.r}")
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ValidationError(f"sigma must be finite and > 0, got {self.sigma}")
        if not isinstance(self.alpha_profile, AlphaProfile):
            raise ValidationError(f"unknown alpha profile: {self.alpha_profile!r}")


@dataclass(frozen=True, slots=True)
class OptionContract:
    kind: OptionKind
    strike: float
    maturity: float
    spot: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, OptionKind):
            raise ValidationError(f"unknown option kind: {self.kind!r}")
        for name in ("strike", "maturity", "spot"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValidationError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True, slots=True)
class Discretization:
    """Uniform price/time grid: nodes S_i = i*ds for i in 0..n_space, steps of dt."""

    s_max: float
    n_space: int
    n_time: int
    ds: float
    dt: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_space, int) or self.n_space < 4:
            raise ValidationError(f"n_space must be an int >= 4, got {self.n_space}")
        if not isinstance(self.n_time, int) or self.n_time < 1:
            raise ValidationError(f"n_time must be an int >= 1, got {self.n_time}")
        if not math.isfinite(self.s_max) or self.s_max <= 0.0:
            raise ValidationError(f"s_max must be finite and > 0, got {self.s_max}")
        if not math.isfinite(self.ds) or self.ds <= 0.0:
            raise ValidationError(f"ds must be finite and > 0, got {self.ds}")
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise ValidationError(f"dt must be finite and > 0, got {self.dt}")
        if abs(self.ds * self.n_space - self.s_max) > _REL_TOL * max(1.0, self.s_max):
            raise ValidationError(
                f"inconsistent grid: ds*n_space={self.ds * self.n_space!r} "
                f"but s_max={self.s_max!r}"
            )

    def nodes(self) -> np.ndarray:
        return np.arange(self.n_space + 1) * self.ds


@dataclass(frozen=True, slots=True)
class PriceSurface:
    """Option values on the grid, one row per backward-time level.

    ``values[0]`` is the maturity payoff and ``values[n_time]`` the valuation
    date.
    """

    values: np.ndarray
    disc: Discretization

    def __post_init__(self) -> None:
        expected = (self.disc.n_time + 1, self.disc.n_space + 1)
        if self.values.shape != expected:
            raise ValidationError(
                f"surface shape {self.values.shape} does not match grid {expected}"
            )


@dataclass(frozen=True, slots=True)
class PricingResult:
    """Price at (S0, valuation date) plus error, timing, and method metadata."""

    method: Method
    price: float
    abs_error: float
    elapsed_seconds: float
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.abs_error < 0.0:
            raise ValidationError(f"abs_error must be >= 0, got {self.abs_error}")
        if self.elapsed_seconds < 0.0:
            raise ValidationError(
                f"elapsed_seconds must be >= 0, got {self.elapsed_seconds}"
            )


def payoff(contract: OptionContract, s):
    """Terminal payoff at price level(s) ``s``.

    Accepts a scalar or an array; returns the same shape. Negative price
    levels are rejected.
    """
    arr = np.asarray(s, dtype=float)
    if arr.size and float(arr.min()) < 0.0:
        raise ValidationError("price level must be >= 0")
    if contract.kind is OptionKind.CALL:
        out = np.maximum(arr - contract.strike, 0.0)
    else:
        out = np.maximum(contract.strike - arr, 0.0)
    if np.ndim(s) == 0:
        return float(out)
    return out


def _operator(
    market: MarketParams,
    s_interior: np.ndarray,
    thetas: np.ndarray,
    ds: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands (lower, center, upper) of the Black-Scholes spatial operator L.

    At each interior node, L v = d (v+ - 2 v + v-) + c (v+ - v-) - r v with
    diffusion d = sigma^2 S^2 / (2 ds^2) and convection c = r S theta / (2 ds):
    the central flux difference of the convection term, scaled by the
    per-node fitting factor ``thetas`` (ones give the classical stencil).
    """
    diffusion = 0.5 * market.sigma**2 * s_interior**2 / ds**2
    convection = market.r * s_interior * thetas / (2.0 * ds)
    return diffusion - convection, -2.0 * diffusion - market.r, diffusion + convection


def _boundaries(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet values at S = 0 and S = s_max for tau = dt, 2 dt, ..., T.

    Calls are worthless at S = 0 and worth ``s_max - K exp(-r tau)`` at the
    truncation; puts mirror this. Entry ``n - 1`` belongs to level ``n``.
    """
    discounts = np.exp(-market.r * np.arange(1, disc.n_time + 1) * disc.dt)
    discounted_strike = contract.strike * discounts
    zeros = np.zeros_like(discounts)
    if contract.kind is OptionKind.CALL:
        return zeros, disc.s_max - discounted_strike
    return discounted_strike, zeros


def _march(
    level: np.ndarray,
    bands: tuple[np.ndarray, np.ndarray, np.ndarray],
    boundaries: tuple[np.ndarray, np.ndarray],
    dt: float,
    time_weight: float,
    *,
    keep_surface: bool,
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """March (I - w dt L) v_n = (I + (1 - w) dt L) v_{n-1} from ``level``.

    ``bands`` are the operator bands from :func:`_operator`, ``boundaries``
    the Dirichlet values from :func:`_boundaries` (one entry per step), and
    ``w`` is the time weight: 0 is the explicit step, 1/2 is Crank-Nicolson.
    The implicit matrix is the same at every step, so it is factored once.

    Returns the last level, the surface of all levels (``None`` unless
    ``keep_surface``) and the oscillation flag. The flag is the explicit
    step's maximum-principle check, set when an interior node exceeds the
    maximum of its previous-level neighborhood by more than
    ``OSCILLATION_TOLERANCE``. An implicit step is not a weighted average of
    that neighborhood, so it skips the check and the flag reads False.
    """
    lower, center, upper = bands
    bc_lower, bc_upper = boundaries
    explicit_dt = (1.0 - time_weight) * dt
    e_lower = explicit_dt * lower
    e_center = 1.0 + explicit_dt * center
    e_upper = explicit_dt * upper
    implicit = time_weight > 0.0
    if implicit:
        # loaded here so that the explicit scheme never pays for
        # scipy.linalg; timed callers load it before their clock starts
        from scipy.linalg.lapack import dgttrf, dgttrs

        implicit_dt = time_weight * dt
        i_lower = implicit_dt * lower
        i_upper = implicit_dt * upper
        *factors, info = dgttrf(
            -i_lower[1:], 1.0 - implicit_dt * center, -i_upper[:-1]
        )
        if info != 0:
            raise SingularSystemError(
                f"implicit matrix is singular (LAPACK dgttrf info={info})"
            )
    v = level
    levels = np.empty((bc_lower.size + 1, v.size)) if keep_surface else None
    if keep_surface:
        levels[0] = v
    oscillation = False
    for n in range(bc_lower.size):
        interior = e_lower * v[:-2] + e_center * v[1:-1] + e_upper * v[2:]
        if implicit:
            interior[0] += i_lower[0] * bc_lower[n]
            interior[-1] += i_upper[-1] * bc_upper[n]
            interior, _ = dgttrs(*factors, interior)
        else:
            neighborhood = np.maximum(np.maximum(v[:-2], v[1:-1]), v[2:])
            if float((interior - neighborhood).max()) > OSCILLATION_TOLERANCE:
                oscillation = True
        out = np.empty_like(v)
        out[0], out[-1] = bc_lower[n], bc_upper[n]
        out[1:-1] = interior
        v = out
        if keep_surface:
            levels[n + 1] = v
    return v, levels, oscillation


def build_grid(
    contract: OptionContract,
    n_space: int = 100,
    n_time: int = 1000,
    s_max: float | str = "auto",
) -> Discretization:
    """Build a uniform grid for the contract.

    The ``"auto"`` policy targets ``4 * max(spot, strike)`` and then nudges
    ``ds`` (keeping ``n_space`` intervals) so the spot falls exactly on a
    node whenever an interior node index exists for it; solvers interpolate
    linearly when it does not. An explicit ``s_max`` is used as given and
    must exceed ``max(spot, strike)``.
    """
    if not isinstance(n_space, int) or n_space < 4:
        raise ValidationError(f"n_space must be an int >= 4, got {n_space}")
    if not isinstance(n_time, int) or n_time < 1:
        raise ValidationError(f"n_time must be an int >= 1, got {n_time}")
    anchor = max(contract.spot, contract.strike)
    if s_max == "auto":
        target = 4.0 * anchor
        ds = target / n_space
        node = round(contract.spot / ds)
        if 0 < node < n_space:
            ds = contract.spot / node
        grid_max = ds * n_space
    else:
        grid_max = float(s_max)
        if not math.isfinite(grid_max) or grid_max <= anchor:
            raise ValidationError(
                f"s_max must exceed max(spot, strike)={anchor}, got {s_max}"
            )
        ds = grid_max / n_space
    return Discretization(
        s_max=grid_max,
        n_space=n_space,
        n_time=n_time,
        ds=ds,
        dt=contract.maturity / n_time,
    )
