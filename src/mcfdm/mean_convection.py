"""Explicit finite difference scheme with flux-conserving convection tuning.

The spatial operator combines a central second difference for diffusion with
a convection flux difference scaled by a per-node tuning factor theta(S).
Theta is computed from the exact cell integral of 1/alpha(S) for each alpha
profile; in the default normalized mode it is expressed relative to its
constant-volatility reference, so a constant profile with scaling 1 gives
exactly 1 and reduces the scheme to the classical central stencil, and the
scaling knob cleanly enhances or weakens the convection term.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import StabilityError, ValidationError
from .model import (
    AlphaProfile,
    Discretization,
    MarketParams,
    Method,
    OptionContract,
    PriceSurface,
    PricingResult,
    _boundaries,
    _march,
    _operator,
    payoff,
)
from .oracle import black_scholes_price

__all__ = [
    "McfdmReport",
    "ThetaConfig",
    "max_stable_dt",
    "solve_mcfdm",
    "theta_at",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class ThetaConfig:
    """Convection tuning configuration.

    ``scaling`` multiplies the tuning factor (1 is neutral, larger enhances
    the convection term, smaller weakens it, 0 disables it). ``normalize``
    selects the normalized factor (default) over the literal cell-integral
    value. The cell integral of 1/alpha is evaluated in closed form for each
    ``AlphaProfile``, so a constant profile normalizes to exactly 1.
    """

    scaling: float = 1.0
    normalize: bool = True

    def __post_init__(self) -> None:
        # scaling 0 is the documented convection-off switch
        if not math.isfinite(self.scaling) or self.scaling < 0.0:
            raise ValidationError(f"scaling must be >= 0, got {self.scaling}")


@dataclass(frozen=True, slots=True)
class McfdmReport:
    """Solve result plus scheme diagnostics."""

    result: PricingResult
    theta_values: np.ndarray
    cfl_margin: float
    oscillation: bool
    surface: PriceSurface | None = None


def _theta_values(
    market: MarketParams,
    s: np.ndarray,
    ds: float,
    config: ThetaConfig,
) -> np.ndarray:
    """Tuning factor for each cell center in ``s`` (vectorized)."""
    lo = s - 0.5 * ds
    if float(lo.min()) <= 0.0:
        raise ValidationError("theta cell must lie strictly above S=0")
    # cell is sigma * integral(1/alpha) over the cell, shape is alpha(s) / sigma
    if market.alpha_profile is AlphaProfile.PROPORTIONAL:
        cell, shape = np.log1p(ds / lo), s
    else:
        cell, shape = np.full_like(s, ds), 1.0
    # scaling multiplies last so k-linearity holds to the bit
    if not config.normalize:
        return config.scaling * (0.5 * market.sigma / cell)
    # literal value divided by the constant-profile reference alpha(s) / (2 ds)
    return config.scaling * (ds / (shape * cell))


def theta_at(
    market: MarketParams,
    s: float,
    ds: float,
    config: ThetaConfig,
) -> float:
    """Convection tuning factor for the cell centered at ``s``.

    Literal mode returns ``0.5 / integral(1/alpha)`` over
    ``[s - ds/2, s + ds/2]``; normalized mode divides that by the
    constant-profile reference ``alpha(s) / (2 ds)``. The ``scaling``
    multiplier applies in both modes.
    """
    if ds <= 0.0:
        raise ValidationError(f"ds must be > 0, got {ds}")
    return float(_theta_values(market, np.array([s], dtype=float), ds, config)[0])


def _dt_max(
    market: MarketParams,
    s_interior: np.ndarray,
    thetas: np.ndarray,
    ds: float,
) -> float:
    """Stable explicit step bound shared by the solver and ``max_stable_dt``."""
    denom = (
        market.sigma**2 * s_interior**2
        + market.r * s_interior * thetas * ds
        + market.r * ds**2
    )
    worst = float(denom.max())
    if worst == 0.0:
        return math.inf
    return ds**2 / worst


def max_stable_dt(
    market: MarketParams,
    disc: Discretization,
    config: ThetaConfig,
) -> float:
    """Largest stable explicit time step over the interior nodes.

    Returns ``inf`` when neither diffusion nor convection constrains the
    step (the unconstrained sentinel).
    """
    s_interior = disc.nodes()[1:-1]
    thetas = _theta_values(market, s_interior, disc.ds, config)
    return _dt_max(market, s_interior, thetas, disc.ds)


def solve_mcfdm(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
    config: ThetaConfig = ThetaConfig(),
    *,
    allow_unstable: bool = False,
    keep_surface: bool = False,
    include_convection: bool = True,
) -> McfdmReport:
    """March the explicit scheme from the payoff to the valuation date.

    Parameters
    ----------
    allow_unstable : bool
        Run past the stability bound instead of raising ``StabilityError``.
    keep_surface : bool
        Also return the full price surface.
    include_convection : bool
        Diagnostic switch that removes the convection stencil entirely; a
        ``scaling=0`` configuration must match it exactly.

    Returns
    -------
    McfdmReport
        Pricing result plus per-node theta values, the CFL margin
        ``dt_max / dt``, and the oscillation flag (set when any interior
        node exceeds the maximum of its previous-level neighborhood by more
        than ``OSCILLATION_TOLERANCE`` in a single step).
    """
    t_start = time.perf_counter()
    s = disc.nodes()
    s_interior = s[1:-1]
    thetas = _theta_values(market, s_interior, disc.ds, config)
    dt_max = _dt_max(market, s_interior, thetas, disc.ds)
    if disc.dt > dt_max:
        if not allow_unstable:
            raise StabilityError(
                dt=disc.dt,
                dt_max=dt_max,
                n_time_min=math.ceil(contract.maturity / dt_max),
            )
        logger.warning(
            "running past the stability bound: dt=%.3e > dt_max=%.3e",
            disc.dt,
            dt_max,
        )
    convection_thetas = thetas if include_convection else np.zeros_like(thetas)
    bands = _operator(market, s_interior, convection_thetas, disc.ds)
    v, levels, oscillation = _march(
        payoff(contract, s),
        bands,
        _boundaries(contract, market, disc),
        disc.dt,
        0.0,
        keep_surface=keep_surface,
    )
    price = float(np.interp(contract.spot, s, v))
    elapsed = time.perf_counter() - t_start

    exact = black_scholes_price(contract, market)
    cfl_margin = dt_max / disc.dt
    result = PricingResult(
        method=Method.MCFDM,
        price=price,
        abs_error=abs(price - exact),
        elapsed_seconds=elapsed,
        extra={
            "theta_scale": config.scaling,
            "theta_mode": "normalized" if config.normalize else "literal",
            "alpha_profile": market.alpha_profile.value,
            "n_space": disc.n_space,
            "n_time": disc.n_time,
            "cfl_margin": cfl_margin,
            "oscillation": oscillation,
        },
    )
    surface = PriceSurface(values=levels, disc=disc) if keep_surface else None
    return McfdmReport(
        result=result,
        theta_values=thetas,
        cfl_margin=cfl_margin,
        oscillation=oscillation,
        surface=surface,
    )
