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

import enum
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import StabilityError, ValidationError
from .model import (
    Discretization,
    MarketParams,
    Method,
    OptionContract,
    PricingResult,
    _check_domain,
    _check_grid,
    _real,
    _solve_grid,
)
from .oracle import _scored

__all__ = [
    "AlphaProfile",
    "McfdmReport",
    "ThetaConfig",
    "max_stable_dt",
    "solve_mcfdm",
]

logger = logging.getLogger(__name__)


class AlphaProfile(enum.Enum):
    """Local volatility profile alpha(S) used by the convection tuning integral."""

    CONSTANT = "constant"        # alpha(S) = sigma
    PROPORTIONAL = "proportional"  # alpha(S) = sigma * S


@dataclass(frozen=True, slots=True)
class ThetaConfig:
    """Convection tuning configuration.

    ``scaling`` multiplies the tuning factor (1 is neutral, larger enhances
    the convection term, smaller weakens it, 0 disables it). ``normalize``
    selects the normalized factor (default) over the literal cell-integral
    value. ``alpha_profile`` is the shape of alpha(S), whose cell integral of
    1/alpha is evaluated in closed form, so a constant profile normalizes
    to exactly 1.
    """

    scaling: float = 1.0
    normalize: bool = True
    alpha_profile: AlphaProfile = AlphaProfile.CONSTANT

    def __post_init__(self) -> None:
        # scaling 0 is the documented convection-off switch
        object.__setattr__(self, "scaling", _real("scaling", self.scaling, positive=False))
        if not isinstance(self.alpha_profile, AlphaProfile):
            raise ValidationError(f"unknown alpha profile: {self.alpha_profile!r}")


@dataclass(frozen=True, slots=True)
class McfdmReport:
    """Solve result plus, when asked for, the price surface.

    ``surface`` has shape ``(n_time + 1, n_space + 1)``: row 0 is the
    maturity payoff and row ``n_time`` the valuation date. The scheme's
    diagnostics are in ``result.extra``.
    """

    result: PricingResult
    surface: np.ndarray | None = None


def _theta_values(
    market: MarketParams,
    s: np.ndarray,
    ds: float,
    config: ThetaConfig,
) -> np.ndarray:
    """Tuning factor for each cell ``[s - ds/2, s + ds/2]`` (vectorized).

    Literal mode returns ``0.5 / integral(1/alpha)`` over the cell;
    normalized mode divides that by the constant-profile reference
    ``alpha(s) / (2 ds)``. The ``scaling`` multiplier applies in both modes.
    Each cell must lie above S = 0, as those of interior nodes ``i * ds``,
    ``i >= 1``, do.
    """
    # cell is sigma * integral(1/alpha) over the cell, shape is alpha(s) / sigma
    if config.alpha_profile is AlphaProfile.PROPORTIONAL:
        cell, shape = np.log1p(ds / (s - 0.5 * ds)), s
    else:
        cell, shape = np.full_like(s, ds), 1.0
    # scaling multiplies last so k-linearity holds to the bit
    if not config.normalize:
        return config.scaling * (0.5 * market.sigma / cell)
    # literal value divided by the constant-profile reference alpha(s) / (2 ds)
    return config.scaling * (ds / (shape * cell))


def max_stable_dt(
    market: MarketParams,
    disc: Discretization,
    config: ThetaConfig,
) -> float:
    """Largest stable explicit time step over the interior nodes, in [0, inf].

    Returns ``inf`` when nothing constrains the step (at r = 0, when
    sigma^2 S^2 underflows), and ``0.0`` when no step is stable: the bound
    underflows, or r = 0 meets a theta that overflows to inf and the
    convection term 0 * inf is NaN.
    """
    s = disc.nodes()[1:-1]
    ds = disc.ds
    # overflow and NaN are mapped to the bound's ends below
    with np.errstate(over="ignore", invalid="ignore"):
        thetas = _theta_values(market, s, ds, config)
        denom = market.sigma**2 * s**2 + market.r * s * thetas * ds + market.r * ds**2
    worst = float(denom.max())
    if worst == 0.0:
        return math.inf
    if math.isnan(worst):
        return 0.0
    return ds**2 / worst


def solve_mcfdm(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
    config: ThetaConfig = ThetaConfig(),
    *,
    allow_unstable: bool = False,
    keep_surface: bool = False,
) -> McfdmReport:
    """March the explicit scheme from the payoff to the valuation date.

    Parameters
    ----------
    allow_unstable : bool
        Run past the stability bound instead of raising ``StabilityError``.
    keep_surface : bool
        Also return the full price surface.

    Returns
    -------
    McfdmReport
        Pricing result whose ``extra`` carries the CFL margin
        ``dt_max / dt`` (dt = T / n_time) and the oscillation flag (set when
        any interior node exceeds the maximum of its previous-level
        neighborhood by more than ``OSCILLATION_TOLERANCE`` in a single step).
    """
    # before the stability bound, whose arithmetic needs the domain
    _check_domain(contract, market)
    _check_grid(contract, disc)
    t_start = time.perf_counter()
    dt = contract.maturity / disc.n_time
    dt_max = max_stable_dt(market, disc, config)
    if dt > dt_max:
        if not allow_unstable:
            # a bound of 0.0, or one so small that T / dt_max overflows,
            # leaves no time grid that meets it
            steps = contract.maturity / dt_max if dt_max > 0.0 else math.inf
            n_time_min = max(1, math.ceil(steps) - 1) if math.isfinite(steps) else None
            # steps is rounded: its ceiling can be one count past the smallest
            # or one short of it, and past 2^53 counts step by whole floats
            while n_time_min is not None and contract.maturity / n_time_min > dt_max:
                n_time_min = math.ceil(math.nextafter(n_time_min, math.inf))
            raise StabilityError(dt=dt, dt_max=dt_max, n_time_min=n_time_min)
        logger.warning(
            "running past the stability bound: dt=%.3e > dt_max=%.3e", dt, dt_max
        )
    thetas = _theta_values(market, disc.nodes()[1:-1], disc.ds, config)
    price, levels, oscillation = _solve_grid(
        contract, market, disc, thetas, implicit=False, keep_surface=keep_surface
    )
    extra = {
        "theta_scale": config.scaling,
        "theta_mode": "normalized" if config.normalize else "literal",
        "alpha_profile": config.alpha_profile.value,
        "n_space": disc.n_space,
        "n_time": disc.n_time,
        "cfl_margin": dt_max / dt,
        "oscillation": oscillation,
    }
    result = _scored(Method.MCFDM, contract, market, price, t_start, extra)
    return McfdmReport(result=result, surface=levels)
