"""Closed-form European prices and the standard normal CDF.

This module is the error reference for every numerical method in the
package, plus an independent brute-force check of the closed form via
quadrature against the lognormal terminal density.
"""

from __future__ import annotations

import math

from .errors import QuadratureError, ValidationError
from .model import MarketParams, OptionContract, OptionKind

__all__ = [
    "black_scholes_price",
    "risk_neutral_integral_price",
    "std_normal_cdf",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# standard normal mass beyond |z| = 40 underflows double precision
_Z_CUTOFF = 40.0

# absolute and relative tolerance of the quadrature
_TOLERANCE = 1e-10


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF N(x).

    Evaluated through the complementary error function, with absolute
    accuracy near machine precision (well below 1e-12).
    """
    if not math.isfinite(x):
        raise ValidationError(f"x must be finite, got {x}")
    return 0.5 * math.erfc(-x / _SQRT2)


def black_scholes_price(
    contract: OptionContract,
    market: MarketParams,
) -> float:
    """Closed-form European option price.

    Call price ``S0*N(d1) - K*exp(-rT)*N(d2)`` with
    ``d1 = (ln(S0/K) + (r + sigma^2/2) T) / (sigma sqrt(T))`` and
    ``d2 = d1 - sigma sqrt(T)``; the put uses the mirrored formula.
    """
    s0, k, t = contract.spot, contract.strike, contract.maturity
    r, sigma = market.r, market.sigma
    vol = sigma * math.sqrt(t)
    d1 = (math.log(s0 / k) + (r + 0.5 * sigma * sigma) * t) / vol
    d2 = d1 - vol
    df_strike = k * math.exp(-r * t)
    if contract.kind is OptionKind.CALL:
        return s0 * std_normal_cdf(d1) - df_strike * std_normal_cdf(d2)
    return df_strike * std_normal_cdf(-d2) - s0 * std_normal_cdf(-d1)


def risk_neutral_integral_price(
    contract: OptionContract,
    market: MarketParams,
) -> float:
    """Discounted expected payoff by adaptive quadrature.

    Integrates the payoff against the lognormal law of the terminal price,
    substituting ``S_T = S0 exp((r - sigma^2/2) T + sigma sqrt(T) z)`` so the
    integrand is smooth in the standard normal variable z on one side of the
    strike. Serves as an independent check of :func:`black_scholes_price`.
    """
    # imported here so that ``import mcfdm`` does not pay for scipy.integrate
    from scipy.integrate import quad

    s0, k, t = contract.spot, contract.strike, contract.maturity
    r, sigma = market.r, market.sigma
    mu = (r - 0.5 * sigma * sigma) * t
    vol = sigma * math.sqrt(t)
    z_kink = (math.log(k / s0) - mu) / vol

    # both legs keep the Gaussian factor fused so extreme z cannot overflow
    def asset_leg(z: float) -> float:
        return s0 * math.exp(mu + vol * z - 0.5 * z * z) * _INV_SQRT_2PI

    def strike_leg(z: float) -> float:
        return k * math.exp(-0.5 * z * z) * _INV_SQRT_2PI

    # The window [-Z, Z + vol] carries all representable mass of both legs
    # (the asset leg peaks at z = vol, the strike leg at z = 0, each with
    # unit width), so the exercise region is intersected with it. A finite
    # window with the peaks passed as break points keeps the quadrature
    # from stepping over a narrow integrand when sigma is tiny.
    if contract.kind is OptionKind.CALL:
        integrand = lambda z: asset_leg(z) - strike_leg(z)
        lo, hi = max(z_kink, -_Z_CUTOFF), _Z_CUTOFF + vol
    else:
        integrand = lambda z: strike_leg(z) - asset_leg(z)
        lo, hi = -_Z_CUTOFF, min(z_kink, _Z_CUTOFF)
    if lo >= hi:
        return 0.0
    peaks = [p for p in (0.0, vol) if lo < p < hi]

    value, abserr, info, *tail = quad(
        integrand,
        lo,
        hi,
        points=peaks or None,
        epsabs=_TOLERANCE,
        epsrel=_TOLERANCE,
        limit=200,
        full_output=True,
    )
    if tail:  # QUADPACK appended a warning message
        raise QuadratureError(f"quadrature did not converge: {tail[0]}", abserr)
    return math.exp(-r * t) * value
