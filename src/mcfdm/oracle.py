"""Closed-form European prices and the standard normal CDF.

This module is the error reference for every numerical method in the
package, plus an independent brute-force check of the closed form via
quadrature against the lognormal terminal density.
"""

from __future__ import annotations

import math
import time

from .errors import QuadratureError, ValidationError
from .model import MarketParams, Method, OptionContract, OptionKind, PricingResult

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
    drift = math.log(s0 / k) + (r + 0.5 * sigma * sigma) * t
    d1 = drift / vol if vol > 0.0 else math.copysign(math.inf, drift)
    # N is exactly 0 or 1 beyond ±_Z_CUTOFF, so clamping keeps every finite
    # d's price and gives sigma sqrt(T) -> 0 its limit max(±(S0 - K e^-rT), 0)
    d1, d2 = (min(max(d, -_Z_CUTOFF), _Z_CUTOFF) for d in (d1, d1 - vol))
    df_strike = k * math.exp(-r * t)
    if contract.kind is OptionKind.CALL:
        return s0 * std_normal_cdf(d1) - df_strike * std_normal_cdf(d2)
    return df_strike * std_normal_cdf(-d2) - s0 * std_normal_cdf(-d1)


def _scored(
    method: Method,
    contract: OptionContract,
    market: MarketParams,
    price: float,
    t_start: float,
    extra: dict,
) -> PricingResult:
    """Stop the clock started at ``t_start``, then score ``price`` against
    the closed form, outside the solve's time."""
    elapsed = time.perf_counter() - t_start
    return PricingResult(
        method=method,
        price=price,
        abs_error=abs(price - black_scholes_price(contract, market)),
        elapsed_seconds=elapsed,
        extra=extra,
    )


def _exact(contract: OptionContract, market: MarketParams) -> PricingResult:
    """The closed form as an engine: one timed call, scored like the others."""
    t_start = time.perf_counter()
    price = black_scholes_price(contract, market)
    return _scored(Method.EXACT, contract, market, price, t_start, {})


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
    kink = math.log(k / s0) - mu
    # as sigma sqrt(T) -> 0 the kink moves to ±inf, and the integral tends to
    # the discounted forward payoff, the limit black_scholes_price takes
    z_kink = kink / vol if vol > 0.0 else math.copysign(math.inf, kink)

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
