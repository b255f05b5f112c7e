"""The benchmark's own closed-form pricer, independent of the program.

Black-Scholes with a continuous yield q, built on ``math.erfc``. A yield is
needed because the fitted scheme with convection multiplier k prices the
contract whose drift is k*r, that is the yield q = r*(1 - k), while it still
discounts at r.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def bs_price(
    kind: str,
    spot: float,
    strike: float,
    maturity: float,
    rate: float,
    vol: float,
    q: float = 0.0,
) -> float:
    """European call or put price under Black-Scholes with yield ``q``."""
    sd = vol * math.sqrt(maturity)
    d1 = (math.log(spot / strike) + (rate - q + 0.5 * vol * vol) * maturity) / sd
    d2 = d1 - sd
    fwd_spot = spot * math.exp(-q * maturity)
    pv_strike = strike * math.exp(-rate * maturity)
    if kind == "call":
        return fwd_spot * normal_cdf(d1) - pv_strike * normal_cdf(d2)
    if kind == "put":
        return pv_strike * normal_cdf(-d2) - fwd_spot * normal_cdf(-d1)
    raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")


def no_arbitrage_bounds(
    kind: str,
    spot: float,
    strike: float,
    maturity: float,
    rate: float,
    q: float = 0.0,
) -> tuple[float, float]:
    """Model-free (lower, upper) bounds on a European price."""
    fwd_spot = spot * math.exp(-q * maturity)
    pv_strike = strike * math.exp(-rate * maturity)
    if kind == "call":
        return max(fwd_spot - pv_strike, 0.0), fwd_spot
    return max(pv_strike - fwd_spot, 0.0), pv_strike
