"""Crank-Nicolson baseline solver.

Unconditionally stable trapezoidal time stepping with the classical central
stencil: the shared march with time weight 1/2 and no convection fitting.
The tridiagonal matrix is the same at every level, so LAPACK factors it once
and each level costs one back substitution.
"""

from __future__ import annotations

import time

import numpy as np

from .model import (
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
    "crank_nicolson_surface",
    "solve_crank_nicolson",
]


def _cn_march(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
    *,
    keep_surface: bool,
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    s = disc.nodes()
    bands = _operator(market, s[1:-1], np.ones(disc.n_space - 1), disc.ds)
    return _march(
        payoff(contract, s),
        bands,
        _boundaries(contract, market, disc),
        disc.dt,
        0.5,
        keep_surface=keep_surface,
    )


def solve_crank_nicolson(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
) -> PricingResult:
    """Price the contract on the grid and report the error versus the
    closed form."""
    t_start = time.perf_counter()
    final, _, _ = _cn_march(contract, market, disc, keep_surface=False)
    price = float(np.interp(contract.spot, disc.nodes(), final))
    elapsed = time.perf_counter() - t_start
    exact = black_scholes_price(contract, market)
    return PricingResult(
        method=Method.CFDM,
        price=price,
        abs_error=abs(price - exact),
        elapsed_seconds=elapsed,
        extra={"n_space": disc.n_space, "n_time": disc.n_time},
    )


def crank_nicolson_surface(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
) -> PriceSurface:
    """Full backward-time price surface (level 0 is the payoff)."""
    _, levels, _ = _cn_march(contract, market, disc, keep_surface=True)
    return PriceSurface(values=levels, disc=disc)
