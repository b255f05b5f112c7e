"""Crank-Nicolson baseline solver.

Unconditionally stable trapezoidal time stepping with the classical central
stencil: the shared march's Crank-Nicolson step, with no convection fitting.
The tridiagonal matrix is the same at every level, so LAPACK factors it once
and each level costs one back substitution.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from .model import (
    Discretization,
    MarketParams,
    Method,
    OptionContract,
    PricingResult,
    _check_domain,
    _check_grid,
    _solve_grid,
)
from .oracle import _scored

__all__ = [
    "crank_nicolson_surface",
    "solve_crank_nicolson",
]


# the classical stencil (theta = 1) with the Crank-Nicolson step
_cn_grid = partial(_solve_grid, thetas=1.0, implicit=True)


def solve_crank_nicolson(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
) -> PricingResult:
    """Price the contract on the grid and report the error versus the
    closed form."""
    # the march's LAPACK routines load before the clock starts, so a cold
    # first call times its solve and not the import
    import scipy.linalg.lapack  # noqa: F401

    _check_domain(contract, market)
    _check_grid(contract, disc)
    t_start = time.perf_counter()
    price, _, _ = _cn_grid(contract, market, disc, keep_surface=False)
    extra = {"n_space": disc.n_space, "n_time": disc.n_time}
    return _scored(Method.CFDM, contract, market, price, t_start, extra)


def crank_nicolson_surface(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
) -> np.ndarray:
    """Full backward-time price surface of shape ``(n_time + 1, n_space + 1)``
    (level 0 is the payoff)."""
    _check_domain(contract, market)
    _check_grid(contract, disc)
    return _cn_grid(contract, market, disc, keep_surface=True)[1]
