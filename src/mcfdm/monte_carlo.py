"""Monte Carlo baseline under the risk-neutral measure.

Paths are generated in fixed-size blocks, each driven by an independent
jump of a counter-based Philox stream keyed on the seed. Block statistics
are reduced in block order, so the estimate is bit-identical for any
worker count and reproducible from the seed alone.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError
from .model import MarketParams, Method, OptionContract, PricingResult, payoff
from .oracle import black_scholes_price

__all__ = ["McConfig", "price_monte_carlo", "sample_terminal_price"]

_BLOCK = 4096
_MAX_SEED = 2**64 - 1
# uniforms are (k + 0.5) / 2^53 for k in [0, 2^53), strictly inside (0, 1)
_UNIFORM_BITS = 53


@dataclass(frozen=True, slots=True)
class McConfig:
    """Simulation configuration."""

    n_paths: int = 100_000
    seed: int = 42
    n_time_steps: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.n_paths, int) or self.n_paths < 1:
            raise ValidationError(f"n_paths must be an int >= 1, got {self.n_paths}")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _MAX_SEED:
            raise ValidationError(
                f"seed must be an int in [0, 2**64 - 1], got {self.seed}"
            )
        if not isinstance(self.n_time_steps, int) or self.n_time_steps < 1:
            raise ValidationError(
                f"n_time_steps must be an int >= 1, got {self.n_time_steps}"
            )


def sample_terminal_price(
    market: MarketParams,
    s0: float,
    t_total: float,
    n_steps: int,
    normals: np.ndarray,
) -> np.ndarray:
    """Terminal prices from pre-drawn standard normals.

    ``normals`` must have shape ``(n_steps, m)``; column j drives path j
    through the log-Euler recursion, which is exact in distribution for
    geometric Brownian motion at every step count.
    """
    z = np.asarray(normals, dtype=float)
    if z.ndim != 2 or z.shape[0] != n_steps:
        raise ValidationError(
            f"normals must have shape ({n_steps}, m), got {z.shape}"
        )
    if s0 <= 0.0 or t_total <= 0.0 or n_steps < 1:
        raise ValidationError("s0, t_total must be > 0 and n_steps >= 1")
    dt = t_total / n_steps
    drift = (market.r - 0.5 * market.sigma**2) * dt
    vol = market.sigma * math.sqrt(dt)
    st = np.full(z.shape[1], s0, dtype=float)
    for row in z:
        st *= np.exp(drift + vol * row)
    return st


def _block_normals(config: McConfig, block_index: int, m: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=config.seed).jumped(block_index))
    raw = gen.integers(
        0, 1 << _UNIFORM_BITS, size=(config.n_time_steps, m), dtype=np.uint64
    )
    u = (raw.astype(np.float64) + 0.5) / float(1 << _UNIFORM_BITS)
    return ndtri(u)


def _block_stats(
    contract: OptionContract,
    market: MarketParams,
    config: McConfig,
    block_index: int,
    m: int,
) -> tuple[float, float]:
    z = _block_normals(config, block_index, m)
    terminal = sample_terminal_price(
        market, contract.spot, contract.maturity, config.n_time_steps, z
    )
    sample = payoff(contract, terminal)
    return float(sample.sum()), float((sample * sample).sum())


def price_monte_carlo(
    contract: OptionContract,
    market: MarketParams,
    config: McConfig = McConfig(),
    *,
    n_workers: int = 1,
) -> PricingResult:
    """Price the contract by simulation.

    The discounted mean payoff is returned with its standard error in
    ``extra["se"]`` (``None`` for a single path). Blocks may be evaluated
    by a thread pool, but the reduction always runs in block order, so the
    result does not depend on ``n_workers``.
    """
    if not isinstance(n_workers, int) or n_workers < 1:
        raise ValidationError(f"n_workers must be an int >= 1, got {n_workers}")
    t_start = time.perf_counter()
    n = config.n_paths
    sizes = [
        (b, min(_BLOCK, n - b * _BLOCK)) for b in range((n + _BLOCK - 1) // _BLOCK)
    ]
    if n_workers == 1 or len(sizes) == 1:
        stats = [
            _block_stats(contract, market, config, b, m) for b, m in sizes
        ]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            stats = list(
                pool.map(
                    lambda bm: _block_stats(contract, market, config, *bm), sizes
                )
            )
    total = 0.0
    total_sq = 0.0
    for block_sum, block_sq in stats:
        total += block_sum
        total_sq += block_sq
    mean = total / n
    discount = math.exp(-market.r * contract.maturity)
    price = discount * mean
    if n > 1:
        variance = max((total_sq - n * mean * mean) / (n - 1), 0.0)
        se = discount * math.sqrt(variance / n)
    else:
        se = None
    elapsed = time.perf_counter() - t_start
    exact = black_scholes_price(contract, market)
    return PricingResult(
        method=Method.MONTE_CARLO,
        price=price,
        abs_error=abs(price - exact),
        elapsed_seconds=elapsed,
        extra={
            "se": se,
            "paths": n,
            "seed": config.seed,
            "n_time_steps": config.n_time_steps,
            "n_workers": n_workers,
        },
    )
