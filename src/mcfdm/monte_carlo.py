"""Monte Carlo baseline under the risk-neutral measure.

Paths are generated in fixed-size blocks, each driven by an independent
jump of a counter-based Philox stream keyed on the seed. Block statistics
are reduced in block order, so the estimate is bit-identical for any
worker count and reproducible from the seed alone. Each block is streamed
through a few time steps at a time, so a block never holds more than
``_CHUNK_ROWS`` rows of draws.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import MarketParams, Method, OptionContract, PricingResult, payoff
from .oracle import black_scholes_price

__all__ = ["McConfig", "price_monte_carlo", "sample_terminal_price"]

_BLOCK = 4096
# time steps drawn, transformed and marched together; a 4096-path block
# then keeps 1 MB of draws live (16 and 128 rows ran as fast)
_CHUNK_ROWS = 32
_MAX_SEED = 2**64 - 1
# uniforms are (k + 0.5) / 2^53 for k in [0, 2^53), strictly inside (0, 1)
_UNIFORM_BITS = 53


def _is_int(value: object) -> bool:
    # a bool is an int to isinstance, but True is no count of paths
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class McConfig:
    """Simulation configuration."""

    n_paths: int = 100_000
    seed: int = 42
    n_time_steps: int = 1

    def __post_init__(self) -> None:
        if not _is_int(self.n_paths) or self.n_paths < 1:
            raise ValidationError(f"n_paths must be an int >= 1, got {self.n_paths}")
        if not _is_int(self.seed) or not 0 <= self.seed <= _MAX_SEED:
            raise ValidationError(
                f"seed must be an int in [0, 2**64 - 1], got {self.seed}"
            )
        if not _is_int(self.n_time_steps) or self.n_time_steps < 1:
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
    geometric Brownian motion at every step count. ``normals`` is left
    unchanged.
    """
    z = np.asarray(normals, dtype=float)
    if z.ndim != 2 or z.shape[0] != n_steps:
        raise ValidationError(
            f"normals must have shape ({n_steps}, m), got {z.shape}"
        )
    positive = all(math.isfinite(x) and x > 0.0 for x in (s0, t_total))
    if not positive or n_steps < 1:
        raise ValidationError("s0, t_total must be finite and > 0 and n_steps >= 1")
    dt = t_total / n_steps
    st = np.full(z.shape[1], s0, dtype=float)
    for start in range(0, z.shape[0], _CHUNK_ROWS):
        # the march overwrites its rows, so it gets a copy of each chunk
        _advance(st, z[start : start + _CHUNK_ROWS].copy(), market, dt)
    return st


def _advance(st: np.ndarray, z: np.ndarray, market: MarketParams, dt: float) -> None:
    """March the paths ``st`` through the rows of normals ``z`` in place.

    ``z`` is overwritten with the step growth factors. Each step multiplies
    ``st`` by exp(drift + vol·z) row by row, so marching a block in chunks
    of rows gives the same bits as marching it whole.
    """
    drift = (market.r - 0.5 * market.sigma**2) * dt
    vol = market.sigma * math.sqrt(dt)
    z *= vol
    z += drift
    np.exp(z, out=z)
    for row in z:
        st *= row


def _block_stats(
    contract: OptionContract,
    market: MarketParams,
    config: McConfig,
    block_index: int,
    m: int,
) -> tuple[float, float]:
    # loaded here so that importing the package does not pay for
    # scipy.special; price_monte_carlo loads it before its clock starts
    from scipy.special import ndtri

    gen = np.random.Generator(np.random.Philox(key=config.seed).jumped(block_index))
    n_steps = config.n_time_steps
    dt = contract.maturity / n_steps
    st = np.full(m, contract.spot, dtype=float)
    chunk = np.empty((min(_CHUNK_ROWS, n_steps), m))
    for start in range(0, n_steps, _CHUNK_ROWS):
        # bounded draws over 2^53 take one Philox output each, so drawing
        # the block a chunk at a time reproduces the whole-block draw
        u = chunk[: min(_CHUNK_ROWS, n_steps - start)]
        u[...] = gen.integers(0, 1 << _UNIFORM_BITS, size=u.shape, dtype=np.uint64)
        u += 0.5
        u /= float(1 << _UNIFORM_BITS)
        ndtri(u, out=u)
        _advance(st, u, market, dt)
    sample = payoff(contract, st)
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
    if not _is_int(n_workers) or n_workers < 1:
        raise ValidationError(f"n_workers must be an int >= 1, got {n_workers}")
    # the normal transform loads before the clock starts, so a cold first
    # call times its simulation and not the import
    import scipy.special  # noqa: F401

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
