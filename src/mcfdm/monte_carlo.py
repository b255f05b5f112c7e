"""Monte Carlo baseline under the risk-neutral measure.

Paths are generated in fixed-size blocks, each driven by an independent
jump of a counter-based Philox stream keyed on the seed. Block statistics
are reduced in block order, so the estimate is bit-identical for any
worker count and reproducible from the seed alone. Each block is streamed
through a few time steps at a time, in a chunk buffer that the calling
thread lends, so a marching thread never holds more than ``_CHUNK_ROWS``
rows of draws.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    MarketParams,
    Method,
    OptionContract,
    OptionKind,
    PricingResult,
    _check_domain,
    _count,
    _real,
    payoff,
)
from .oracle import _scored

__all__ = ["McConfig", "price_monte_carlo", "sample_terminal_price"]

_BLOCK = 4096
# time steps drawn, transformed and marched together; a 4096-path block
# then keeps 256 kB of draws live (16 and 32 rows ran as fast)
_CHUNK_ROWS = 8
_MAX_SEED = 2**64 - 1


@dataclass(frozen=True, slots=True)
class McConfig:
    """Simulation configuration."""

    n_paths: int = 100_000
    seed: int = 42
    n_time_steps: int = 1

    def __post_init__(self) -> None:
        for name, minimum in (("n_paths", 1), ("seed", 0), ("n_time_steps", 1)):
            object.__setattr__(self, name, _count(name, getattr(self, name), minimum))
        if self.seed > _MAX_SEED:
            raise ValidationError(
                f"seed must be an int in [0, 2**64 - 1], got {self.seed}"
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
    n_steps = _count("n_steps", n_steps, 1)
    z = np.asarray(normals, dtype=float)
    if z.ndim != 2 or z.shape[0] != n_steps:
        raise ValidationError(
            f"normals must have shape ({n_steps}, m), got {z.shape}"
        )
    s0 = _real("s0", s0)
    t_total = _real("t_total", t_total)
    # s0 stands in for the strike, which the march does not take
    _check_domain(OptionContract(OptionKind.CALL, s0, t_total, s0), market)
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
    buf: np.ndarray,
) -> tuple[float, float]:
    """The sum of the block's payoffs and the sum of their squares.

    The block's draws go through ``buf``, a flat float buffer of at least
    ``min(_CHUNK_ROWS, n_time_steps) * m`` values, which it overwrites.
    """
    # loaded here so that importing the package does not pay for
    # scipy.special; price_monte_carlo loads it before its clock starts
    from scipy.special import ndtri

    gen = np.random.Generator(np.random.Philox(key=config.seed).jumped(block_index))
    n_steps = config.n_time_steps
    dt = contract.maturity / n_steps
    st = np.full(m, contract.spot, dtype=float)
    # a contiguous prefix: Generator.random(out=) refuses a strided view,
    # so a block of fewer paths than the buffer was sized for cannot take
    # a column slice of it
    rows = min(_CHUNK_ROWS, n_steps)
    chunk = buf[: rows * m].reshape(rows, m)
    for start in range(0, n_steps, _CHUNK_ROWS):
        # each uniform is one Philox output x as ((x >> 11) + 0.5) / 2^53,
        # so drawing the block a chunk at a time reproduces the whole-block
        # draw; x >> 11 = 2^53 - 1 rounds to 1.0, which ndtri maps to inf,
        # so it is clamped to the largest double below 1
        u = chunk[: min(_CHUNK_ROWS, n_steps - start)]
        gen.random(out=u)
        u += 2.0**-54
        np.minimum(u, 1.0 - 2.0**-53, out=u)
        ndtri(u, out=u)
        _advance(st, u, market, dt)
    sample = payoff(contract, st)
    return float(sample.sum()), float((sample * sample).sum())


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def price_monte_carlo(
    contract: OptionContract,
    market: MarketParams,
    config: McConfig = McConfig(),
    *,
    n_workers: int | None = None,
) -> PricingResult:
    """Price the contract by simulation.

    The discounted mean payoff is returned with its standard error in
    ``extra["se"]`` (``None`` for a single path). ``n_workers`` threads
    march the blocks, the calling thread among them: with n of them, thread
    w marches blocks w, w + n, w + 2n, ... (the caller is w = 0), so only
    n − 1 threads start and a serial call starts none. Each thread marches
    into one chunk buffer that the caller allocates for the call. The
    reduction always runs in block order, so the result does not depend on
    ``n_workers``. ``None`` chooses the count: one thread per usable CPU
    when each block marches at least one full chunk of ``_CHUNK_ROWS``
    steps, else one.
    No more threads march than there are blocks, and ``extra["n_workers"]``
    records how many marched, the caller included. An error in any block
    is raised here once every thread has stopped. Raises
    :class:`ValidationError` outside the priced domain.
    """
    _check_domain(contract, market)
    if n_workers is None:
        n_workers = _usable_cpus() if config.n_time_steps >= _CHUNK_ROWS else 1
    n_workers = _count("n_workers", n_workers, 1)
    # the normal transform loads before the clock starts, so a cold first
    # call times its simulation and not the import
    import scipy.special  # noqa: F401

    t_start = time.perf_counter()
    n = config.n_paths
    sizes = [min(_BLOCK, n - start) for start in range(0, n, _BLOCK)]
    n_workers = min(n_workers, len(sizes))
    # allocated by the caller, once per call: a thread that allocated its
    # own chunk for each block would grow a malloc arena of its own
    bufs = np.empty((n_workers, min(_CHUNK_ROWS, config.n_time_steps) * sizes[0]))
    stats = [(0.0, 0.0)] * len(sizes)
    failures: list[BaseException] = []
    # numpy's error state is a context variable, which a new thread does
    # not inherit, so every march runs under the caller's
    err = np.geterr()

    def march(w: int) -> None:
        try:
            with np.errstate(**err):
                for b in range(w, len(sizes), n_workers):
                    if failures:
                        return
                    stats[b] = _block_stats(contract, market, config, b, sizes[b], bufs[w])
        except BaseException as exc:
            failures.append(exc)

    helpers = [threading.Thread(target=march, args=(w,)) for w in range(1, n_workers)]
    for thread in helpers:
        thread.start()
    march(0)
    for thread in helpers:
        thread.join()
    if failures:
        raise failures[0]
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
    extra = {
        "se": se,
        "paths": n,
        "seed": config.seed,
        "n_time_steps": config.n_time_steps,
        "n_workers": n_workers,
    }
    return _scored(Method.MONTE_CARLO, contract, market, price, t_start, extra)
