"""Domain types, payoffs, grid construction, and the finite-difference march
shared by every grid solver."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularSystemError, ValidationError

__all__ = [
    "Discretization",
    "MarketParams",
    "Method",
    "OptionContract",
    "OptionKind",
    "PricingResult",
    "build_grid",
    "payoff",
]

# relative slack for floating-point grid consistency checks
_REL_TOL = 1e-9

# single-step excess over the neighborhood maximum that counts as oscillation
OSCILLATION_TOLERANCE = 1e-9
# levels a march writes in place between oscillation scans (a 106 kB ring
# of 33 levels at 400 nodes, and a scan buffer of 32)
_MARCH_ROWS = 32


def _count(name: str, value: object, minimum: int) -> int:
    """``value`` as a Python int, when it is an integer of any type but bool
    (numpy's included) and at least ``minimum``; else a ValidationError.
    Inputs hold and compute with what this returns, never a numpy scalar."""
    # a bool is an int to isinstance, but True is no count of anything
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(f"{name} must be an int >= {minimum}, got {value!r}")
    return int(value)


def _real(name: str, value: object, *, positive: bool = True) -> float:
    """``value`` as a Python float, when it is a finite real number, not a
    bool, that is > 0, or >= 0 when not ``positive``; else a ValidationError.
    Inputs hold and compute with what this returns, never a numpy scalar."""
    number = math.nan
    # a bool is a number to isinstance, but True is no price, rate or time
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if not (math.isfinite(number) and (number > 0.0 if positive else number >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise ValidationError(f"{name} must be finite and {bound}, got {value!r}")
    return number


class OptionKind(enum.Enum):
    CALL = "call"
    PUT = "put"


class Method(enum.Enum):
    MCFDM = "MCFDM"
    CFDM = "CFDM"
    MONTE_CARLO = "MonteCarlo"
    EXACT = "Exact"


@dataclass(frozen=True, slots=True)
class MarketParams:
    """Risk-free rate and volatility.

    Parameters
    ----------
    r : float
        Risk-free rate per year. Must be nonnegative.
    sigma : float
        Volatility per square-root year. Must be positive.
    """

    r: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _real("r", self.r, positive=False))
        object.__setattr__(self, "sigma", _real("sigma", self.sigma))


@dataclass(frozen=True, slots=True)
class OptionContract:
    kind: OptionKind
    strike: float
    maturity: float
    spot: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, OptionKind):
            raise ValidationError(f"unknown option kind: {self.kind!r}")
        for name in ("strike", "maturity", "spot"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))


@dataclass(frozen=True, slots=True)
class Discretization:
    """Uniform grid: nodes S_i = i*ds for i in 0..n_space, n_time steps of T / n_time."""

    s_max: float
    n_space: int
    n_time: int
    ds: float

    def __post_init__(self) -> None:
        for name, minimum in (("n_space", 4), ("n_time", 1)):
            object.__setattr__(self, name, _count(name, getattr(self, name), minimum))
        for name in ("s_max", "ds"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        # keeps sigma^2 S^2 finite in the priced domain; auto grids stay below 6e100
        if self.s_max > 1e101:
            raise ValidationError(f"s_max must be <= 1e101, got {self.s_max!r}")
        if abs(self.ds * self.n_space - self.s_max) > _REL_TOL * max(1.0, self.s_max):
            raise ValidationError(
                f"inconsistent grid: ds*n_space={self.ds * self.n_space!r} "
                f"but s_max={self.s_max!r}"
            )

    def nodes(self) -> np.ndarray:
        return np.arange(self.n_space + 1) * self.ds


@dataclass(frozen=True, slots=True)
class PricingResult:
    """Price at (S0, valuation date) plus error, timing, and method metadata."""

    method: Method
    price: float
    abs_error: float
    elapsed_seconds: float
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.abs_error < 0.0:
            raise ValidationError(f"abs_error must be >= 0, got {self.abs_error}")
        if self.elapsed_seconds < 0.0:
            raise ValidationError(
                f"elapsed_seconds must be >= 0, got {self.elapsed_seconds}"
            )


def _check_domain(contract: OptionContract, market: MarketParams) -> None:
    """Raise a ValidationError naming the quantity outside the priced domain:
    spot and strike in [1e-100, 1e100], maturity >= 1e-100 and rT + 8.3
    sigma sqrt(T) <= 100, 8.3 bounding Monte Carlo's clamped normal draws.
    README's "Priced domain" says why each bound holds."""
    for name in ("spot", "strike"):
        value = getattr(contract, name)
        if not 1e-100 <= value <= 1e100:
            raise ValidationError(f"{name} must be in [1e-100, 1e100], got {value!r}")
    r, sigma, t = market.r, market.sigma, contract.maturity
    if t < 1e-100:
        raise ValidationError(f"maturity must be >= 1e-100, got {t!r}")
    exponent = r * t + 8.3 * sigma * math.sqrt(t)
    if not exponent <= 100.0:
        raise ValidationError(f"r*T + 8.3*sigma*sqrt(T) must be <= 100, got {exponent!r}")


def _check_grid(contract: OptionContract, disc: Discretization) -> None:
    """Raise a ValidationError unless the grid reaches above the spot and the
    strike; interpolation clamps a spot at or past s_max to the top node."""
    anchor = max(contract.spot, contract.strike)
    if disc.s_max <= anchor:
        raise ValidationError(f"s_max must exceed max(spot, strike)={anchor}, got {disc.s_max}")


def payoff(contract: OptionContract, s):
    """Terminal payoff at price level(s) ``s``.

    Accepts a scalar or an array; returns the same shape. Negative price
    levels are rejected.
    """
    arr = np.asarray(s, dtype=float)
    if arr.size and float(arr.min()) < 0.0:
        raise ValidationError("price level must be >= 0")
    if contract.kind is OptionKind.CALL:
        out = np.maximum(arr - contract.strike, 0.0)
    else:
        out = np.maximum(contract.strike - arr, 0.0)
    if np.ndim(s) == 0:
        return float(out)
    return out


def _operator(
    market: MarketParams,
    s_interior: np.ndarray,
    thetas: np.ndarray | float,
    ds: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands (lower, center, upper) of the Black-Scholes spatial operator L.

    At each interior node, L v = d (v+ - 2 v + v-) + c (v+ - v-) - r v with
    diffusion d = sigma^2 S^2 / (2 ds^2) and convection c = r S theta / (2 ds):
    the central flux difference of the convection term, scaled by the
    fitting factor ``thetas``, per node or one scalar (1 is the classical stencil).
    """
    diffusion = 0.5 * market.sigma**2 * s_interior**2 / ds**2
    convection = market.r * s_interior * thetas / (2.0 * ds)
    return diffusion - convection, -2.0 * diffusion - market.r, diffusion + convection


def _boundaries(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet values at S = 0 and S = s_max for tau = dt, 2 dt, ..., n_time dt = T.

    Calls are worthless at S = 0 and worth ``s_max - K exp(-r tau)`` at the
    truncation; puts mirror this. Entry ``n - 1`` belongs to level ``n``.
    """
    dt = contract.maturity / disc.n_time
    discounts = np.exp(-market.r * np.arange(1, disc.n_time + 1) * dt)
    discounted_strike = contract.strike * discounts
    zeros = np.zeros_like(discounts)
    if contract.kind is OptionKind.CALL:
        return zeros, disc.s_max - discounted_strike
    return discounted_strike, zeros


def _scan_can_fire(
    weights: tuple[np.ndarray, np.ndarray, np.ndarray],
    level: np.ndarray,
    boundaries: tuple[np.ndarray, np.ndarray],
) -> bool:
    """Whether an explicit march with these weights and data might set the
    oscillation flag; False only where the bound below proves it cannot.

    With every weight >= 0 and nonnegative data, every level stays >= 0,
    and a computed step at a node whose weights sum to W is at most
    W max(L, M, R) (1 + u)^3 (u = 2^-53). Each level is then at most
    B = max(data) g^n, with g = max(1, max W (1 + 2^-50)) for the march's
    n steps, and no step exceeds its neighborhood's maximum by more than
    B (g - 1). The factor 1 + 2^-50 covers (1 + u)^3 and the rounding of
    W. The flag cannot be set when that is at most half the tolerance.

    A weight whose neighbour is a boundary column that is zero at every
    level (S = 0 for a call, s_max for a put) multiplies only +-0, so it is
    left out of the sign test and of W. Any NaN or inf means a scan.
    """
    e_lower, e_center, e_upper = weights
    bc_lower, bc_upper = boundaries
    data = (level, bc_lower, bc_upper)
    if not all(np.isfinite(a).all() for a in (*weights, *data)):
        return True
    if level[0] == 0.0 and not bc_lower.any():
        e_lower = np.concatenate(([0.0], e_lower[1:]))
    if level[-1] == 0.0 and not bc_upper.any():
        e_upper = np.concatenate((e_upper[:-1], [0.0]))
    if min(float(a.min()) for a in (e_lower, e_center, e_upper, *data)) < 0.0:
        return True
    top = max(float(a.max()) for a in data)
    # finite weights of any size may sum past the float range; g is then inf
    with np.errstate(over="ignore"):
        sums = e_lower + e_center + e_upper
    growth = max(1.0, float(sums.max()) * (1.0 + 2.0**-50))
    excess = top * (growth - 1.0)
    # g - 1 alone can fail the bound, and then g^n may overflow
    if not excess <= 0.5 * OSCILLATION_TOLERANCE:
        return True
    if excess == 0.0:
        return False
    # B (g - 1) = excess g^n, compared in logs, which cannot overflow
    return bc_lower.size * math.log1p(growth - 1.0) > math.log(
        0.5 * OSCILLATION_TOLERANCE / excess
    )


def _march(
    level: np.ndarray,
    bands: tuple[np.ndarray, np.ndarray, np.ndarray],
    boundaries: tuple[np.ndarray, np.ndarray],
    dt: float,
    *,
    implicit: bool,
    keep_surface: bool,
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """March from ``level``: the explicit step v_n = (I + dt L) v_{n-1}, or,
    when ``implicit``, Crank-Nicolson's (I - dt/2 L) v_n = (I + dt/2 L) v_{n-1}.

    ``bands`` are the operator bands from :func:`_operator` and
    ``boundaries`` the Dirichlet values from :func:`_boundaries` (one entry
    per step). Steps write blocks of ``_MARCH_ROWS`` levels in place into a
    ring. An explicit step is five ufunc calls with positional outputs
    (numpy's per-call overhead, not arithmetic, dominates at a few hundred
    nodes). In the Crank-Nicolson step the explicit matrix I + dt/2 L is
    2I - A for the implicit matrix A = I - dt/2 L, so the step
    A^-1 ((2I - A) u + beta) = A^-1 (2u + beta) - u needs no explicit half:
    A is factored once. Each block's interior rows start as beta: the
    boundary terms of both levels at the two edge nodes, -0.0 between them.
    A step is then three calls into its ring row: BLAS ``daxpy`` adds 2u,
    LAPACK solves with its arguments bound once per row, and ``daxpy``
    subtracts u. 2u and -u are exact, and x + -0.0 is x with the sign of a
    zero kept, so a step has the bits of (u + u) + beta solved, minus u.
    A zero edge term is written too: +0.0 turns 2u = -0.0 into +0.0.

    The diagonal similarity S = D^-1 A D with D = diag(s), s_0 = 1 and
    s_{i+1} = s_i sqrt(A[i+1, i] / A[i, i+1]) is symmetric when s is finite
    and positive. That needs each pair A[i+1, i], A[i, i+1] to share a
    strict sign (for the classical stencil, whenever r / sigma^2 < 2): a
    pair of opposite signs or with a zero makes s NaN, 0 or inf, as does an
    overflow or underflow, and a subnormal quotient A[i+1, i] / A[i, i+1]
    has lost bits, so S would not match A. If every quotient is normal, s is
    finite and positive and ``dpttrf`` factors S as L D L^T, the march
    carries w = D^-1 u on the interior, steps w <- S^-1 (2w + D^-1 beta) - w
    with ``dpttrs`` and scales the last level (and the kept surface) by s at
    the end. beta is nonzero only in the first and last interior rows, where
    s_0 = 1, so D^-1 beta divides only the upper edge term. Otherwise A is
    factored by ``dgttrf`` and solved by ``dgttrs`` in the same loop with
    s = 1; only ``dgttrf`` raises :class:`SingularSystemError`.

    Returns the last level, the surface of all levels (``None`` unless
    ``keep_surface``) and the oscillation flag. The flag is the explicit
    step's maximum-principle check, set when an interior node exceeds the
    maximum of its previous-level neighborhood by more than
    ``OSCILLATION_TOLERANCE`` (a step with a NaN does not count). It scans a
    block's levels as one flat run, so the two entries per level that
    straddle the seam to the next level are computed but never read. The
    march skips the scan, and the flag reads False, when
    :func:`_scan_can_fire` proves that no step can set it: every weight
    >= 0, the payoff and boundaries >= 0 and finite, and the bound
    B (g - 1) on any step's excess at most half the tolerance. For k = 1,
    within the stability bound and on option-sized data, that holds
    whenever r <= sigma^2, and for calls up to r = 2 sigma^2, whose one
    negative weight, node 1's lower one, multiplies the zero column at
    S = 0. The levels do not depend on the scan, so they keep their bits
    either way. A Crank-Nicolson step is not a weighted average of that
    neighborhood, so it skips the check and the flag reads False.
    """
    lower, center, upper = bands
    bc_lower, bc_upper = boundaries
    n_steps = bc_lower.size
    width = level.size
    ring = np.empty((min(_MARCH_ROWS, n_steps) + 1, width))
    ring[0] = level
    # per ring row: views of the level before it, and its interior to write
    steps = [(a[:-2], a[1:-1], a[2:], b[1:-1]) for a, b in zip(ring[:-1], ring[1:])]
    if implicit:
        # loaded here so that the explicit scheme never pays for
        # scipy.linalg; timed callers load it before their clock starts
        from scipy.linalg.blas import daxpy
        from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

        half_dt = 0.5 * dt
        i_lower = half_dt * lower
        i_upper = half_dt * upper
        below, diagonal, above = -i_lower[1:], 1.0 - half_dt * center, -i_upper[:-1]
        solve = None
        # a pair's sign mismatch or zero, like an overflow, leaves s with a
        # NaN, 0 or inf, and a subnormal quotient has lost bits
        with np.errstate(all="ignore"):
            quotient = below / above
            ratio = np.sqrt(quotient)
            scale = np.cumprod(np.concatenate(([1.0], ratio)))
        if (quotient >= np.finfo(float).tiny).all() and (np.isfinite(scale) & (scale > 0.0)).all():
            # S's off-diagonal, below s_i / s_{i+1} = sign sqrt(below above)
            *factors, info = dpttrf(diagonal, below / ratio)
            if info == 0:
                solve, trailing = dpttrs, (True,)
        if solve is None:
            *factors, info = dgttrf(below, diagonal, above)
            if info != 0:
                raise SingularSystemError(
                    f"implicit matrix is singular (LAPACK dgttrf info={info})"
                )
            # trans "N" and overwrite_b by position: f2py's keyword parsing
            # costs about 0.4 us a call
            solve, trailing = dgttrs, ("N", True)
            scale = np.ones_like(diagonal)
        ring[0, 1:-1] /= scale
        upper_weight = i_upper[-1] / scale[-1]
        # per ring row: the level before it, its interior, and every
        # argument of its solve, bound once
        interior = width - 2
        rows = [(mid, inner, (*factors, inner, *trailing)) for _, mid, _, inner in steps]
    else:
        e_lower = dt * lower
        e_center = 1.0 + dt * center
        e_upper = dt * upper
        scratch = np.empty(width - 2)
        scan = _scan_can_fire((e_lower, e_center, e_upper), level, boundaries)
        if scan:
            excess = np.empty(ring[1:].size)
    levels = np.empty((n_steps + 1, width)) if keep_surface else None
    if keep_surface:
        levels[0] = level
    multiply, add = np.multiply, np.add
    oscillation = False
    for start in range(0, n_steps, _MARCH_ROWS):
        m = min(_MARCH_ROWS, n_steps - start)
        block = ring[1 : m + 1]
        block[:, 0] = bc_lower[start : start + m]
        block[:, -1] = bc_upper[start : start + m]
        if implicit:
            # each row's interior starts as D^-1 beta: each edge's term of the
            # previous and the new level at its edge node (a grid has at least
            # three interior nodes), -0.0 between them
            block[:, 1:-1] = -0.0
            block[:, 1] = i_lower[0] * (ring[:m, 0] + block[:, 0])
            block[:, -2] = upper_weight * (ring[:m, -1] + block[:, -1])
            for mid, inner, args in rows[:m]:
                daxpy(mid, inner, interior, 2.0)
                solve(*args)
                daxpy(mid, inner, interior, -1.0)
        else:
            for left, mid, right, inner in steps[:m]:
                multiply(e_lower, left, inner)
                multiply(e_center, mid, scratch)
                add(inner, scratch, inner)
                multiply(e_upper, right, scratch)
                add(inner, scratch, inner)
            if scan and not oscillation:
                # flat entry j: level j // width's excess at node j % width + 1
                prev = ring[:m].reshape(-1)
                run = excess[: m * width - 2]
                np.maximum(prev[:-2], prev[1:-1], out=run)
                np.maximum(run, prev[2:], out=run)
                np.subtract(block.reshape(-1)[1:-1], run, run)
                per_step = excess[: m * width].reshape(m, width)[:, :-2].max(axis=1)
                oscillation = bool((per_step > OSCILLATION_TOLERANCE).any())
        if keep_surface:
            levels[start + 1 : start + m + 1] = block
        ring[0] = ring[m]
    final = ring[0].copy()
    if implicit:
        # back from w = D^-1 u to u; the payoff level 0 was never scaled
        final[1:-1] *= scale
        if keep_surface:
            levels[1:, 1:-1] *= scale
    return final, levels, oscillation


def _solve_grid(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
    thetas: np.ndarray | float,
    *,
    implicit: bool,
    keep_surface: bool,
) -> tuple[float, np.ndarray | None, bool]:
    """Price at the spot, surface (``None`` unless ``keep_surface``) and
    oscillation flag of the payoff marched on ``disc``, with ``thetas`` as in
    :func:`_operator` and ``implicit`` as in :func:`_march`. The engines
    check the domain and the grid before they call it."""
    s = disc.nodes()
    final, levels, oscillation = _march(
        payoff(contract, s),
        _operator(market, s[1:-1], thetas, disc.ds),
        _boundaries(contract, market, disc),
        contract.maturity / disc.n_time,
        implicit=implicit,
        keep_surface=keep_surface,
    )
    return float(np.interp(contract.spot, s, final)), levels, oscillation


def build_grid(
    contract: OptionContract,
    n_space: int = 100,
    n_time: int = 1000,
    s_max: float | str = "auto",
) -> Discretization:
    """Build a uniform grid for the contract.

    The ``"auto"`` policy targets ``4 * max(spot, strike)`` and then nudges
    ``ds`` (keeping ``n_space`` intervals) so the spot falls exactly on a
    node whenever an interior node index exists for it; solvers interpolate
    linearly when it does not. An explicit ``s_max`` is a real number (not a
    bool), used as given, and must exceed ``max(spot, strike)``.
    """
    n_space = _count("n_space", n_space, 4)
    # a bool is a number to isinstance, but True is no price level
    if s_max != "auto" and (isinstance(s_max, bool) or not isinstance(s_max, numbers.Real)):
        raise ValidationError(f"s_max must be 'auto' or a number, got {s_max!r}")
    if s_max == "auto":
        target = 4.0 * max(contract.spot, contract.strike)
        ds = target / n_space
        node = round(contract.spot / ds)
        if 0 < node < n_space:
            ds = contract.spot / node
        grid_max = ds * n_space
    else:
        grid_max = _real("s_max", s_max)
        ds = grid_max / n_space
    disc = Discretization(s_max=grid_max, n_space=n_space, n_time=n_time, ds=ds)
    _check_grid(contract, disc)
    return disc
