"""European option pricing with a mean convection finite difference scheme.

The package prices European calls and puts under geometric Brownian motion
four ways: an explicit finite difference scheme whose convection term is
tuned by a flux-conserving cell average (MCFDM), a Crank-Nicolson baseline
(CFDM), a blocked Monte Carlo estimator, and the closed form backed by a
quadrature cross-check. The ``mcfdm`` command line (``mcfdm.cli``) runs
pricing jobs, error tables, timing comparisons, theta-scaling studies, and
convergence studies, emitting text, CSV, or JSON reports.
"""

from ._version import __version__
from .crank_nicolson import crank_nicolson_surface, solve_crank_nicolson
from .errors import (
    McfdmError,
    QuadratureError,
    SingularSystemError,
    StabilityError,
    ValidationError,
)
from .mean_convection import (
    McfdmReport,
    ThetaConfig,
    max_stable_dt,
    solve_mcfdm,
    theta_at,
)
from .model import (
    AlphaProfile,
    Discretization,
    MarketParams,
    Method,
    OptionContract,
    OptionKind,
    PriceSurface,
    PricingResult,
    build_grid,
    payoff,
)
from .monte_carlo import McConfig, price_monte_carlo, sample_terminal_price
from .oracle import black_scholes_price, risk_neutral_integral_price, std_normal_cdf

__all__ = [
    "AlphaProfile",
    "Discretization",
    "MarketParams",
    "McConfig",
    "McfdmError",
    "McfdmReport",
    "Method",
    "OptionContract",
    "OptionKind",
    "PriceSurface",
    "PricingResult",
    "QuadratureError",
    "SingularSystemError",
    "StabilityError",
    "ThetaConfig",
    "ValidationError",
    "__version__",
    "black_scholes_price",
    "build_grid",
    "crank_nicolson_surface",
    "max_stable_dt",
    "payoff",
    "price_monte_carlo",
    "risk_neutral_integral_price",
    "sample_terminal_price",
    "solve_crank_nicolson",
    "solve_mcfdm",
    "std_normal_cdf",
    "theta_at",
]
