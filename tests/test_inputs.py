"""One rule per kind of input, at every public type and entry point.

A count is an integer of any type but bool, numpy's included, and is held
as a Python int. A number is a finite real that is not a bool, and is held
as a Python float.
"""

import json
import math

import numpy as np
import pytest

from mcfdm import (
    Discretization,
    MarketParams,
    McConfig,
    OptionContract,
    OptionKind,
    PricingResult,
    ThetaConfig,
    ValidationError,
    black_scholes_price,
    build_grid,
    crank_nicolson_surface,
    max_stable_dt,
    price_monte_carlo,
    risk_neutral_integral_price,
    sample_terminal_price,
    solve_crank_nicolson,
    solve_mcfdm,
    std_normal_cdf,
)
from mcfdm.cli import JobSpec, run_table, run_timing

MARKET = MarketParams(r=0.05, sigma=0.25)


def contract(**fields):
    base = {"kind": OptionKind.CALL, "strike": 7.5, "maturity": 1.0, "spot": 7.0}
    return OptionContract(**{**base, **fields})


def grid(**fields):
    base = {"s_max": 10.0, "n_space": 10, "n_time": 5, "ds": 1.0}
    return Discretization(**{**base, **fields})


def sample(**fields):
    args = {"s0": 7.0, "t_total": 1.0, "n_steps": 1, "normals": np.zeros((1, 2)), **fields}
    return sample_terminal_price(MARKET, **args)


# owner, field, and an entry point that takes the field's value
NUMBER_FIELDS = [
    ("MarketParams", "r", lambda v: MarketParams(r=v, sigma=0.25)),
    ("MarketParams", "sigma", lambda v: MarketParams(r=0.05, sigma=v)),
    ("OptionContract", "strike", lambda v: contract(strike=v)),
    ("OptionContract", "maturity", lambda v: contract(maturity=v)),
    ("OptionContract", "spot", lambda v: contract(spot=v)),
    ("ThetaConfig", "scaling", lambda v: ThetaConfig(scaling=v)),
    ("Discretization", "s_max", lambda v: grid(s_max=v)),
    ("Discretization", "ds", lambda v: grid(ds=v)),
    ("sample_terminal_price", "s0", lambda v: sample(s0=v)),
    ("sample_terminal_price", "t_total", lambda v: sample(t_total=v)),
    ("JobSpec", "s_max", lambda v: JobSpec(s_max=v)),
    ("build_grid", "s_max", lambda v: build_grid(contract(), s_max=v)),
]
NOT_A_NUMBER = [True, np.bool_(True), "7", None, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NOT_A_NUMBER, ids=repr)
@pytest.mark.parametrize(
    "field, build",
    [(field, build) for _, field, build in NUMBER_FIELDS],
    ids=[f"{owner}.{field}" for owner, field, _ in NUMBER_FIELDS],
)
def test_number_field_refuses_what_is_no_finite_real(field, build, value):
    with pytest.raises(ValidationError, match=rf"\b{field}\b"):
        build(value)


class TestHugeIntegers:
    # an int beyond the float range is a real number that no float holds
    def test_contract_names_the_field(self):
        with pytest.raises(ValidationError, match=r"\bstrike\b"):
            OptionContract(OptionKind.CALL, 10**400, 1.0, 7.0)

    def test_built_grid_names_the_field(self):
        with pytest.raises(ValidationError, match=r"\bs_max\b"):
            build_grid(contract(), s_max=10**400)

    def test_table_names_the_field_before_any_row_runs(self):
        with pytest.raises(ValidationError, match=r"\bstrike\b"):
            run_table([1.0], JobSpec(method="Exact", strike=10**400))


def test_numpy_scaling_is_held_and_reported_as_a_python_float():
    config = ThetaConfig(scaling=np.float32(2.0))
    assert type(config.scaling) is float
    c = contract()
    disc = build_grid(c, n_space=50, n_time=400)
    result = solve_mcfdm(c, MARKET, disc, config).result
    json.dumps(result.extra)
    # numpy promotes the float32 scalar to float64 exactly, so the price holds
    assert result.price == solve_mcfdm(c, MARKET, disc, ThetaConfig(scaling=2.0)).result.price


@pytest.mark.parametrize("integer", [np.int64, np.int32])
class TestNumpyCounts:
    def test_grid_holds_python_ints(self, integer):
        disc = grid(n_space=integer(10), n_time=integer(5))
        assert type(disc.n_space) is int and type(disc.n_time) is int
        assert disc == grid()

    def test_built_grid_reports_python_ints(self, integer):
        c = contract()
        disc = build_grid(c, n_space=integer(50), n_time=integer(400))
        extra = solve_mcfdm(c, MARKET, disc).result.extra
        assert type(extra["n_space"]) is int and type(extra["n_time"]) is int
        json.dumps(extra)

    def test_config_and_workers_report_python_ints(self, integer):
        config = McConfig(integer(100), seed=integer(7), n_time_steps=integer(2))
        assert config == McConfig(100, seed=7, n_time_steps=2)
        assert {type(getattr(config, name)) for name in config.__slots__} == {int}
        result = price_monte_carlo(contract(), MARKET, config, n_workers=integer(2))
        for name in ("paths", "seed", "n_time_steps", "n_workers"):
            assert type(result.extra[name]) is int, name
        json.dumps(result.extra)

    def test_sample_takes_a_numpy_step_count(self, integer):
        assert sample(n_steps=integer(2), normals=np.zeros((2, 3))).shape == (3,)

    def test_timing_echoes_python_int_repeats(self, integer):
        report = run_timing(JobSpec(method="MCFDM", n_space=20, n_time=100), repeats=integer(3))
        assert type(report.rows[0].metadata["repeats"]) is int
        json.loads(report.to_json())


# each number of an entry point's inputs comes as one of these types; the
# values below are exact in float16, so every type holds the same number
NUMBER_TYPES = [float, int, np.float64, np.float32, np.float16]
NORMALS = np.linspace(-2.0, 2.0, 10).reshape(2, 5)


def typed(kind, value):
    """``value`` as ``kind``, where ``int`` applies only to an integral value."""
    return value if kind is int and value != int(value) else kind(value)


def inputs(kind):
    """A 7 / 7.5 put, its market and a hand-built grid, every number a ``kind``."""
    v = lambda value: typed(kind, value)
    market = MarketParams(r=v(0.0625), sigma=v(0.25))
    put = OptionContract(OptionKind.PUT, v(7.5), v(1.0), v(7.0))
    disc = Discretization(s_max=v(16.0), n_space=32, n_time=128, ds=v(0.5))
    return v, market, put, disc


# every public entry point that takes a number, called on inputs(kind)
ENTRY_POINTS = {
    "solve_mcfdm": lambda v, m, c, d: solve_mcfdm(c, m, d, ThetaConfig(v(1.0))).result,
    "solve_crank_nicolson": lambda v, m, c, d: solve_crank_nicolson(c, m, d),
    "crank_nicolson_surface": lambda v, m, c, d: crank_nicolson_surface(c, m, d),
    "price_monte_carlo": lambda v, m, c, d: price_monte_carlo(c, m, McConfig(5000, 7, 2)),
    "black_scholes_price": lambda v, m, c, d: black_scholes_price(c, m),
    "risk_neutral_integral_price": lambda v, m, c, d: risk_neutral_integral_price(c, m),
    "max_stable_dt": lambda v, m, c, d: max_stable_dt(m, d, ThetaConfig(v(1.0))),
    "build_grid": lambda v, m, c, d: build_grid(c, n_space=32, n_time=128, s_max=v(16.0)),
    "sample_terminal_price": lambda v, m, c, d: sample_terminal_price(
        m, v(7.0), v(1.0), 2, NORMALS
    ),
    "std_normal_cdf": lambda v, m, c, d: std_normal_cdf(v(1.0)),
}


def held_bits(value):
    """The bits of a result, after checking that it holds no numpy scalar."""
    if isinstance(value, np.ndarray):
        assert value.dtype == np.float64
        return value.tobytes()
    if isinstance(value, PricingResult):
        # every float in extra is a Python float, and the report is JSON
        for name, item in value.extra.items():
            assert type(item) in (bool, int, float, str, type(None)), name
        json.dumps(value.extra)
        return (held_bits(value.price), held_bits(value.abs_error), repr(value.extra))
    if isinstance(value, Discretization):
        return tuple(held_bits(getattr(value, name)) for name in ("s_max", "ds"))
    assert type(value) is float
    return value.hex()


@pytest.mark.parametrize("kind", NUMBER_TYPES, ids=lambda kind: kind.__name__)
def test_input_types_hold_python_floats(kind):
    _, market, put, disc = inputs(kind)
    for owner, names in ((market, "r sigma"), (put, "strike maturity spot"), (disc, "s_max ds")):
        for name in names.split():
            assert type(getattr(owner, name)) is float, name
    assert (market, put, disc) == inputs(float)[1:]


@pytest.mark.parametrize("kind", NUMBER_TYPES, ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_gives_the_python_float_bits(entry, kind):
    # a float16 or float32 field must not lower the precision of a grid, a
    # price or its error against the closed form
    assert held_bits(ENTRY_POINTS[entry](*inputs(kind))) == held_bits(
        ENTRY_POINTS[entry](*inputs(float))
    )


def test_hand_built_float32_grid_is_checked_in_double_precision():
    # float32 0.28 times 100 is 28 in float32, but 28.00000011920929 as doubles
    with pytest.raises(ValidationError, match="inconsistent grid"):
        Discretization(
            s_max=np.float32(28.0), n_space=100, n_time=10, ds=np.float32(0.28)
        )
