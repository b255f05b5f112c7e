"""One rule per kind of input, at every public type and entry point.

A count is an integer of any type but bool, numpy's included, and is held
as a Python int. A number is a finite real that is not a bool.
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
    ThetaConfig,
    ValidationError,
    build_grid,
    price_monte_carlo,
    sample_terminal_price,
    solve_mcfdm,
)
from mcfdm.cli import JobSpec, run_table, run_timing

MARKET = MarketParams(r=0.05, sigma=0.25)


def contract(**fields):
    base = {"kind": OptionKind.CALL, "strike": 7.5, "maturity": 1.0, "spot": 7.0}
    return OptionContract(**{**base, **fields})


def grid(**fields):
    base = {"s_max": 10.0, "n_space": 10, "n_time": 5, "ds": 1.0, "dt": 0.1}
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
    ("Discretization", "dt", lambda v: grid(dt=v)),
    ("sample_terminal_price", "s0", lambda v: sample(s0=v)),
    ("sample_terminal_price", "t_total", lambda v: sample(t_total=v)),
    ("JobSpec", "s_max", lambda v: JobSpec(s_max=v)),
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
