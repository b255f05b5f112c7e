import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import pytest

import mcfdm
from mcfdm import (
    AlphaProfile,
    MarketParams,
    Method,
    OptionContract,
    OptionKind,
    PricingResult,
    ThetaConfig,
    ValidationError,
    black_scholes_price,
    build_grid,
    solve_crank_nicolson,
    solve_mcfdm,
)
from mcfdm.cli import (
    CSV_HEADER,
    JobSpec,
    ReportRow,
    TableReport,
    _build_parser,
    _exit_code,
    _job_from_args,
    format_error,
    jobspec_from_report,
    main,
    run_convergence,
    run_table,
    run_theta_study,
    run_timing,
)


def small_job(**overrides):
    base = {"paths": 4000, "n_space": 100, "n_time": 1000}
    base.update(overrides)
    return JobSpec(**base)


def oracle_for(job: JobSpec, maturity: float) -> float:
    contract = OptionContract(
        kind=OptionKind(job.kind), strike=job.strike,
        maturity=maturity, spot=job.spot,
    )
    return black_scholes_price(contract, MarketParams(r=job.rate, sigma=job.vol))


def direct_price(job: JobSpec) -> float:
    """The price of the job's grid engine, solved without the CLI."""
    contract = OptionContract(
        kind=OptionKind(job.kind), strike=job.strike,
        maturity=job.maturity, spot=job.spot,
    )
    market = MarketParams(r=job.rate, sigma=job.vol)
    disc = build_grid(contract, job.n_space, job.n_time, s_max=job.s_max)
    if job.method == "CFDM":
        return solve_crank_nicolson(contract, market, disc).price
    theta = ThetaConfig(
        job.theta_scale, job.theta_mode == "normalized", AlphaProfile(job.alpha)
    )
    return solve_mcfdm(contract, market, disc, theta).result.price


class TestFormatError:
    @pytest.mark.parametrize(
        ("value", "text"),
        [
            (0.00239, "2.39E-3"),
            (1.94e-3, "1.94E-3"),
            (0.0, "0.00E0"),
            (123.456, "1.23E2"),
            (0.0999999999, "1.00E-1"),
            (1e-10, "1.00E-10"),
            (2.39, "2.39E0"),
        ],
    )
    def test_two_digit_mantissa_and_bare_exponent(self, value, text):
        assert format_error(value) == text

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_is_named(self, value):
        with pytest.raises(ValidationError, match=repr(value)):
            format_error(value)


class TestJobSpec:
    def test_defaults_mirror_the_benchmark_contract(self):
        job = JobSpec()
        assert (job.spot, job.strike, job.rate, job.vol) == (5.0, 5.5, 0.05, 0.25)
        assert (job.n_space, job.n_time, job.paths, job.seed) == (100, 1000, 100_000, 42)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "Simplex"},
            {"kind": "straddle"},
            {"theta_mode": "raw"},
            {"alpha": "quadratic"},
            {"fmt": "yaml"},
            {"s_max": "huge"},
        ],
    )
    def test_rejects_unknown_tokens(self, kwargs):
        with pytest.raises(ValidationError):
            JobSpec(**kwargs)

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"kind": "straddle"}, "kind must be 'call' or 'put', got 'straddle'"),
            (
                {"theta_mode": "raw"},
                "theta_mode must be 'normalized' or 'literal', got 'raw'",
            ),
            (
                {"alpha": "quadratic"},
                "alpha must be 'constant' or 'proportional', got 'quadratic'",
            ),
            ({"fmt": "yaml"}, "fmt must be 'table', 'csv', or 'json', got 'yaml'"),
        ],
    )
    def test_word_field_names_its_allowed_words(self, kwargs, message):
        with pytest.raises(ValidationError) as info:
            JobSpec(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"spot": "7"}, "job field spot must be float, got '7'"),
            ({"vol": None}, "job field vol must be float, got None"),
            ({"theta_scale": "1"}, "job field theta_scale must be float, got '1'"),
            ({"allow_unstable": "yes"}, "job field allow_unstable must be bool, got 'yes'"),
            ({"n_space": 100.0}, "job field n_space must be int, got 100.0"),
            ({"seed": True}, "job field seed must be int, got True"),
            ({"mc_steps": 2.5}, "job field mc_steps must be int | None, got 2.5"),
        ],
        ids=["spot", "vol", "theta_scale", "allow_unstable", "n_space", "seed", "mc_steps"],
    )
    def test_field_of_the_wrong_type_is_rejected(self, kwargs, message):
        # a library caller's job is checked as a replayed report's is
        with pytest.raises(ValidationError) as info:
            JobSpec(**kwargs)
        assert str(info.value) == message


class TestRunPrice:
    # ``mcfdm price`` runs a one-maturity table
    def test_all_methods_yield_four_results(self):
        job = small_job()
        rows = run_table([job.maturity], job).rows
        assert [r.method for r in rows] == ["MCFDM", "CFDM", "MonteCarlo", "Exact"]
        exact = oracle_for(job, 1.0)
        for r in rows:
            assert r.abs_error == pytest.approx(abs(r.price - exact), abs=1e-15)

    def test_single_method_matches_direct_solver_call(self):
        job = small_job(method="MCFDM", spot=7.0, strike=7.5)
        (row,) = run_table([job.maturity], job).rows
        contract = OptionContract(
            kind=OptionKind.CALL, strike=7.5, maturity=1.0, spot=7.0
        )
        direct = solve_mcfdm(
            contract,
            MarketParams(r=0.05, sigma=0.25),
            build_grid(contract),
            ThetaConfig(),
        )
        assert row.price == direct.result.price

    def test_bad_arguments_raise_rather_than_record(self):
        job = small_job(vol=-3.0)
        with pytest.raises(ValidationError):
            run_table([job.maturity], job)


class TestRunTable:
    def test_exact_rows_carry_zero_error(self):
        report = run_table([1.0], small_job(method="Exact"))
        (row,) = report.rows
        assert row.price == pytest.approx(oracle_for(small_job(), 1.0), abs=1e-15)
        assert row.abs_error == 0.0

    def test_rows_are_method_major(self):
        report = run_table([0.25, 1.0], small_job())
        labels = [(r.method, r.maturity_years) for r in report.rows]
        assert labels == [
            ("MCFDM", 0.25), ("MCFDM", 1.0),
            ("CFDM", 0.25), ("CFDM", 1.0),
            ("MonteCarlo", 0.25), ("MonteCarlo", 1.0),
            ("Exact", 0.25), ("Exact", 1.0),
        ]

    def test_unstable_row_is_recorded_not_raised(self):
        report = run_table([1.0], small_job(n_time=100))
        by_method = {row.method: row for row in report.rows}
        assert by_method["MCFDM"].error_kind == "stability"
        assert "dt_max" in by_method["MCFDM"].error
        assert by_method["CFDM"].price is not None
        assert by_method["Exact"].error is None
        assert _exit_code(report) == 3
        assert "ERROR[stability]" in report.to_text()

    @pytest.mark.parametrize("theta_scale", [1.0, 30.0])
    def test_mcfdm_row_metadata_carries_the_solver_diagnostics(self, theta_scale):
        # the JSON row repeats the solver's cfl_margin and oscillation flag;
        # k = 30 on this put oscillates
        job = small_job(method="MCFDM", kind="put", theta_scale=theta_scale)
        (row,) = json.loads(run_table([1.0], job).to_json())["rows"]
        c = OptionContract(kind=OptionKind.PUT, strike=5.5, maturity=1.0, spot=5.0)
        extra = solve_mcfdm(
            c, MarketParams(r=0.05, sigma=0.25), build_grid(c), ThetaConfig(theta_scale)
        ).result.extra
        assert row["metadata"]["cfl_margin"] == extra["cfl_margin"]
        assert row["metadata"]["oscillation"] is extra["oscillation"]
        assert extra["oscillation"] is (theta_scale == 30.0)

    @pytest.mark.parametrize(
        ("method", "unused"),
        [
            ("MonteCarlo", {"n_space": 3}),
            ("Exact", {"s_max": 4.0}),
            ("CFDM", {"paths": 0}),
            ("MCFDM", {"seed": -1}),
        ],
    )
    def test_each_method_builds_only_the_inputs_it_uses(self, method, unused):
        # the field is invalid for the other methods' inputs: a grid, a
        # Monte Carlo config
        report = run_table([0.5], small_job(method=method, **unused))
        (row,) = report.rows
        assert (row.method, row.error) == (method, None)
        assert _exit_code(report) == 0

    def test_bad_maturity_rejected_before_rows_run(self):
        with pytest.raises(ValidationError):
            run_table([1.0, -2.0], small_job())


class TestRunTiming:
    def test_too_few_repeats_rejected(self):
        with pytest.raises(ValidationError):
            run_timing(small_job(), repeats=2)

    def test_numerical_methods_only_with_median_seconds(self):
        job = small_job(maturity=0.25, n_space=50, n_time=100, paths=2000)
        report = run_timing(job, repeats=3)
        assert [r.method for r in report.rows] == ["MCFDM", "CFDM", "MonteCarlo"]
        for row in report.rows:
            assert row.error is None
            assert row.elapsed_seconds > 0.0
            assert row.metadata["repeats"] == 3
        mc = report.rows[-1]
        assert mc.metadata["mc_steps"] == 100

    @pytest.mark.parametrize("repeats", [3.5, "5", True, None])
    def test_repeats_of_the_wrong_type_rejected_before_rows_run(
        self, monkeypatch, repeats
    ):
        for engine in _ENGINES:
            monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
        with pytest.raises(ValidationError, match="repeats must be"):
            run_timing(small_job(), repeats=repeats)

    def test_mc_steps_override_survives_timing(self):
        job = small_job(
            method="MonteCarlo", maturity=0.25, paths=2000, mc_steps=7
        )
        report = run_timing(job, repeats=3)
        assert report.rows[0].metadata["mc_steps"] == 7


class TestRunThetaStudy:
    def test_unit_scale_reproduces_the_plain_solve(self):
        job = small_job(method="MCFDM")
        report = run_theta_study([1.0], job)
        contract = OptionContract(
            kind=OptionKind.CALL, strike=5.5, maturity=1.0, spot=5.0
        )
        direct = solve_mcfdm(
            contract, MarketParams(r=0.05, sigma=0.25), build_grid(contract)
        )
        assert report.rows[0].price == direct.result.price

    def test_scalings_sorted_and_echoed(self):
        report = run_theta_study([2.0, 0.5, 1.0], small_job())
        assert [r.metadata["theta_scale"] for r in report.rows] == [0.5, 1.0, 2.0]
        assert report.provenance["scalings"] == [0.5, 1.0, 2.0]

    def test_negative_scale_rejected(self):
        with pytest.raises(ValidationError):
            run_theta_study([1.0, -0.5], small_job())

    def test_each_row_solves_its_own_scaling(self):
        job = small_job(
            method="MCFDM", kind="put", spot=7.0, strike=7.5, theta_mode="literal"
        )
        report = run_theta_study([2.0, 0.0, 0.5], job)
        assert [r.price for r in report.rows] == [
            direct_price(dataclasses.replace(job, theta_scale=k))
            for k in (0.0, 0.5, 2.0)
        ]

    def test_base_job_checked_before_any_row_runs(self, monkeypatch):
        # the one scaling is valid; only the base job, which is echoed and
        # not run, holds a negative k
        for engine in _ENGINES:
            monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
        with pytest.raises(ValidationError, match="scaling must be finite and >= 0"):
            run_theta_study([1.0], small_job(theta_scale=-1.0))

    def test_oscillation_flag_reaches_the_report(self):
        job = small_job(kind="put")
        report = run_theta_study([30.0], job)
        assert report.rows[0].metadata["oscillation"] is True
        assert "oscillation" in report.to_text()


class TestRunConvergence:
    def test_all_method_rejected(self):
        with pytest.raises(ValidationError):
            run_convergence([(50, 2000)], small_job(method="All"))

    @pytest.mark.parametrize("method", ["MCFDM", "CFDM"])
    def test_each_row_solves_its_own_grid(self, method):
        job = small_job(
            method=method, kind="put", spot=7.0, strike=7.5, maturity=0.5,
            theta_scale=2.0, theta_mode="literal", alpha="proportional",
        )
        grids = [(50, 500), (100, 1000), (80, 700)]
        report = run_convergence(grids, job)
        assert [r.error for r in report.rows] == [None] * 3
        assert [r.price for r in report.rows] == [
            direct_price(dataclasses.replace(job, n_space=ns, n_time=nt))
            for ns, nt in grids
        ]

    def test_orders_appear_after_the_first_refinement(self):
        job = small_job(
            method="CFDM", spot=7.0, strike=7.5, s_max=350.0 / 12.0
        )
        grids = [(50, 2000), (100, 2000), (200, 2000)]
        report = run_convergence(grids, job)
        assert "observed_order" not in report.rows[0].metadata
        for row in report.rows[1:]:
            assert row.metadata["observed_order"] > 1.5
        errors = [r.abs_error for r in report.rows]
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize(
        ("grids", "message"),
        [
            ([(50,)], "grid must be a pair of ints"),
            ([(50, 400, 7)], "grid must be a pair of ints"),
            (["50:400"], "grid must be a pair of ints"),
            # each grid builds its job, which checks the counts' type
            ([(50, 400.0)], "job field n_time must be int, got 400.0"),
            ([(50, 400), None], "grid must be a pair of ints"),
        ],
        ids=["one-number", "three-numbers", "replayed-string", "float", "none"],
    )
    def test_grid_that_is_not_a_pair_of_ints_is_rejected(self, monkeypatch, grids, message):
        for engine in _ENGINES:
            monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
        with pytest.raises(ValidationError, match=message):
            run_convergence(grids, small_job(method="CFDM", n_time=400))

    def test_failed_rung_is_skipped_by_the_next_order(self):
        # 100:100 is past the stability bound; the order of 200:3000 is then
        # taken against 50:400, the last rung that priced
        grids = [(50, 400), (100, 100), (200, 3000)]
        first, failed, third = run_convergence(grids, JobSpec(method="MCFDM")).rows
        assert failed.error_kind == "stability"
        assert "observed_order" not in failed.metadata
        expected = math.log(first.abs_error / third.abs_error) / math.log(
            first.metadata["ds"] / third.metadata["ds"]
        )
        assert third.metadata["observed_order"] == expected
        assert expected == pytest.approx(4.55, abs=0.01)

    def test_repeated_grid_gets_no_order_estimate(self):
        job = small_job(method="CFDM", n_time=200, maturity=0.25)
        report = run_convergence([(50, 200), (50, 200)], job)
        assert report.rows[0].abs_error == report.rows[1].abs_error
        assert "observed_order" not in report.rows[1].metadata


_ENGINES = (
    "solve_mcfdm", "solve_crank_nicolson", "price_monte_carlo", "_exact",
)


def _fail_if_called(*args, **kwargs):
    raise AssertionError("an engine ran before the job was validated")


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_table([0.25, 1.0, -1.0], small_job()),
        lambda: run_convergence(
            [(50, 400), (3, 400)], small_job(method="CFDM", n_time=400)
        ),
        lambda: run_theta_study([0.5, 1.0], small_job(theta_scale=-1.0)),
        lambda: run_table([1.0], small_job(method="CFDM", theta_scale=-1.0)),
        lambda: run_table([1.0], small_job(method="MonteCarlo", paths=0)),
        lambda: run_convergence([(50, 400)], small_job(method="MonteCarlo")),
        lambda: run_convergence([(50, 400)], small_job(method="Exact")),
        lambda: run_table([0.25, -1.0], small_job(n_space=3)),
        lambda: run_table([], small_job()),
        lambda: run_theta_study([], small_job()),
        lambda: run_convergence([], small_job(method="CFDM")),
    ],
    ids=["table-last-maturity", "convergence-grid", "theta-study-base-scale",
         "cfdm-theta-scale", "mc-paths", "convergence-mc", "convergence-exact",
         "table-maturity-and-grid", "table-empty", "theta-study-empty",
         "convergence-empty"],
)
def test_bad_input_fails_before_any_row_runs(monkeypatch, run):
    for engine in _ENGINES:
        monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
    with pytest.raises(ValidationError):
        run()


@pytest.mark.parametrize(
    ("run", "name"),
    [(run_table, "maturity"), (run_theta_study, "scaling"), (run_convergence, "grid")],
)
def test_empty_maturity_list_rejected(monkeypatch, run, name):
    for engine in _ENGINES:
        monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
    with pytest.raises(ValidationError, match=f"^{name} list must be nonempty$"):
        run([], small_job(method="CFDM"))


@pytest.mark.parametrize("run", [run_table, run_theta_study])
@pytest.mark.parametrize(
    "values", [["1"], [True], [1.0, "2"], [None]], ids=["str", "bool", "mixed", "none"]
)
def test_list_entry_that_is_not_a_number_is_rejected(monkeypatch, run, values):
    # a replayed report's maturities or scalings are untyped JSON
    for engine in ("solve_mcfdm", "solve_crank_nicolson", "price_monte_carlo"):
        monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
    with pytest.raises(ValidationError, match="must be float"):
        run(values, small_job(method="Exact"))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFinitePrice:
    # past the stability bound the k = 30 march overflows to NaN
    ARGS = [
        "price", "--method", "mcfdm", "--theta-scale", "30", "--allow-unstable",
        "--n-space", "400", "--n-time", "1000",
    ]

    @pytest.fixture(scope="class")
    def report(self):
        job = small_job(
            method="MCFDM", theta_scale=30.0, allow_unstable=True, n_space=400
        )
        return run_table([1.0], job)

    def test_row_records_a_solver_failure(self, report):
        (row,) = report.rows
        assert row.price is None and row.abs_error is None
        assert row.error_kind == "solver"
        assert "nan" in row.error
        assert _exit_code(report) == 2

    def test_every_renderer_prints_the_failed_row(self, report):
        assert "ERROR[solver]: " in report.to_text()
        data = [l for l in report.to_csv().splitlines() if not l.startswith("# ")]
        assert list(csv.reader(data[1:]))[0][:4] == ["MCFDM", "1", "", ""]
        (row,) = json.loads(report.to_json())["rows"]
        assert (row["price"], row["error_kind"]) == (None, "solver")

    @pytest.mark.parametrize(
        ("fmt", "failed_row"),
        [
            ("table", "ERROR[solver]: "),
            ("csv", "\nMCFDM,1,,,"),
            ("json", '"error_kind": "solver"'),
        ],
    )
    def test_cli_prints_the_report_and_exits_two(self, fmt, failed_row, capsys):
        assert main([*self.ARGS, "--format", fmt]) == 2
        assert failed_row in capsys.readouterr().out


def _strict_json(text: str):
    def refuse(constant):
        raise AssertionError(f"the report holds {constant}, which is not JSON")

    return json.loads(text, parse_constant=refuse)


def _overflow(*args, **kwargs):
    """Python-float arithmetic that overflows, as ds**2 did on a grid bound
    near 1e200."""
    return 1e200**2


class TestOverflowingSolve:
    # no input of the priced domain overflows an engine's Python floats, so
    # the grid operator is stubbed to overflow at the domain's edge
    @pytest.fixture(autouse=True)
    def overflowing_grid(self, monkeypatch):
        monkeypatch.setattr("mcfdm.model._operator", _overflow)

    def test_price_records_both_grid_rows_and_prices_the_rest(self, capsys):
        argv = ["price", "--s-max", "1e100", "--paths", "2000", "--format", "json"]
        assert main(argv) == 2
        rows = _strict_json(capsys.readouterr().out)["rows"]
        failed = {r["method"]: r for r in rows if r["error"] is not None}
        assert sorted(failed) == ["CFDM", "MCFDM"]
        for row in failed.values():
            assert row["error_kind"] == "solver"
            assert row["error"].startswith("OverflowError: ")
        assert [r["price"] is not None for r in rows] == [False, False, True, True]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_theta_study_prints_its_report_and_exits_two(self, capsys, fmt):
        argv = ["theta-study", "--spot", "1e100", "--strike", "1e100", "--format", fmt]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("OverflowError") == 3


class TestStabilityBoundThatUnderflows:
    # k = 1e308 puts dt_max at ~2e-309, or at 0.0 with r = 10
    @pytest.mark.parametrize("rate", [[], ["--rate", "10"]], ids=["tiny", "zero"])
    def test_theta_study_reports_a_stability_row_and_exits_three(self, capsys, rate):
        assert main(["theta-study", "--scaling", "1e308", *rate]) == 3
        out = capsys.readouterr().out
        assert "ERROR[stability]: " in out
        assert "no time grid meets the bound; use allow_unstable=True" in out

    def test_nan_bound_reports_a_stability_row_and_exits_three(self, capsys):
        # at r = 0 the overflowing literal theta leaves no stable step
        argv = ["theta-study", "--scaling", "1e308", "--rate", "0",
                "--theta-mode", "literal", "--n-space", "2000", "--n-time", "10"]
        assert main(argv) == 3
        out = capsys.readouterr().out
        assert "ERROR[stability]: " in out
        assert "dt_max=0.000000e+00; no time grid meets the bound" in out


class TestWidePriceInText:
    @staticmethod
    def _price_cell(price):
        row = ReportRow(
            method="Exact", maturity_years=1.0, price=price, abs_error=0.0,
            elapsed_seconds=0.0,
        )
        line = TableReport(provenance={}, rows=(row,)).to_text().splitlines()[-1]
        # method takes 12 columns and maturity 10, then the 14-wide price
        return line[22:36]

    @pytest.mark.parametrize(
        ("price", "cell"),
        [
            (0.0, "       0.00000"),
            (0.52316, "       0.52316"),
            (9999999.99999, " 9999999.99999"),
            (-999999.5, " -999999.50000"),
        ],
    )
    def test_price_that_fits_keeps_five_decimals(self, price, cell):
        assert self._price_cell(price) == cell

    @pytest.mark.parametrize(
        ("price", "cell"),
        [
            (123359989303.68726, "    1.2336e+11"),
            (1e7, "         1e+07"),
            (-1.5e6, "      -1.5e+06"),
            (-1.2345678e200, " -1.23457e+200"),
        ],
    )
    def test_wide_price_keeps_a_space_before_its_column(self, price, cell):
        assert self._price_cell(price) == cell


class TestNonFiniteRowFields:
    MC_ARGV = ["price", "--method", "mc", "--paths", "2000", "--format", "json"]

    def test_monte_carlo_standard_error_that_is_nan_fails_its_row(self, monkeypatch, capsys):
        result = PricingResult(
            method=Method.MONTE_CARLO, price=0.4, abs_error=0.0, elapsed_seconds=0.0,
            extra={"se": math.nan},
        )
        monkeypatch.setattr("mcfdm.cli.price_monte_carlo", lambda *args: result)
        assert main(self.MC_ARGV) == 2
        (row,) = _strict_json(capsys.readouterr().out)["rows"]
        assert row["price"] is None and row["error_kind"] == "solver"
        assert row["error"] == "solver returned a non-finite se nan"

    def test_monte_carlo_standard_error_of_huge_payoffs_is_finite(self, capsys):
        # squared payoffs near 1e200 once overflowed and made the se NaN; at
        # the domain's largest spot and strike they stay finite
        assert main([*self.MC_ARGV, "--spot", "1e100", "--strike", "1e100"]) == 0
        (row,) = _strict_json(capsys.readouterr().out)["rows"]
        assert row["error"] is None
        assert 0.0 < row["metadata"]["se"] < row["price"]

    @pytest.mark.parametrize(
        ("result", "message"),
        [
            ({"abs_error": math.inf}, "solver returned a non-finite abs_error inf"),
            ({"extra": {"se": math.nan}}, "solver returned a non-finite se nan"),
        ],
        ids=["abs_error", "se"],
    )
    def test_every_renderer_prints_the_failed_row(self, monkeypatch, result, message):
        fields = {"method": Method.MONTE_CARLO, "price": 0.4, "abs_error": 0.0,
                  "elapsed_seconds": 0.0, **result}
        monkeypatch.setattr(
            "mcfdm.cli.price_monte_carlo", lambda *args: PricingResult(**fields)
        )
        report = run_table([1.0], small_job(method="MonteCarlo"))
        assert report.rows[0].error == message
        assert f"ERROR[solver]: {message}" in report.to_text()
        assert f",{message},solver" in report.to_csv()
        assert _strict_json(report.to_json())["rows"][0]["error"] == message


class TestReportFormats:
    def test_csv_header_is_the_contract_line(self):
        report = run_table([1.0], small_job(method="Exact"))
        lines = report.to_csv().splitlines()
        comments = [l for l in lines if l.startswith("# ")]
        data = [l for l in lines if not l.startswith("# ")]
        assert data[0] == CSV_HEADER
        assert any(l.startswith("# tool: mcfdm") for l in comments)
        assert any(l.startswith("# generated_at: ") for l in comments)
        parsed = list(csv.reader(data))
        assert len(parsed) == 2
        assert parsed[1][0] == "Exact"

    def test_csv_maturity_reads_back_as_the_same_float(self):
        maturities = [0.1, 1.0000001]
        text = run_table(maturities, JobSpec(method="Exact")).to_csv()
        data = [l for l in text.splitlines() if not l.startswith("# ")]
        cells = [row["maturity_years"] for row in csv.DictReader(data)]
        assert [float(cell) for cell in cells] == maturities

    @pytest.mark.parametrize("value", [1.0, 1.0000001, 0.1, 1e308])
    def test_text_maturity_and_scaling_read_back_as_the_same_float(self, value):
        row = ReportRow(
            method="MCFDM", maturity_years=value, price=0.5, abs_error=0.0,
            elapsed_seconds=0.0, metadata={"theta_scale": value},
        )
        line = TableReport(provenance={}, rows=(row,)).to_text().splitlines()[-1]
        cells = line.split()
        assert float(cells[1]) == value
        assert cells[-1].startswith("k=") and float(cells[-1][2:]) == value

    @staticmethod
    def _csv_fingerprint(text: str):
        comments, rows = [], []
        for line in text.splitlines():
            if line.startswith("# generated_at"):
                continue
            if line.startswith("# "):
                comments.append(line)
            else:
                rows.append(line)
        parsed = list(csv.reader(rows))
        for row in parsed[1:]:
            row[4] = "ELAPSED"
        return comments, parsed

    def test_csv_output_is_deterministic_up_to_clocks(self):
        job = small_job(fmt="csv")
        first = run_table([0.25, 1.0], job).to_csv()
        second = run_table([0.25, 1.0], job).to_csv()
        assert self._csv_fingerprint(first) == self._csv_fingerprint(second)

    @staticmethod
    def _json_fingerprint(text: str):
        payload = json.loads(text)
        payload["provenance"]["generated_at"] = "MASKED"
        for row in payload["rows"]:
            row["elapsed_seconds"] = None
        return payload

    def test_json_output_is_deterministic_up_to_clocks(self):
        job = small_job(fmt="json")
        first = run_table([0.5], job).to_json()
        second = run_table([0.5], job).to_json()
        assert self._json_fingerprint(first) == self._json_fingerprint(second)

    def test_json_error_text_matches_recomputed_error(self):
        payload = json.loads(run_table([0.25, 0.5, 1.0], small_job()).to_json())
        job = jobspec_from_report(payload)
        checked = 0
        for row in payload["rows"]:
            if row["price"] is None or row["method"] == "MonteCarlo":
                continue
            expected = abs(row["price"] - oracle_for(job, row["maturity_years"]))
            assert row["abs_error_text"] == format_error(expected)
            checked += 1
        assert checked >= 6

    def test_jobspec_round_trips_through_the_provenance_echo(self):
        job = small_job(method="CFDM", kind="put", spot=7.0, strike=7.5, seed=11)
        payload = json.loads(run_table([1.0], job).to_json())
        rebuilt = jobspec_from_report(payload)
        from dataclasses import replace

        assert rebuilt == replace(job, mc_steps=1)
        rerun = run_table(payload["provenance"]["maturities"], rebuilt)
        assert rerun.rows[0].price == payload["rows"][0]["price"]

    def test_provenance_records_the_environment(self):
        import numpy
        import scipy

        report = run_table([1.0], small_job(method="CFDM"))
        assert report.provenance["python"] == "{}.{}.{}".format(*sys.version_info[:3])
        assert report.provenance["numpy"] == numpy.__version__
        assert report.provenance["scipy"] == scipy.__version__
        assert report.provenance["cpu_count"] == os.cpu_count()

    def test_scipy_key_reads_only_the_reports_own_rows(self):
        # an earlier Crank-Nicolson call in this process loaded scipy
        run_table([1.0], JobSpec(method="CFDM"))
        assert run_theta_study([1.0], JobSpec()).provenance["scipy"] is None
        assert run_table([1.0], JobSpec(method="MCFDM")).provenance["scipy"] is None

    @pytest.mark.parametrize(
        "report",
        [{"provenance": {"job": "xy"}}, {"provenance": {"job": [["spot", 7.0]]}}],
        ids=["string", "pairs"],
    )
    def test_provenance_job_that_is_no_object_is_rejected(self, report):
        with pytest.raises(ValidationError, match="provenance.job must be a JSON object"):
            jobspec_from_report(report)

    def test_jobspec_rejects_unknown_provenance_fields(self):
        payload = json.loads(run_table([1.0], small_job(method="Exact")).to_json())
        payload["provenance"]["job"]["stencil"] = "upwind"
        with pytest.raises(ValidationError):
            jobspec_from_report(payload)
        with pytest.raises(ValidationError):
            jobspec_from_report({"rows": []})

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("spot", "7"),
            ("rate", "0.05"),
            ("theta_scale", "1"),
            ("vol", None),
            ("spot", True),
            ("mc_steps", 2.5),
            # an Exact job builds no grid, so only the job check sees these
            ("s_max", math.nan),
            ("s_max", math.inf),
            ("s_max", -3.0),
            ("s_max", 0),
        ],
    )
    def test_replayed_field_of_the_wrong_type_is_rejected(self, name, value):
        payload = json.loads(run_table([1.0], small_job(method="Exact")).to_json())
        payload["provenance"]["job"][name] = value
        with pytest.raises(ValidationError):
            run_table([1.0], jobspec_from_report(payload))

    def test_csv_failed_row_carries_its_error(self):
        job = small_job(method="MCFDM", kind="put", theta_scale=80.0)
        report = run_table([1.0], job)
        data = [l for l in report.to_csv().splitlines() if not l.startswith("# ")]
        (row,) = csv.DictReader(data)
        assert row["error_kind"] == "stability"
        assert row["error"] == report.rows[0].error
        assert "exceeds the stable bound" in row["error"]


class TestExitCodeMapping:
    @staticmethod
    def _report(error_kind):
        row = ReportRow(
            method="MCFDM", maturity_years=1.0, price=None, abs_error=None,
            elapsed_seconds=None, error="boom", error_kind=error_kind,
        )
        return TableReport(provenance={}, rows=(row,))

    def test_kinds_map_to_documented_codes(self):
        assert _exit_code(self._report(None)) == 0
        assert _exit_code(self._report("stability")) == 3
        assert _exit_code(self._report("solver")) == 2
        assert _exit_code(self._report("invalid")) == 2

    def test_solver_failure_outranks_stability(self):
        stability = self._report("stability").rows[0]
        solver = self._report("solver").rows[0]
        report = TableReport(provenance={}, rows=(stability, solver))
        assert _exit_code(report) == 2


_SUBCOMMANDS = ("price", "table", "timing", "theta-study", "convergence")


class TestParser:
    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    def test_no_flags_parse_to_the_default_job(self, command):
        args = _build_parser().parse_args([command])
        assert _job_from_args(args, maturity=0.5) == JobSpec(maturity=0.5)

    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    def test_every_job_field_but_maturity_has_one_flag(self, command):
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        own = {"help", "maturity", "repeats", "scaling", "grid"}
        dests = [a.dest for a in sub.choices[command]._actions if a.dest not in own]
        names = [f.name for f in dataclasses.fields(JobSpec) if f.name != "maturity"]
        assert sorted(dests) == sorted(names)


class TestMain:
    def test_price_exact_json_to_stdout(self, capsys):
        code = main([
            "price", "--method", "exact", "--maturity", "0.5",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["price"] == pytest.approx(
            0.21128911964800356, abs=1e-15
        )

    def test_huge_volatility_prices_the_asset(self, capsys):
        # at the domain's bound rT + 8.3 sigma sqrt(T) = 100 the closed form
        # is within 1e-8 of its sigma -> inf limit S0
        assert main(["price", "--vol", "12.04", "--method", "exact"]) == 0
        assert "     5.00000    (0.00E0)" in capsys.readouterr().out

    def test_invalid_argument_exits_one(self, capsys):
        assert main(["price", "--vol", "-3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stability_rejection_exits_three(self, capsys):
        code = main(["price", "--method", "mcfdm", "--n-time", "100"])
        assert code == 3
        out = capsys.readouterr().out
        assert "ERROR[stability]" in out

    def test_allow_unstable_overrides_the_gate(self, capsys):
        code = main([
            "price", "--method", "mcfdm", "--n-time", "100", "--allow-unstable",
        ])
        assert code == 0
        capsys.readouterr()

    def test_out_file_receives_the_report(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code = main([
            "price", "--method", "mc", "--paths", "2000",
            "--format", "csv", "--out", str(target),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        lines = target.read_text(encoding="utf-8").splitlines()
        data = [l for l in lines if not l.startswith("# ")]
        assert data[0] == CSV_HEADER
        assert data[1].startswith("MonteCarlo,")

    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_out_that_cannot_be_written_exits_one_before_rows_run(
        self, tmp_path, monkeypatch, capsys, where
    ):
        for engine in _ENGINES:
            monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
        out = tmp_path / "no" / "r.json" if where == "missing-parent" else tmp_path
        assert main(["price", "--method", "exact", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out ")
        assert captured.err.count("\n") == 1

    def test_failed_write_is_a_one_line_error(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("mcfdm.cli.Path.write_text", refuse)
        target = tmp_path / "r.json"
        assert main(["price", "--method", "exact", "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: cannot write the report: [Errno 13] Permission denied\n"
        assert not target.exists()

    @pytest.mark.parametrize(
        ("word", "methods"),
        [
            ("mcfdm", ["MCFDM"]),
            ("cfdm", ["CFDM"]),
            ("cn", ["CFDM"]),
            ("mc", ["MonteCarlo"]),
            ("montecarlo", ["MonteCarlo"]),
            ("Monte-Carlo", ["MonteCarlo"]),
            ("exact", ["Exact"]),
            ("all", ["MCFDM", "CFDM", "MonteCarlo", "Exact"]),
        ],
    )
    def test_method_aliases_accepted(self, capsys, word, methods):
        argv = ["price", "--method", word, "--n-space", "50", "--n-time", "400"]
        assert main([*argv, "--paths", "2000", "--format", "csv"]) == 0
        data = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("# ")]
        assert [row["method"] for row in csv.DictReader(data)] == methods

    def test_table_defaults_cover_three_maturities(self, capsys):
        code = main([
            "table", "--method", "exact", "--format", "csv",
        ])
        assert code == 0
        data = [
            l for l in capsys.readouterr().out.splitlines()
            if not l.startswith("# ")
        ]
        maturities = [row[1] for row in csv.reader(data[1:])]
        assert maturities == ["0.25", "0.5", "1"]

    @pytest.mark.parametrize(
        ("argv", "echo_key", "row_value"),
        [
            (["table", "--method", "exact"], "maturities", lambda row: row["maturity_years"]),
            (["theta-study"], "scalings", lambda row: row["metadata"]["theta_scale"]),
            (
                ["convergence", "--method", "cfdm"],
                "grids",
                lambda row: f"{row['metadata']['n_space']}:{row['metadata']['n_time']}",
            ),
        ],
    )
    def test_sweep_defaults_run_the_values_its_help_names(
        self, capsys, argv, echo_key, row_value
    ):
        assert main([argv[0], "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        named = help_text.split("defaults to ", 1)[1].split()
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        echoed = payload["provenance"][echo_key]
        assert [str(value) for value in echoed] == named
        assert [row_value(row) for row in payload["rows"]] == echoed

    def test_price_report_names_price(self, capsys):
        assert main(["price", "--method", "exact", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["provenance"]["subcommand"] == "price"
        # the library call behind price still names its own subcommand
        assert run_table([1.0], JobSpec(method="Exact")).provenance["subcommand"] == "table"

    @pytest.mark.parametrize("method", ["mc", "exact"])
    def test_convergence_of_an_engine_without_a_grid_exits_one(
        self, monkeypatch, capsys, method
    ):
        # Monte Carlo and the closed form ignore the grid: a ladder shows nothing
        for engine in _ENGINES:
            monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
        assert main(["convergence", "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: convergence refines a grid")

    @pytest.mark.parametrize("s_max", ["nan", "inf", "-3"])
    def test_s_max_flag_that_is_not_finite_and_positive_exits_one(self, capsys, s_max):
        argv = ["price", "--method", "exact", "--s-max", s_max, "--format", "json"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: s_max must be finite and > 0")

    def test_convergence_with_an_unstable_rung_exits_three(self, capsys):
        argv = [
            "convergence", "--method", "mcfdm",
            "--grid", "50:400", "--grid", "100:100", "--grid", "200:3000",
        ]
        assert main(argv) == 3
        assert "ERROR[stability]" in capsys.readouterr().out

    def test_s_max_flag_that_is_not_a_number_exits_one(self, monkeypatch, capsys):
        for engine in _ENGINES:
            monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
        assert main(["price", "--s-max", "abc"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--s-max must be 'auto' or a number, got 'abc'" in captured.err

    def test_extreme_moneyness_prints_every_row(self, capsys):
        # S0 / K at the domain's corner 1e-200, where every engine prices
        argv = ["price", "--spot", "1e-100", "--strike", "1e100", "--format", "json"]
        assert main(argv) == 0
        rows = _strict_json(capsys.readouterr().out)["rows"]
        assert [r["method"] for r in rows] == ["MCFDM", "CFDM", "MonteCarlo", "Exact"]
        assert [r["error_kind"] for r in rows] == [None, None, None, None]
        assert rows[3]["price"] == 0.0

    def test_overflowing_moneyness_at_no_volatility_prints_every_row(self, capsys):
        # S0 / K at the domain's corner 1e200 and sigma sqrt(T) rounds to 0,
        # where the closed form once divided by zero; every engine prices
        argv = [
            "price", "--spot", "1e100", "--strike", "1e-100", "--rate", "0",
            "--vol", "1e-320", "--maturity", "1e-12", "--format", "json",
        ]
        assert main(argv) == 0
        rows = _strict_json(capsys.readouterr().out)["rows"]
        assert [r["method"] for r in rows] == ["MCFDM", "CFDM", "MonteCarlo", "Exact"]
        assert [r["error_kind"] for r in rows] == [None, None, None, None]
        assert rows[2]["metadata"]["se"] == 0.0
        assert rows[3]["price"] == 1e100

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [
            ("--spot", "1e200", "spot must be in [1e-100, 1e100], got 1e+200"),
            ("--vol", "1e300", "r*T + 8.3*sigma*sqrt(T) must be <= 100, got 8.300000000000001e+300"),
            ("--rate", "1000", "r*T + 8.3*sigma*sqrt(T) must be <= 100, got 1002.075"),
            ("--s-max", "1e200", "s_max must be <= 1e101, got 1e+200"),
        ],
        ids=["spot", "vol", "rate", "s_max"],
    )
    def test_input_outside_the_domain_exits_one_before_any_work(
        self, monkeypatch, capsys, flag, value, message
    ):
        calls = []
        for module, name in (
            (mcfdm.model, "_march"),
            (mcfdm.monte_carlo, "_block_stats"),
            (mcfdm.oracle, "black_scholes_price"),
        ):

            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert main(["price", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err
        assert calls == []

    def test_bad_grid_token_exits_one(self, capsys):
        assert main(["convergence", "--grid", "bogus"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_theta_study_subcommand_runs(self, capsys):
        code = main([
            "theta-study", "--scaling", "0.5", "--scaling", "1.0",
            "--spot", "7", "--strike", "7.5", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        scales = [r["metadata"]["theta_scale"] for r in payload["rows"]]
        assert scales == [0.5, 1.0]
        errors = [r["abs_error"] for r in payload["rows"]]
        assert errors[1] < errors[0]

    def test_convergence_subcommand_reports_orders(self, capsys):
        code = main([
            "convergence", "--method", "cfdm", "--spot", "7", "--strike", "7.5",
            "--s-max", str(350.0 / 12.0), "--grid", "50:2000",
            "--grid", "100:2000", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][1]["metadata"]["observed_order"] > 1.5

    def test_timing_subcommand_smoke(self, capsys):
        code = main([
            "timing", "--maturity", "0.25", "--n-space", "50",
            "--n-time", "100", "--paths", "2000", "--repeats", "3",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 3
        assert all(r["elapsed_seconds"] > 0 for r in payload["rows"])

    def test_module_run_prints_no_runtime_warning(self, fresh_python):
        # importing the package must not import mcfdm.cli, or running the
        # module warns that it was already in sys.modules
        proc = fresh_python("-m", "mcfdm.cli", "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"mcfdm {mcfdm.__version__}"
        assert "RuntimeWarning" not in proc.stderr

    def test_diverging_march_prints_no_runtime_warning(self, fresh_python):
        # k = 30 at 400 nodes overflows into NaN; the report records the
        # failed row, and numpy's warnings stay off stderr
        proc = fresh_python(
            "-m", "mcfdm.cli", "price", "--method", "mcfdm", "--theta-scale", "30",
            "--allow-unstable", "--n-space", "400", "--format", "json",
        )
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        (row,) = json.loads(proc.stdout)["rows"]
        assert row["price"] is None
        assert row["error"] == "solver returned a non-finite price nan"

    def test_diverging_pooled_monte_carlo_prints_no_runtime_warning(self, fresh_python):
        # two blocks of 64 steps run on two threads wherever two CPUs
        # are usable; the priced domain keeps every path finite, so a stubbed
        # payoff overflows into inf, inf - inf is NaN and so is the price
        proc = fresh_python(
            "-c", _OVERFLOWING_PAYOFF, "price", "--method", "mc",
            "--mc-steps", "64", "--paths", "8192", "--format", "json",
        )
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        (row,) = json.loads(proc.stdout)["rows"]
        assert row["price"] is None
        assert row["error"] == "solver returned a non-finite price nan"


# runs the CLI on its arguments in a fresh interpreter, with a Monte Carlo
# payoff of inf - inf = NaN: each terminal price times 1e308 overflows
_OVERFLOWING_PAYOFF = """
import sys
import numpy as np
from mcfdm import cli, monte_carlo
def payoff(contract, s):
    big = np.asarray(s) * 1e308
    return big - big
monte_carlo.payoff = payoff
sys.exit(cli.main(sys.argv[1:]))
"""


# runs in a fresh interpreter: which scipy modules are loaded after
# importing the CLI, and after one first call of an engine
_LOADS = """
import json, sys
import mcfdm.cli
from mcfdm import *
def loaded():
    return {m: m in sys.modules for m in ("scipy.linalg", "scipy.special")}
before = loaded()
contract = OptionContract(kind=OptionKind.PUT, strike=7.5, maturity=1.0, spot=7.0)
market = MarketParams(r=0.05, sigma=0.25)
%s
print(json.dumps([before, loaded()]))
"""

# runs in a fresh interpreter: an engine's first call, as it reports its
# time and as a clock around the call sees it
_FIRST_CALL = """
import json, time
from mcfdm import *
contract = OptionContract(kind=OptionKind.PUT, strike=7.5, maturity=1.0, spot=7.0)
market = MarketParams(r=0.05, sigma=0.25)
start = time.perf_counter()
result = %s
wall = time.perf_counter() - start
print(json.dumps([result.elapsed_seconds, wall]))
"""

# runs in a fresh interpreter: which of the modules behind the standard
# library's statistics a price call has loaded, and its exit code
_PRICE_LOADS = """
import contextlib, io, json, sys
from mcfdm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["price"])
print(json.dumps([code, [m for m in ("statistics", "fractions", "decimal") if m in sys.modules]]))
"""

_SOLVES = {
    "MCFDM": "solve_mcfdm(contract, market, build_grid(contract))",
    "CFDM": "solve_crank_nicolson(contract, market, build_grid(contract))",
    "MonteCarlo": "price_monte_carlo(contract, market, McConfig(n_paths=4096))",
}


class TestColdStart:
    """scipy loads in the engine that calls it, outside that engine's clock."""

    @pytest.mark.parametrize(
        ("method", "linalg", "special"),
        [("MCFDM", False, False), ("CFDM", True, False), ("MonteCarlo", False, True)],
    )
    def test_engine_loads_only_its_own_scipy_module(
        self, fresh_python, method, linalg, special
    ):
        proc = fresh_python("-c", _LOADS % _SOLVES[method])
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout)
        assert before == {"scipy.linalg": False, "scipy.special": False}
        assert after == {"scipy.linalg": linalg, "scipy.special": special}

    def test_price_call_loads_no_statistics(self, fresh_python):
        # statistics brings fractions and decimal along, about 0.6 MB of a
        # cold call's peak memory, and numpy's median does its one job
        proc = fresh_python("-c", _PRICE_LOADS)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, []]

    @pytest.mark.parametrize("method", ["CFDM", "MonteCarlo"])
    def test_first_call_times_the_solve_not_the_import(self, fresh_python, method):
        # the import costs well over 100 ms and these solves about 10 ms, so
        # the ratio holds on a slow host as on a fast one
        proc = fresh_python("-c", _FIRST_CALL % _SOLVES[method])
        assert proc.returncode == 0, proc.stderr
        elapsed, wall = json.loads(proc.stdout)
        assert elapsed < 0.5 * wall

    def test_theta_study_report_shows_no_scipy(self, fresh_python):
        proc = fresh_python(
            "-m", "mcfdm.cli", "theta-study", "--spot", "7", "--strike", "7.5",
            "--format", "json",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["provenance"]["scipy"] is None
