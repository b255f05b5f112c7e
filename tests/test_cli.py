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
    MarketParams,
    OptionContract,
    OptionKind,
    ThetaConfig,
    ValidationError,
    black_scholes_price,
    build_grid,
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

    def test_empty_maturity_list_rejected(self):
        with pytest.raises(ValidationError):
            run_table([], small_job())

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

    def test_oscillation_flag_reaches_the_report(self):
        job = small_job(kind="put")
        report = run_theta_study([30.0], job)
        assert report.rows[0].metadata["oscillation"] is True
        assert "oscillation" in report.to_text()


class TestRunConvergence:
    def test_all_method_rejected(self):
        with pytest.raises(ValidationError):
            run_convergence([(50, 2000)], small_job(method="All"))

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
        "grids",
        [[(50,)], [(50, 400, 7)], ["50:400"], [(50, 400.0)], [(50, 400), None]],
        ids=["one-number", "three-numbers", "replayed-string", "float", "none"],
    )
    def test_grid_that_is_not_a_pair_of_ints_is_rejected(self, monkeypatch, grids):
        for engine in _ENGINES:
            monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
        with pytest.raises(ValidationError, match="grid must be a pair of ints"):
            run_convergence(grids, small_job(method="CFDM", n_time=400))

    def test_repeated_grid_gets_no_order_estimate(self):
        job = small_job(method="CFDM", n_time=200, maturity=0.25)
        report = run_convergence([(50, 200), (50, 200)], job)
        assert report.rows[0].abs_error == report.rows[1].abs_error
        assert "observed_order" not in report.rows[1].metadata


_ENGINES = (
    "solve_mcfdm", "solve_crank_nicolson", "price_monte_carlo", "black_scholes_price",
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
    ],
    ids=["table-last-maturity", "convergence-grid", "theta-study-base-scale",
         "cfdm-theta-scale", "mc-paths"],
)
def test_bad_input_fails_before_any_row_runs(monkeypatch, run):
    for engine in _ENGINES:
        monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
    with pytest.raises(ValidationError):
        run()


@pytest.mark.parametrize("run", [run_table, run_theta_study])
@pytest.mark.parametrize(
    "values", [["1"], [True], [1.0, "2"], [None]], ids=["str", "bool", "mixed", "none"]
)
def test_list_entry_that_is_not_a_number_is_rejected(monkeypatch, run, values):
    # a replayed report's maturities or scalings are untyped JSON
    for engine in ("solve_mcfdm", "solve_crank_nicolson", "price_monte_carlo"):
        monkeypatch.setattr(f"mcfdm.cli.{engine}", _fail_if_called)
    with pytest.raises(ValidationError, match="must be a number"):
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

    def test_method_aliases_accepted(self, capsys):
        assert main(["price", "--method", "cn", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "CFDM," in out

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
