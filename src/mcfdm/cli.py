"""Command-line harness for pricing jobs and benchmark reports.

Every subcommand, each declared once in ``_SUBCOMMANDS``, produces a
``TableReport`` that can be rendered as an aligned text table, CSV, or
JSON. Reports embed a provenance block echoing every job parameter, so a
JSON report can be fed back in as a job fragment and re-run.

Exit codes: 0 success, 1 invalid arguments, 2 solver failure in any row
(an overflow, or a non-finite price, error or se), 3 stability rejection.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import statistics
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence, get_type_hints

import numpy as np

from ._version import __version__
from .crank_nicolson import solve_crank_nicolson
from .errors import McfdmError, StabilityError, ValidationError
from .mean_convection import ThetaConfig, solve_mcfdm
from .model import (
    AlphaProfile,
    Discretization,
    MarketParams,
    Method,
    OptionContract,
    OptionKind,
    PricingResult,
    _require_count,
    build_grid,
)
from .monte_carlo import McConfig, price_monte_carlo
from .oracle import _exact

__all__ = [
    "JobSpec",
    "ReportRow",
    "TableReport",
    "format_error",
    "jobspec_from_report",
    "main",
    "run_convergence",
    "run_table",
    "run_theta_study",
    "run_timing",
]

CSV_HEADER = (
    "method,maturity_years,price,abs_error,elapsed_seconds,"
    "se,theta_scale,n_space,n_time,paths,seed,error,error_kind"
)
_META_COLUMNS = CSV_HEADER.split(",")[5:-2]
# the text table's columns: method, maturity, price, abs_error, elapsed, notes
_TEXT_ROW = "{:<12}{:>10}{:>14}{:>12}{:>12}  {}"

_ALL_METHODS = tuple(m.value for m in Method)
_NUMERICAL_METHODS = tuple(m.value for m in Method if m is not Method.EXACT)
# the --method words: each method's name in lower case, plus two short forms
_METHOD_ALIASES = {m.lower(): m for m in (*_ALL_METHODS, "All")}
_METHOD_ALIASES |= {"cn": "CFDM", "mc": "MonteCarlo"}
# the allowed words of JobSpec's word fields, which are also the choices of
# their flags
_CHOICES = {
    "kind": tuple(kind.value for kind in OptionKind),
    "theta_mode": ("normalized", "literal"),
    "alpha": tuple(profile.value for profile in AlphaProfile),
    "fmt": ("table", "csv", "json"),
}


def format_error(value: float) -> str:
    """Render an absolute error as mantissa plus bare exponent.

    0.00239 becomes ``"2.39E-3"`` and 0 becomes ``"0.00E0"``.
    """
    mantissa, _, exponent = f"{float(value):.2E}".partition("E")
    return f"{mantissa}E{int(exponent)}"


def _parse_method(token: str) -> str:
    key = token.lower().replace("-", "").replace("_", "")
    if key not in _METHOD_ALIASES:
        raise argparse.ArgumentTypeError(
            f"unknown method {token!r}; choose from "
            "mcfdm, cfdm, mc, exact, all"
        )
    return _METHOD_ALIASES[key]


def _parse_smax(token: str) -> float | str:
    if token.lower() == "auto":
        return "auto"
    try:
        return float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--s-max must be 'auto' or a number, got {token!r}"
        ) from None


def _parse_grid(token: str) -> tuple[int, int]:
    try:
        ns_text, nt_text = token.split(":")
        return int(ns_text), int(nt_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--grid must look like N_SPACE:N_TIME, got {token!r}"
        ) from None


def _fits(value: Any, hint: Any) -> bool:
    """Whether ``value`` fits a field annotation; an int may stand for a float."""
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, hint) or (isinstance(value, int) and isinstance(0.0, hint))


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One pricing job: contract, market, discretization, and output plumbing."""

    method: str = "All"
    kind: str = "call"
    spot: float = 5.0
    strike: float = 5.5
    rate: float = 0.05
    vol: float = 0.25
    maturity: float = 1.0
    n_space: int = 100
    n_time: int = 1000
    s_max: float | str = "auto"
    theta_scale: float = 1.0
    theta_mode: str = "normalized"
    alpha: str = "constant"
    paths: int = 100_000
    seed: int = 42
    mc_steps: int | None = None
    allow_unstable: bool = False
    fmt: str = "table"
    out: str | None = None

    def __post_init__(self) -> None:
        # a job may come from a replayed report's untyped JSON or from a
        # library caller, so each field is checked against its annotation
        for name, hint in _JOB_HINTS.items():
            value = getattr(self, name)
            if not _fits(value, hint):
                expected = getattr(hint, "__name__", hint)
                raise ValidationError(f"job field {name} must be {expected}, got {value!r}")
        if self.method not in _ALL_METHODS and self.method != "All":
            raise ValidationError(f"unknown method {self.method!r}")
        for name, words in _CHOICES.items():
            value = getattr(self, name)
            if value not in words:
                *head, last = map(repr, words)
                allowed = ", ".join(head) + ("," if head[1:] else "") + f" or {last}"
                raise ValidationError(f"{name} must be {allowed}, got {value!r}")
        if isinstance(self.s_max, str):
            if self.s_max != "auto":
                raise ValidationError(f"s_max must be 'auto' or a number, got {self.s_max!r}")
        # checked for every method, not only where a grid is built, so that
        # no report echoes a bound no grid can use (NaN and inf are not JSON)
        elif not math.isfinite(self.s_max) or self.s_max <= 0.0:
            raise ValidationError(f"s_max must be finite and > 0, got {self.s_max}")


_JOB_HINTS = get_type_hints(JobSpec)


@dataclass(frozen=True, slots=True)
class ReportRow:
    """One (method, maturity) result, or its recorded failure."""

    method: str
    maturity_years: float
    price: float | None
    abs_error: float | None
    elapsed_seconds: float | None
    metadata: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    error_kind: str | None = None


@dataclass(frozen=True, slots=True)
class TableReport:
    """Ordered rows plus a provenance block echoing the full job."""

    provenance: dict[str, Any]
    rows: tuple[ReportRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        for line in self._provenance_lines():
            buf.write(f"# {line}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in self.rows:
            writer.writerow(
                [
                    *map(_cell, (row.method, row.maturity_years, row.price)),
                    "" if row.abs_error is None else format_error(row.abs_error),
                    ""
                    if row.elapsed_seconds is None
                    else format(row.elapsed_seconds, ".6f"),
                    *(_cell(row.metadata.get(key)) for key in _META_COLUMNS),
                    _cell(row.error),
                    _cell(row.error_kind),
                ]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "provenance": self.provenance,
            "rows": [
                {
                    **asdict(row),
                    # NaN and inf are not JSON: an unbounded cfl_margin is null
                    "metadata": {
                        k: None if isinstance(v, float) and not math.isfinite(v) else v
                        for k, v in row.metadata.items()
                    },
                    "abs_error_text": None
                    if row.abs_error is None
                    else format_error(row.abs_error),
                }
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"mcfdm {__version__} report"]
        lines.extend(self._provenance_lines())
        lines.append("")
        header = _TEXT_ROW.format("method", "maturity", "price", "abs_error", "elapsed", "notes")
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            maturity = format(row.maturity_years, "g")
            if row.error is not None:
                note = f"ERROR[{row.error_kind}]: {row.error}"
                lines.append(_TEXT_ROW.format(row.method, maturity, "-", "-", "-", note))
                continue
            price = f"{row.price:.5f}"
            if len(price) > 13:  # too wide for its column: 6 significant digits
                price = f"{row.price:.6g}"
            error = f"({format_error(row.abs_error)})"
            elapsed = f"{row.elapsed_seconds:.4f}s"
            lines.append(
                _TEXT_ROW.format(row.method, maturity, price, error, elapsed, _notes(row.metadata))
            )
        return "\n".join(lines) + "\n"

    def _provenance_lines(self) -> list[str]:
        lines = []
        for key, value in self.provenance.items():
            if key == "job":
                echo = " ".join(f"{k}={v}" for k, v in value.items())
                lines.append(f"job: {echo}")
            else:
                lines.append(f"{key}: {value}")
        return lines


def _cell(value: Any) -> str:
    """A CSV cell; a float keeps 17 significant digits, so it reads back as itself."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _notes(meta: dict[str, Any]) -> str:
    parts = []
    if meta.get("se") is not None:
        parts.append(f"se={format_error(meta['se'])}")
    if "theta_scale" in meta:
        parts.append(f"k={meta['theta_scale']:g}")
    if meta.get("oscillation"):
        parts.append("oscillation")
    if meta.get("observed_order") is not None:
        parts.append(f"order={meta['observed_order']:.2f}")
    if "repeats" in meta:
        parts.append(f"repeats={meta['repeats']}")
    if "n_space" in meta and "n_time" in meta:
        parts.append(f"grid={meta['n_space']}x{meta['n_time']}")
    if "paths" in meta:
        parts.append(f"paths={meta['paths']}")
    return " ".join(parts)


def _mc_steps(job: JobSpec) -> int:
    return 1 if job.mc_steps is None else job.mc_steps


@dataclass(frozen=True, slots=True)
class _Row:
    """One planned row: its labels, its grid, and its ready-to-call solve."""

    method: str
    maturity: float
    disc: Discretization | None
    solve: Callable[[], PricingResult]


def _planned(method: str, job: JobSpec) -> _Row:
    """The row of ``job`` under ``method``, its inputs built and its solve ready.

    Building the inputs checks them: every row builds its market, θ config
    and contract, then an MCFDM or CFDM row its grid, a Monte Carlo row its config.
    """
    market = MarketParams(r=job.rate, sigma=job.vol, alpha_profile=AlphaProfile(job.alpha))
    theta = ThetaConfig(scaling=job.theta_scale, normalize=job.theta_mode == "normalized")
    c = OptionContract(OptionKind(job.kind), job.strike, job.maturity, job.spot)
    disc = None
    if method in ("MCFDM", "CFDM"):
        disc = build_grid(c, job.n_space, job.n_time, s_max=job.s_max)
    if method == "MCFDM":
        solve = lambda: solve_mcfdm(
            c, market, disc, theta, allow_unstable=job.allow_unstable
        ).result
    elif method == "CFDM":
        solve = partial(solve_crank_nicolson, c, market, disc)
    elif method == "MonteCarlo":
        solve = partial(price_monte_carlo, c, market, McConfig(job.paths, job.seed, _mc_steps(job)))
    else:
        solve = partial(_exact, c, market)
    return _Row(method, job.maturity, disc, solve)


def _plan(methods: Sequence[str], jobs: Sequence[JobSpec]) -> list[_Row]:
    """One row per (method, job), method-major, each solving its own job.

    Every row is built, and so checked, before any row runs.
    """
    return [_planned(method, job) for method in methods for job in jobs]


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, StabilityError):
        return "stability"
    if isinstance(exc, ValidationError):
        return "invalid"
    return "solver"


# a diverging march overflows into NaN, which the row records as its error,
# so numpy's warnings would only repeat it on stderr
@np.errstate(over="ignore", invalid="ignore")
def _solve_row(row: _Row, repeats: int | None = None) -> ReportRow:
    """Run one planned row, capturing failures in the report row.

    With ``repeats``, the first solve is a warm-up and the row reports the
    median seconds of ``repeats`` further solves.
    """
    try:
        result = row.solve()
        se = result.extra.get("se")
        for name, value in (("price", result.price), ("abs_error", result.abs_error), ("se", se)):
            if value is not None and not math.isfinite(value):
                raise McfdmError(f"solver returned a non-finite {name} {value}")
        elapsed = result.elapsed_seconds
        meta = dict(result.extra)
        if "n_time_steps" in meta:
            meta["mc_steps"] = meta.pop("n_time_steps")
        if repeats is not None:
            elapsed = statistics.median(
                row.solve().elapsed_seconds for _ in range(repeats)
            )
            meta["repeats"] = repeats
        return ReportRow(
            method=row.method,
            maturity_years=row.maturity,
            price=result.price,
            abs_error=result.abs_error,
            elapsed_seconds=elapsed,
            metadata=meta,
        )
    except (McfdmError, ArithmeticError) as exc:
        # an ArithmeticError is an engine's Python-float arithmetic
        # overflowing, as ds**2 does on a grid bound near 1e200
        error = str(exc) if isinstance(exc, McfdmError) else f"{type(exc).__name__}: {exc}"
        return ReportRow(
            method=row.method,
            maturity_years=row.maturity,
            price=None,
            abs_error=None,
            elapsed_seconds=None,
            error=error,
            error_kind=_error_kind(exc),
        )


def _report(job: JobSpec, plan: Sequence[_Row], **echo: Any) -> TableReport:
    """Run ``plan``, then report its rows under a provenance block that
    echoes ``job`` and then ``echo``: the subcommand and its sweep.

    The rows run in order, one at a time, so that each row's
    elapsed_seconds times its solve alone; a ``repeats`` echo makes each
    row time that many solves after a warm-up.

    ``scipy`` is the version of the scipy that the report's Crank-Nicolson
    and Monte Carlo rows loaded, or ``None`` when it has no such row, even
    if an earlier call in the same process loaded scipy. It is read from
    ``sys.modules``, so that writing it loads nothing.
    """
    rows = tuple(_solve_row(row, echo.get("repeats")) for row in plan)
    job_echo = asdict(job)
    job_echo["mc_steps"] = _mc_steps(job)
    scipy = None
    if not {"CFDM", "MonteCarlo"}.isdisjoint(row.method for row in rows):
        scipy = sys.modules.get("scipy")
    block: dict[str, Any] = {
        "tool": "mcfdm",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "cpu_count": os.cpu_count(),
        "job": job_echo,
    }
    return TableReport(provenance={**block, **echo}, rows=rows)


def _methods_for(job: JobSpec, numerical_only: bool = False) -> list[str]:
    if job.method == "All":
        return list(_NUMERICAL_METHODS if numerical_only else _ALL_METHODS)
    return [job.method]


def run_table(maturities: Sequence[float], job: JobSpec) -> TableReport:
    """One row per (method, maturity); row failures are recorded in-row."""
    jobs = [replace(job, maturity=maturity) for maturity in maturities]
    if not jobs:
        raise ValidationError("maturity list must be nonempty")
    plan = _plan(_methods_for(job), jobs)
    return _report(job, plan, subcommand="table", maturities=[j.maturity for j in jobs])


def run_timing(job: JobSpec, repeats: int = 5) -> TableReport:
    """Median solve-only seconds per method over ``repeats`` runs.

    A warm-up run precedes the measured ones. Monte Carlo marches the
    job's full time grid here unless ``mc_steps`` pins a step count, so
    all methods advance through the same number of time levels.
    """
    _require_count("repeats", repeats, 3)
    if job.mc_steps is None:
        job = replace(job, mc_steps=job.n_time)
    plan = _plan(_methods_for(job, numerical_only=True), [job])
    return _report(job, plan, subcommand="timing", repeats=repeats)


def run_theta_study(scalings: Sequence[float], job: JobSpec) -> TableReport:
    """One MCFDM row per scaling k, sorted by k, with oscillation flags."""
    jobs = [replace(job, theta_scale=scaling) for scaling in scalings]
    if not jobs:
        raise ValidationError("scaling list must be nonempty")
    jobs.sort(key=lambda j: j.theta_scale)
    # the study always runs MCFDM, whatever the base job selects; the base
    # job, whose θ the provenance echoes, is planned first to check it and
    # is not run
    plan = _plan(["MCFDM"], [job, *jobs])[1:]
    return _report(job, plan, subcommand="theta-study", scalings=[j.theta_scale for j in jobs])


def run_convergence(
    grids: Sequence[tuple[int, int]], job: JobSpec
) -> TableReport:
    """Error per grid for a single method, with observed-order estimates.

    Each row after the first carries ``observed_order``, the error decay
    rate between consecutive grids measured against their actual spacings.
    """
    if not grids:
        raise ValidationError("grid list must be nonempty")
    jobs = []
    for grid in grids:
        # a replayed report holds its grids as "N_SPACE:N_TIME" strings
        if not (isinstance(grid, (tuple, list)) and len(grid) == 2):
            raise ValidationError(f"grid must be a pair of ints, got {grid!r}")
        jobs.append(replace(job, n_space=grid[0], n_time=grid[1]))
    if job.method == "All":
        raise ValidationError("convergence runs a single method; pick one")
    if job.method not in ("MCFDM", "CFDM"):
        raise ValidationError(
            f"convergence refines a grid, which {job.method} does not use; "
            "pick mcfdm or cfdm"
        )
    plan = _plan([job.method], jobs)
    grid_echo = [f"{j.n_space}:{j.n_time}" for j in jobs]
    report = _report(job, plan, subcommand="convergence", grids=grid_echo)
    previous: ReportRow | None = None
    for row, planned in zip(report.rows, plan):
        if row.error is not None:
            continue
        row.metadata["ds"] = planned.disc.ds
        if (
            previous is not None
            and previous.abs_error
            and row.abs_error
            and row.metadata["ds"] < previous.metadata["ds"]
        ):
            row.metadata["observed_order"] = math.log(
                previous.abs_error / row.abs_error
            ) / math.log(previous.metadata["ds"] / row.metadata["ds"])
        previous = row
    return report


def jobspec_from_report(report: dict[str, Any]) -> JobSpec:
    """Rebuild the job from a parsed JSON report's provenance echo."""
    try:
        echo = report["provenance"]["job"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("report lacks a provenance.job block") from exc
    if not isinstance(echo, dict):
        raise ValidationError(f"provenance.job must be a JSON object, got {echo!r}")
    unknown = set(echo) - set(_JOB_HINTS)
    if unknown:
        raise ValidationError(f"unknown job fields in report: {sorted(unknown)}")
    return JobSpec(**echo)


def _render(report: TableReport, job: JobSpec) -> str:
    if job.fmt == "csv":
        return report.to_csv()
    if job.fmt == "json":
        return report.to_json()
    return report.to_text()


def _exit_code(report: TableReport) -> int:
    kinds = {row.error_kind for row in report.rows if row.error_kind}
    if kinds & {"solver", "invalid"}:
        return 2
    if "stability" in kinds:
        return 3
    return 0


# the JobSpec fields whose flag parses with something other than their
# annotation, and the flags that carry a help text
_FLAG_TYPES = {"method": _parse_method, "s_max": _parse_smax, "mc_steps": int, "out": str}
_FLAG_HELP = {
    "method": "mcfdm, cfdm, mc, exact, or all",
    "s_max": "'auto' or an explicit grid upper bound",
    "mc_steps": "Monte Carlo time steps (default: 1, or the full time grid "
    "for the timing subcommand)",
    "allow_unstable": "run explicit solves past the stability bound",
    "out": "write the report to this path",
}


class _Sweep(NamedTuple):
    """A repeatable flag, its parser, its default tokens and the run it feeds."""

    flag: str
    parse: Callable[[str], Any]
    defaults: str
    run: Callable[[list[Any], JobSpec], TableReport]
    metavar: str | None = None


# each subcommand's help and, for a sweep, its repeatable flag; every
# subcommand takes --maturity, once unless it sweeps it
_SUBCOMMANDS = {
    "price": ("price one contract", None),
    "table": ("error table over maturities", _Sweep("maturity", float, "0.25 0.5 1.0", run_table)),
    "timing": ("median solve times per method", None),
    "theta-study": (
        "sweep the convection scaling k", _Sweep("scaling", float, "0.5 1.0 2.0", run_theta_study)
    ),
    "convergence": (
        "error versus grid refinement",
        _Sweep("grid", _parse_grid, "50:2000 100:2000 200:2000", run_convergence, "N_SPACE:N_TIME"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    # one flag per JobSpec field but maturity, which each subcommand declares
    common = argparse.ArgumentParser(add_help=False)
    for spec in fields(JobSpec):
        name, hint = spec.name, _JOB_HINTS[spec.name]
        if name == "maturity":
            continue
        kwargs: dict[str, Any] = {"action": "store_true"}
        if hint is not bool:
            kwargs = {"type": _FLAG_TYPES.get(name, hint), "choices": _CHOICES.get(name)}
        common.add_argument(
            "--format" if name == "fmt" else "--" + name.replace("_", "-"),
            dest=name,
            default=spec.default,
            help=_FLAG_HELP.get(name),
            **kwargs,
        )

    parser = argparse.ArgumentParser(
        prog="mcfdm",
        description="European option pricing benchmarks: mean convection "
        "explicit scheme, Crank-Nicolson, Monte Carlo, closed form.",
    )
    parser.add_argument("--version", action="version", version=f"mcfdm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, sweep) in _SUBCOMMANDS.items():
        own = sub.add_parser(name, parents=[common], help=help_text)
        if sweep is None or sweep.flag != "maturity":
            own.add_argument("--maturity", type=float, default=1.0)
        if sweep is not None:
            own.add_argument(
                f"--{sweep.flag}",
                type=sweep.parse,
                action="append",
                metavar=sweep.metavar,
                help=f"repeatable; defaults to {sweep.defaults}",
            )
    sub.choices["timing"].add_argument("--repeats", type=int, default=5)
    return parser


def _job_from_args(args: argparse.Namespace, *, maturity: float) -> JobSpec:
    shared = {spec.name: getattr(args, spec.name) for spec in fields(JobSpec)}
    return JobSpec(**{**shared, "maturity": maturity})


def _check_out(out: str | None) -> None:
    """Reject an ``--out`` path that cannot be written, before any row runs."""
    if out is None:
        return
    path = Path(out)
    if path.is_dir():
        raise ValidationError(f"--out {out!r} is a directory")
    if not path.parent.is_dir():
        raise ValidationError(f"--out {out!r}: no directory {str(path.parent)!r}")


def _emit(report: TableReport, job: JobSpec) -> None:
    text = _render(report, job)
    if job.out is None:
        sys.stdout.write(text)
    else:
        Path(job.out).write_text(text, encoding="utf-8")


def main(argv: Sequence[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    sweep = _SUBCOMMANDS[args.command][1]
    try:
        if sweep is not None:
            values = getattr(args, sweep.flag) or [sweep.parse(t) for t in sweep.defaults.split()]
        # a table's job takes its first maturity
        job = _job_from_args(args, maturity=values[0] if args.command == "table" else args.maturity)
        _check_out(job.out)
        if sweep is not None:
            report = sweep.run(values, job)
        elif args.command == "timing":
            report = run_timing(job, repeats=args.repeats)
        else:
            plan = _plan(_methods_for(job), [job])
            report = _report(job, plan, subcommand="price", maturities=[job.maturity])
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(report, job)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 1
    return _exit_code(report)


if __name__ == "__main__":
    raise SystemExit(main())
