"""Command-line harness for pricing jobs and benchmark reports.

Subcommands: ``price``, ``table``, ``timing``, ``theta-study``,
``convergence``. Every run produces a ``TableReport`` that can be rendered
as an aligned text table, CSV, or JSON. Reports embed a provenance block
echoing every job parameter, so a JSON report can be fed back in as a job
fragment and re-run.

Exit codes: 0 success, 1 invalid arguments, 2 solver failure in any row,
3 stability rejection.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

from ._version import __version__
from .crank_nicolson import solve_crank_nicolson
from .errors import McfdmError, StabilityError, ValidationError
from .mean_convection import ThetaConfig, solve_mcfdm
from .model import (
    AlphaProfile,
    MarketParams,
    Method,
    OptionContract,
    OptionKind,
    PricingResult,
    build_grid,
)
from .monte_carlo import McConfig, price_monte_carlo
from .oracle import black_scholes_price

__all__ = [
    "JobSpec",
    "ReportRow",
    "TableReport",
    "format_error",
    "jobspec_from_report",
    "main",
    "run_convergence",
    "run_price",
    "run_table",
    "run_theta_study",
    "run_timing",
]

logger = logging.getLogger(__name__)

CSV_HEADER = (
    "method,maturity_years,price,abs_error,elapsed_seconds,"
    "se,theta_scale,n_space,n_time,paths,seed"
)

_ALL_METHODS = ("MCFDM", "CFDM", "MonteCarlo", "Exact")
_NUMERICAL_METHODS = ("MCFDM", "CFDM", "MonteCarlo")
_METHOD_ALIASES = {
    "mcfdm": "MCFDM",
    "cfdm": "CFDM",
    "cn": "CFDM",
    "mc": "MonteCarlo",
    "montecarlo": "MonteCarlo",
    "exact": "Exact",
    "all": "All",
}
_DEFAULT_MATURITIES = (0.25, 0.5, 1.0)
_DEFAULT_SCALINGS = (0.5, 1.0, 2.0)
_DEFAULT_GRIDS = ((50, 2000), (100, 2000), (200, 2000))


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
        value = float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--s-max must be 'auto' or a number, got {token!r}"
        ) from None
    return value


def _parse_grid(token: str) -> tuple[int, int]:
    try:
        ns_text, nt_text = token.split(":")
        return int(ns_text), int(nt_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--grid must look like N_SPACE:N_TIME, got {token!r}"
        ) from None


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
        if self.method not in _ALL_METHODS and self.method != "All":
            raise ValidationError(f"unknown method {self.method!r}")
        if self.kind not in ("call", "put"):
            raise ValidationError(f"kind must be 'call' or 'put', got {self.kind!r}")
        if self.theta_mode not in ("normalized", "literal"):
            raise ValidationError(
                f"theta_mode must be 'normalized' or 'literal', got {self.theta_mode!r}"
            )
        if self.alpha not in ("constant", "proportional"):
            raise ValidationError(
                f"alpha must be 'constant' or 'proportional', got {self.alpha!r}"
            )
        if self.fmt not in ("table", "csv", "json"):
            raise ValidationError(
                f"fmt must be 'table', 'csv', or 'json', got {self.fmt!r}"
            )
        if isinstance(self.s_max, str) and self.s_max != "auto":
            raise ValidationError(f"s_max must be 'auto' or a number, got {self.s_max!r}")


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
            meta = row.metadata
            writer.writerow(
                [
                    row.method,
                    format(row.maturity_years, "g"),
                    "" if row.price is None else format(row.price, ".17g"),
                    "" if row.abs_error is None else format_error(row.abs_error),
                    ""
                    if row.elapsed_seconds is None
                    else format(row.elapsed_seconds, ".6f"),
                    _meta_cell(meta, "se"),
                    _meta_cell(meta, "theta_scale"),
                    _meta_cell(meta, "n_space"),
                    _meta_cell(meta, "n_time"),
                    _meta_cell(meta, "paths"),
                    _meta_cell(meta, "seed"),
                ]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "provenance": self.provenance,
            "rows": [
                {
                    "method": row.method,
                    "maturity_years": row.maturity_years,
                    "price": row.price,
                    "abs_error": row.abs_error,
                    "abs_error_text": None
                    if row.abs_error is None
                    else format_error(row.abs_error),
                    "elapsed_seconds": row.elapsed_seconds,
                    "metadata": row.metadata,
                    "error": row.error,
                    "error_kind": row.error_kind,
                }
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"mcfdm {__version__} report"]
        lines.extend(self._provenance_lines())
        lines.append("")
        header = (
            f"{'method':<12}{'maturity':>10}{'price':>14}"
            f"{'abs_error':>12}{'elapsed':>12}  notes"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            if row.error is not None:
                note = f"ERROR[{row.error_kind}]: {row.error}"
                lines.append(
                    f"{row.method:<12}{row.maturity_years:>10g}{'-':>14}"
                    f"{'-':>12}{'-':>12}  {note}"
                )
                continue
            lines.append(
                f"{row.method:<12}{row.maturity_years:>10g}{row.price:>14.5f}"
                f"{'(' + format_error(row.abs_error) + ')':>12}"
                f"{row.elapsed_seconds:>11.4f}s  {_notes(row.metadata)}"
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


def _meta_cell(meta: dict[str, Any], key: str) -> str:
    value = meta.get(key)
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
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


def _contract(job: JobSpec, maturity: float) -> OptionContract:
    return OptionContract(
        kind=OptionKind(job.kind),
        strike=job.strike,
        maturity=maturity,
        spot=job.spot,
    )


def _market(job: JobSpec) -> MarketParams:
    return MarketParams(
        r=job.rate, sigma=job.vol, alpha_profile=AlphaProfile(job.alpha)
    )


def _theta_config(job: JobSpec, scaling: float | None = None) -> ThetaConfig:
    return ThetaConfig(
        scaling=job.theta_scale if scaling is None else scaling,
        normalize=job.theta_mode == "normalized",
    )


def _mc_steps(job: JobSpec, *, timing: bool) -> int:
    if job.mc_steps is not None:
        return job.mc_steps
    return job.n_time if timing else 1


def _run_method(
    job: JobSpec,
    method: str,
    maturity: float,
    *,
    n_space: int | None = None,
    n_time: int | None = None,
    theta_scale: float | None = None,
    timing: bool = False,
) -> tuple[PricingResult, dict[str, Any]]:
    """Dispatch one solve; returns the result and the row metadata."""
    contract = _contract(job, maturity)
    market = _market(job)
    if method == "Exact":
        t_start = time.perf_counter()
        price = black_scholes_price(contract, market)
        elapsed = time.perf_counter() - t_start
        result = PricingResult(
            method=Method.EXACT, price=price, abs_error=0.0, elapsed_seconds=elapsed
        )
        return result, {}
    if method == "MonteCarlo":
        config = McConfig(
            n_paths=job.paths,
            seed=job.seed,
            n_time_steps=_mc_steps(job, timing=timing),
        )
        result = price_monte_carlo(contract, market, config)
        meta = dict(result.extra)
        meta["mc_steps"] = meta.pop("n_time_steps")
        return result, meta
    disc = build_grid(
        contract,
        n_space=n_space if n_space is not None else job.n_space,
        n_time=n_time if n_time is not None else job.n_time,
        s_max=job.s_max,
    )
    if method == "MCFDM":
        report = solve_mcfdm(
            contract,
            market,
            disc,
            _theta_config(job, theta_scale),
            allow_unstable=job.allow_unstable,
        )
        return report.result, dict(report.result.extra)
    if method == "CFDM":
        result = solve_crank_nicolson(contract, market, disc)
        return result, dict(result.extra)
    raise ValidationError(f"unknown method {method!r}")


def _error_kind(exc: McfdmError) -> str:
    if isinstance(exc, StabilityError):
        return "stability"
    if isinstance(exc, ValidationError):
        return "invalid"
    return "solver"


def _solve_row(
    job: JobSpec,
    method: str,
    maturity: float,
    *,
    n_space: int | None = None,
    n_time: int | None = None,
    theta_scale: float | None = None,
    timing: bool = False,
    repeats: int | None = None,
) -> ReportRow:
    """Run one (method, maturity) job, capturing failures in the row."""
    try:
        if repeats is None:
            result, meta = _run_method(
                job,
                method,
                maturity,
                n_space=n_space,
                n_time=n_time,
                theta_scale=theta_scale,
                timing=timing,
            )
            elapsed = result.elapsed_seconds
        else:
            # one warm-up run, then the median of the repeats
            _run_method(job, method, maturity, timing=timing)
            samples = []
            for _ in range(repeats):
                result, meta = _run_method(job, method, maturity, timing=timing)
                samples.append(result.elapsed_seconds)
            elapsed = statistics.median(samples)
            meta["repeats"] = repeats
        return ReportRow(
            method=method,
            maturity_years=maturity,
            price=result.price,
            abs_error=result.abs_error,
            elapsed_seconds=elapsed,
            metadata=meta,
        )
    except McfdmError as exc:
        return ReportRow(
            method=method,
            maturity_years=maturity,
            price=None,
            abs_error=None,
            elapsed_seconds=None,
            error=str(exc),
            error_kind=_error_kind(exc),
        )


def _validate_job(
    job: JobSpec,
    maturities: Sequence[float] | None = None,
    grids: Sequence[tuple[int, int]] | None = None,
    *,
    timing: bool = False,
) -> None:
    """Raise ValidationError for bad job arguments before any row runs.

    Stability violations are not argument errors; they stay per-row.
    """
    _market(job)
    _theta_config(job)
    needs_grid = job.method in ("All", "MCFDM", "CFDM")
    for maturity in maturities if maturities is not None else [job.maturity]:
        contract = _contract(job, maturity)
        if needs_grid:
            for n_space, n_time in grids or [(job.n_space, job.n_time)]:
                build_grid(contract, n_space=n_space, n_time=n_time, s_max=job.s_max)
    if job.method in ("All", "MonteCarlo"):
        McConfig(
            n_paths=job.paths,
            seed=job.seed,
            n_time_steps=_mc_steps(job, timing=timing),
        )


def _provenance(job: JobSpec, **extra: Any) -> dict[str, Any]:
    echo = asdict(job)
    echo["mc_steps"] = _mc_steps(job, timing=extra.get("subcommand") == "timing")
    block: dict[str, Any] = {
        "tool": "mcfdm",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "job": echo,
    }
    block.update(extra)
    return block


def _methods_for(job: JobSpec, numerical_only: bool = False) -> list[str]:
    if job.method == "All":
        return list(_NUMERICAL_METHODS if numerical_only else _ALL_METHODS)
    return [job.method]


def run_price(job: JobSpec) -> list[PricingResult]:
    """Price one contract; one result per selected method.

    Solver errors propagate to the caller (the report path records them
    per-row instead).
    """
    results = []
    for method in _methods_for(job):
        result, _ = _run_method(job, method, job.maturity)
        results.append(result)
    return results


def run_table(maturities: Sequence[float], job: JobSpec) -> TableReport:
    """One row per (method, maturity); row failures are recorded in-row."""
    maturities = list(maturities)
    if not maturities:
        raise ValidationError("maturity list must be nonempty")
    _validate_job(job, maturities)
    # rows run one at a time so that each row's elapsed_seconds times its
    # solve alone
    rows = [
        _solve_row(job, method, maturity)
        for method in _methods_for(job)
        for maturity in maturities
    ]
    return TableReport(
        provenance=_provenance(job, subcommand="table", maturities=maturities),
        rows=tuple(rows),
    )


def run_timing(job: JobSpec, repeats: int = 5) -> TableReport:
    """Median solve-only seconds per method over ``repeats`` runs.

    A warm-up run precedes the measured ones. Monte Carlo marches the
    job's full time grid here unless ``mc_steps`` pins a step count, so
    all methods advance through the same number of time levels.
    """
    if repeats < 3:
        raise ValidationError(f"repeats must be >= 3, got {repeats}")
    _validate_job(job, timing=True)
    rows = [
        _solve_row(job, method, job.maturity, timing=True, repeats=repeats)
        for method in _methods_for(job, numerical_only=True)
    ]
    return TableReport(
        provenance=_provenance(job, subcommand="timing", repeats=repeats),
        rows=tuple(rows),
    )


def run_theta_study(scalings: Sequence[float], job: JobSpec) -> TableReport:
    """One MCFDM row per scaling k, sorted by k, with oscillation flags."""
    if not scalings:
        raise ValidationError("scaling list must be nonempty")
    for k in scalings:
        if not math.isfinite(k) or k < 0:
            raise ValidationError(f"scalings must be >= 0, got {k}")
    # the study always runs MCFDM, whatever the base job selects
    _validate_job(replace(job, method="MCFDM"))
    ordered = sorted(scalings)
    rows = [
        _solve_row(job, "MCFDM", job.maturity, theta_scale=k) for k in ordered
    ]
    return TableReport(
        provenance=_provenance(job, subcommand="theta-study", scalings=ordered),
        rows=tuple(rows),
    )


def run_convergence(
    grids: Sequence[tuple[int, int]], job: JobSpec
) -> TableReport:
    """Error per grid for a single method, with observed-order estimates.

    Each row after the first carries ``observed_order``, the error decay
    rate between consecutive grids measured against their actual spacings.
    """
    if not grids:
        raise ValidationError("grid list must be nonempty")
    if job.method == "All":
        raise ValidationError("convergence runs a single method; pick one")
    _validate_job(job, grids=list(grids))
    rows = []
    for n_space, n_time in grids:
        row = _solve_row(
            job, job.method, job.maturity, n_space=n_space, n_time=n_time
        )
        if row.error is None:
            contract = _contract(job, job.maturity)
            disc = build_grid(
                contract, n_space=n_space, n_time=n_time, s_max=job.s_max
            )
            row.metadata["ds"] = disc.ds
        rows.append(row)
    previous: ReportRow | None = None
    for row in rows:
        if row.error is not None:
            continue
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
    return TableReport(
        provenance=_provenance(
            job,
            subcommand="convergence",
            grids=[f"{ns}:{nt}" for ns, nt in grids],
        ),
        rows=tuple(rows),
    )


def jobspec_from_report(report: dict[str, Any]) -> JobSpec:
    """Rebuild the job from a parsed JSON report's provenance echo."""
    try:
        echo = dict(report["provenance"]["job"])
    except (KeyError, TypeError) as exc:
        raise ValidationError("report lacks a provenance.job block") from exc
    known = {f for f in JobSpec.__dataclass_fields__}
    unknown = set(echo) - known
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kind", choices=("call", "put"), default="call")
    common.add_argument("--spot", type=float, default=5.0)
    common.add_argument("--strike", type=float, default=5.5)
    common.add_argument("--rate", type=float, default=0.05)
    common.add_argument("--vol", type=float, default=0.25)
    common.add_argument(
        "--method",
        type=_parse_method,
        default="All",
        help="mcfdm, cfdm, mc, exact, or all",
    )
    common.add_argument("--n-space", type=int, default=100)
    common.add_argument("--n-time", type=int, default=1000)
    common.add_argument(
        "--s-max",
        type=_parse_smax,
        default="auto",
        help="'auto' or an explicit grid upper bound",
    )
    common.add_argument("--theta-scale", type=float, default=1.0)
    common.add_argument(
        "--theta-mode", choices=("normalized", "literal"), default="normalized"
    )
    common.add_argument(
        "--alpha", choices=("constant", "proportional"), default="constant"
    )
    common.add_argument("--paths", type=int, default=100_000)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument(
        "--mc-steps",
        type=int,
        default=None,
        help="Monte Carlo time steps (default: 1, or the full time grid "
        "for the timing subcommand)",
    )
    common.add_argument(
        "--allow-unstable",
        action="store_true",
        help="run explicit solves past the stability bound",
    )
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--out", default=None, help="write the report to this path")

    parser = argparse.ArgumentParser(
        prog="mcfdm",
        description="European option pricing benchmarks: mean convection "
        "explicit scheme, Crank-Nicolson, Monte Carlo, closed form.",
    )
    parser.add_argument("--version", action="version", version=f"mcfdm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", parents=[common], help="price one contract")
    p_price.add_argument("--maturity", type=float, default=1.0)

    p_table = sub.add_parser(
        "table", parents=[common], help="error table over maturities"
    )
    p_table.add_argument(
        "--maturity",
        type=float,
        action="append",
        default=None,
        help="repeatable; defaults to 0.25 0.5 1.0",
    )

    p_timing = sub.add_parser(
        "timing", parents=[common], help="median solve times per method"
    )
    p_timing.add_argument("--maturity", type=float, default=1.0)
    p_timing.add_argument("--repeats", type=int, default=5)

    p_theta = sub.add_parser(
        "theta-study", parents=[common], help="sweep the convection scaling k"
    )
    p_theta.add_argument("--maturity", type=float, default=1.0)
    p_theta.add_argument(
        "--scaling",
        type=float,
        action="append",
        default=None,
        help="repeatable; defaults to 0.5 1.0 2.0",
    )

    p_conv = sub.add_parser(
        "convergence", parents=[common], help="error versus grid refinement"
    )
    p_conv.add_argument("--maturity", type=float, default=1.0)
    p_conv.add_argument(
        "--grid",
        type=_parse_grid,
        action="append",
        default=None,
        metavar="N_SPACE:N_TIME",
        help="repeatable; defaults to 50:2000 100:2000 200:2000",
    )
    return parser


def _job_from_args(args: argparse.Namespace, *, maturity: float) -> JobSpec:
    shared = {
        name: getattr(args, name)
        for name in JobSpec.__dataclass_fields__
        if name not in ("maturity", "fmt")
    }
    return JobSpec(**shared, maturity=maturity, fmt=args.format)


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
    try:
        if args.command == "price":
            job = _job_from_args(args, maturity=args.maturity)
            report = run_table([args.maturity], job)
        elif args.command == "table":
            maturities = args.maturity or list(_DEFAULT_MATURITIES)
            job = _job_from_args(args, maturity=maturities[0])
            report = run_table(maturities, job)
        elif args.command == "timing":
            job = _job_from_args(args, maturity=args.maturity)
            report = run_timing(job, repeats=args.repeats)
        elif args.command == "theta-study":
            job = _job_from_args(args, maturity=args.maturity)
            scalings = args.scaling or list(_DEFAULT_SCALINGS)
            report = run_theta_study(scalings, job)
        else:
            job = _job_from_args(args, maturity=args.maturity)
            grids = args.grid or list(_DEFAULT_GRIDS)
            report = run_convergence(grids, job)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except McfdmError as exc:
        print(f"error: {exc} [job: {args.command} {vars(args)}]", file=sys.stderr)
        return 2
    _emit(report, job)
    return _exit_code(report)


if __name__ == "__main__":
    raise SystemExit(main())
