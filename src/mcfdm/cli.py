"""Command-line harness for pricing jobs and benchmark reports.

Subcommands: ``price``, ``table``, ``timing``, ``theta-study``,
``convergence``. Every run produces a ``TableReport`` that can be rendered
as an aligned text table, CSV, or JSON. Reports embed a provenance block
echoing every job parameter, so a JSON report can be fed back in as a job
fragment and re-run.

Exit codes: 0 success, 1 invalid arguments, 2 solver failure (including a
non-finite price) in any row, 3 stability rejection.
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
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from itertools import product
from pathlib import Path
from typing import Any, Callable, Sequence, get_type_hints

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
    "run_table",
    "run_theta_study",
    "run_timing",
]

logger = logging.getLogger(__name__)

CSV_HEADER = (
    "method,maturity_years,price,abs_error,elapsed_seconds,"
    "se,theta_scale,n_space,n_time,paths,seed,error,error_kind"
)
_META_COLUMNS = CSV_HEADER.split(",")[5:-2]

_ALL_METHODS = tuple(m.value for m in Method)
_NUMERICAL_METHODS = tuple(m.value for m in Method if m is not Method.EXACT)
_METHOD_ALIASES = {
    "mcfdm": "MCFDM",
    "cfdm": "CFDM",
    "cn": "CFDM",
    "mc": "MonteCarlo",
    "montecarlo": "MonteCarlo",
    "exact": "Exact",
    "all": "All",
}
# the allowed words of JobSpec's word fields, which are also the choices of
# their flags
_CHOICES = {
    "kind": tuple(kind.value for kind in OptionKind),
    "theta_mode": ("normalized", "literal"),
    "alpha": tuple(profile.value for profile in AlphaProfile),
    "fmt": ("table", "csv", "json"),
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
        for name, words in _CHOICES.items():
            value = getattr(self, name)
            if value not in words:
                *head, last = map(repr, words)
                allowed = ", ".join(head) + ("," if head[1:] else "") + f" or {last}"
                raise ValidationError(f"{name} must be {allowed}, got {value!r}")
        if isinstance(self.s_max, str) and self.s_max != "auto":
            raise ValidationError(f"s_max must be 'auto' or a number, got {self.s_max!r}")


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
                    *(_meta_cell(meta, key) for key in _META_COLUMNS),
                    row.error or "",
                    row.error_kind or "",
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


def _mc_steps(job: JobSpec, *, timing: bool) -> int:
    if job.mc_steps is not None:
        return job.mc_steps
    return job.n_time if timing else 1


def _exact(contract: OptionContract, market: MarketParams) -> PricingResult:
    t_start = time.perf_counter()
    price = black_scholes_price(contract, market)
    elapsed = time.perf_counter() - t_start
    return PricingResult(
        method=Method.EXACT, price=price, abs_error=0.0, elapsed_seconds=elapsed
    )


def _mcfdm(
    contract: OptionContract,
    market: MarketParams,
    disc: Discretization,
    config: ThetaConfig,
    allow_unstable: bool,
) -> PricingResult:
    return solve_mcfdm(
        contract, market, disc, config, allow_unstable=allow_unstable
    ).result


@dataclass(frozen=True, slots=True)
class _Row:
    """One planned row: its labels, its grid, and its ready-to-call solve."""

    method: str
    maturity: float
    disc: Discretization | None
    solve: Callable[[], PricingResult]


def _plan(
    job: JobSpec,
    methods: Sequence[str],
    maturities: Sequence[float],
    *,
    grids: Sequence[tuple[int, int]] | None = None,
    scalings: Sequence[float] = (),
    timing: bool = False,
) -> list[_Row]:
    """Build every row's inputs, then one solve per row, method-major.

    The market, θ and Monte Carlo configs are built once per job, the
    contract once per maturity and the grid once per (maturity, grid), and
    the rows share them. Building them is the validation: bad input raises
    ``ValidationError`` here, before any row runs. The Monte Carlo config is
    built only when Monte Carlo runs, and grids only when a grid engine runs
    or ``grids`` is given (convergence rows report each grid's ``ds``).
    """
    market = MarketParams(
        r=job.rate, sigma=job.vol, alpha_profile=AlphaProfile(job.alpha)
    )
    normalize = job.theta_mode == "normalized"
    theta = ThetaConfig(scaling=job.theta_scale, normalize=normalize)
    thetas = [ThetaConfig(scaling=k, normalize=normalize) for k in scalings]
    contracts = {
        maturity: OptionContract(
            kind=OptionKind(job.kind),
            strike=job.strike,
            maturity=maturity,
            spot=job.spot,
        )
        for maturity in maturities
    }
    grid_list = [tuple(g) for g in grids] if grids else [(job.n_space, job.n_time)]
    discs = {}
    if grids is not None or not {"MCFDM", "CFDM"}.isdisjoint(methods):
        discs = {
            (maturity, grid): build_grid(contract, *grid, s_max=job.s_max)
            for maturity, contract in contracts.items()
            for grid in grid_list
        }
    if "MonteCarlo" in methods:
        mc = McConfig(
            n_paths=job.paths,
            seed=job.seed,
            n_time_steps=_mc_steps(job, timing=timing),
        )
    rows = []
    for method, maturity, grid, config in product(
        methods, maturities, grid_list, thetas or [theta]
    ):
        contract, disc = contracts[maturity], discs.get((maturity, grid))
        if method == "Exact":
            solve = partial(_exact, contract, market)
        elif method == "MonteCarlo":
            solve = partial(price_monte_carlo, contract, market, mc)
        elif method == "CFDM":
            solve = partial(solve_crank_nicolson, contract, market, disc)
        else:
            solve = partial(
                _mcfdm, contract, market, disc, config, job.allow_unstable
            )
        rows.append(_Row(method, maturity, disc, solve))
    return rows


def _error_kind(exc: McfdmError) -> str:
    if isinstance(exc, StabilityError):
        return "stability"
    if isinstance(exc, ValidationError):
        return "invalid"
    return "solver"


def _solve_row(row: _Row, repeats: int | None = None) -> ReportRow:
    """Run one planned row, capturing failures in the report row.

    With ``repeats``, the first solve is a warm-up and the row reports the
    median seconds of ``repeats`` further solves.
    """
    try:
        result = row.solve()
        if not math.isfinite(result.price):
            raise McfdmError(f"solver returned a non-finite price {result.price}")
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
    except McfdmError as exc:
        return ReportRow(
            method=row.method,
            maturity_years=row.maturity,
            price=None,
            abs_error=None,
            elapsed_seconds=None,
            error=str(exc),
            error_kind=_error_kind(exc),
        )


def _provenance(
    job: JobSpec, rows: Sequence[ReportRow], **extra: Any
) -> dict[str, Any]:
    """The report's provenance block, built after its ``rows`` have run.

    ``scipy`` is the version of the scipy that the report's Crank-Nicolson
    and Monte Carlo rows loaded, or ``None`` when it has no such row, even
    if an earlier call in the same process loaded scipy. It is read from
    ``sys.modules``, so that writing it loads nothing.
    """
    echo = asdict(job)
    echo["mc_steps"] = _mc_steps(job, timing=extra.get("subcommand") == "timing")
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
        "job": echo,
    }
    block.update(extra)
    return block


def _methods_for(job: JobSpec, numerical_only: bool = False) -> list[str]:
    if job.method == "All":
        return list(_NUMERICAL_METHODS if numerical_only else _ALL_METHODS)
    return [job.method]


def _numbers(values: Sequence[float], name: str) -> list[float]:
    """``values`` as a list, checked to be nonempty and all numbers."""
    values = list(values)
    if not values:
        raise ValidationError(f"{name} list must be nonempty")
    for value in values:
        if not _fits(value, float):
            raise ValidationError(f"{name} must be a number, got {value!r}")
    return values


def run_table(maturities: Sequence[float], job: JobSpec) -> TableReport:
    """One row per (method, maturity); row failures are recorded in-row."""
    maturities = _numbers(maturities, "maturity")
    # rows run one at a time so that each row's elapsed_seconds times its
    # solve alone
    rows = [_solve_row(row) for row in _plan(job, _methods_for(job), maturities)]
    return TableReport(
        provenance=_provenance(job, rows, subcommand="table", maturities=maturities),
        rows=tuple(rows),
    )


def run_timing(job: JobSpec, repeats: int = 5) -> TableReport:
    """Median solve-only seconds per method over ``repeats`` runs.

    A warm-up run precedes the measured ones. Monte Carlo marches the
    job's full time grid here unless ``mc_steps`` pins a step count, so
    all methods advance through the same number of time levels.
    """
    if not _fits(repeats, int) or repeats < 3:
        raise ValidationError(f"repeats must be an int >= 3, got {repeats!r}")
    plan = _plan(
        job, _methods_for(job, numerical_only=True), [job.maturity], timing=True
    )
    rows = [_solve_row(row, repeats) for row in plan]
    return TableReport(
        provenance=_provenance(job, rows, subcommand="timing", repeats=repeats),
        rows=tuple(rows),
    )


def run_theta_study(scalings: Sequence[float], job: JobSpec) -> TableReport:
    """One MCFDM row per scaling k, sorted by k, with oscillation flags."""
    ordered = sorted(_numbers(scalings, "scaling"))
    # the study always runs MCFDM, whatever the base job selects
    plan = _plan(job, ["MCFDM"], [job.maturity], scalings=ordered)
    rows = tuple(_solve_row(row) for row in plan)
    return TableReport(
        provenance=_provenance(job, rows, subcommand="theta-study", scalings=ordered),
        rows=rows,
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
    for grid in grids:
        # a replayed report holds its grids as "N_SPACE:N_TIME" strings
        if not (
            isinstance(grid, (tuple, list))
            and len(grid) == 2
            and all(_fits(n, int) for n in grid)
        ):
            raise ValidationError(f"grid must be a pair of ints, got {grid!r}")
    if job.method == "All":
        raise ValidationError("convergence runs a single method; pick one")
    rows: list[ReportRow] = []
    previous: ReportRow | None = None
    for planned in _plan(job, [job.method], [job.maturity], grids=grids):
        row = _solve_row(planned)
        rows.append(row)
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
    return TableReport(
        provenance=_provenance(
            job,
            rows,
            subcommand="convergence",
            grids=[f"{ns}:{nt}" for ns, nt in grids],
        ),
        rows=tuple(rows),
    )


def _fits(value: Any, hint: Any) -> bool:
    """Whether ``value`` fits a field annotation; an int may stand for a float."""
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, hint) or (isinstance(value, int) and isinstance(0.0, hint))


def jobspec_from_report(report: dict[str, Any]) -> JobSpec:
    """Rebuild the job from a parsed JSON report's provenance echo."""
    try:
        echo = dict(report["provenance"]["job"])
    except (KeyError, TypeError) as exc:
        raise ValidationError("report lacks a provenance.job block") from exc
    unknown = set(echo) - set(_JOB_HINTS)
    if unknown:
        raise ValidationError(f"unknown job fields in report: {sorted(unknown)}")
    # the report is untyped JSON, so each field is checked against its annotation
    for name, value in echo.items():
        if not _fits(value, _JOB_HINTS[name]):
            expected = getattr(_JOB_HINTS[name], "__name__", _JOB_HINTS[name])
            raise ValidationError(f"job field {name} must be {expected}, got {value!r}")
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
    shared = {spec.name: getattr(args, spec.name) for spec in fields(JobSpec)}
    return JobSpec(**{**shared, "maturity": maturity})


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
        if args.command == "table":
            maturities = args.maturity or list(_DEFAULT_MATURITIES)
        else:
            maturities = [args.maturity]
        job = _job_from_args(args, maturity=maturities[0])
        if args.command in ("price", "table"):
            report = run_table(maturities, job)
        elif args.command == "timing":
            report = run_timing(job, repeats=args.repeats)
        elif args.command == "theta-study":
            report = run_theta_study(args.scaling or list(_DEFAULT_SCALINGS), job)
        else:
            report = run_convergence(args.grid or list(_DEFAULT_GRIDS), job)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, job)
    return _exit_code(report)


if __name__ == "__main__":
    raise SystemExit(main())
