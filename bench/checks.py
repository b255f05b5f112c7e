"""Correctness checks on the program's reports.

Rows from every source (an in-process ``TableReport``, or CLI output in
JSON, CSV or text) are first read into ``Row``. The checks then compare
each row with the benchmark's own closed form (``reference``) or with
properties the scheme must have. Each check returns a list of problems;
an empty list means the rows passed. Rows that carry an ``error`` are
failed operations: they are counted by the caller, not checked here.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from reference import bs_price, no_arbitrage_bounds

# |price - closed form| allowed for MCFDM and CFDM rows. The worst error on
# the paper_study ladder (default 100x1000 grid) and on the coarsest
# long_march rung is 4.6e-3.
FD_TOL = 0.01
# Monte Carlo rows must lie within Z_MC standard errors of the closed form.
# A correct estimator misses with probability 2e-9 per row, so a false
# alarm is not expected in any number of runs the benchmark will see.
Z_MC = 6.0
# the program's closed form against the benchmark's
EXACT_TOL = 1e-12
# observed order of both finite-difference engines on the long_march ladder
ORDER_RANGE = (1.8, 2.2)


class Contract(NamedTuple):
    kind: str
    spot: float
    strike: float
    rate: float
    vol: float


class Precision(NamedTuple):
    """How exactly a report format prints prices and errors."""

    price: float  # absolute rounding of a printed price
    error_rel: float  # relative rounding of a printed abs_error


# JSON and in-process reports carry full floats. CSV prints prices with 17
# digits and errors as "2.39E-3"; text prints prices with 5 decimals.
EXACT = Precision(0.0, 0.0)
CSV = Precision(0.0, 0.0051)
TEXT = Precision(5e-6, 0.0051)


@dataclass(frozen=True)
class Row:
    method: str
    maturity: float
    price: float | None
    abs_error: float | None
    se: float | None = None
    k: float | None = None
    order: float | None = None
    elapsed: float | None = None
    error: str | None = None


def rows_from_report(report) -> list[Row]:
    """Rows of an in-process ``TableReport``."""
    return [
        Row(
            method=r.method,
            maturity=r.maturity_years,
            price=r.price,
            abs_error=r.abs_error,
            se=r.metadata.get("se"),
            k=r.metadata.get("theta_scale"),
            order=r.metadata.get("observed_order"),
            elapsed=r.elapsed_seconds,
            error=r.error,
        )
        for r in report.rows
    ]


def rows_from_json(text: str) -> list[Row]:
    return [
        Row(
            method=r["method"],
            maturity=float(r["maturity_years"]),
            price=r["price"],
            abs_error=r["abs_error"],
            se=r["metadata"].get("se"),
            k=r["metadata"].get("theta_scale"),
            order=r["metadata"].get("observed_order"),
            elapsed=r["elapsed_seconds"],
            error=r["error"],
        )
        for r in json.loads(text)["rows"]
    ]


def _float_or_none(cell: str) -> float | None:
    return float(cell) if cell else None


def rows_from_csv(text: str) -> list[Row]:
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return [
        Row(
            method=r["method"],
            maturity=float(r["maturity_years"]),
            price=_float_or_none(r["price"]),
            abs_error=_float_or_none(r["abs_error"]),
            se=_float_or_none(r["se"]),
            k=_float_or_none(r["theta_scale"]),
            elapsed=_float_or_none(r["elapsed_seconds"]),
            error=None if r["price"] else "row failed",
        )
        for r in csv.DictReader(io.StringIO(body))
    ]


def rows_from_text(text: str) -> list[Row]:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if set(line) == {"-"}) + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            continue
        method, maturity, price, error, elapsed, *notes = line.split()
        if price == "-":
            rows.append(Row(method, float(maturity), None, None, error=line))
            continue
        tags = dict(note.split("=", 1) for note in notes if "=" in note)
        rows.append(
            Row(
                method=method,
                maturity=float(maturity),
                price=float(price),
                abs_error=float(error.strip("()")),
                se=float(tags["se"]) if "se" in tags else None,
                k=float(tags["k"]) if "k" in tags else None,
                elapsed=float(elapsed.rstrip("s")),
            )
        )
    return rows


PARSERS = {"json": (rows_from_json, EXACT), "csv": (rows_from_csv, CSV), "table": (rows_from_text, TEXT)}


def failed(rows: Iterable[Row]) -> int:
    return sum(row.error is not None for row in rows)


def check_rows(rows: Iterable[Row], c: Contract, precision: Precision = EXACT) -> list[str]:
    """Price, no-arbitrage and abs_error checks on each row that priced.

    An MCFDM row with multiplier k != 1 is held to the closed form with
    yield q = r*(1 - k), the contract the scheme then prices; its reported
    abs_error is still against the plain closed form.
    """
    problems = []
    for row in rows:
        if row.error is not None:
            continue
        label = f"{row.method} T={row.maturity:g} k={row.k} {c}"
        q = c.rate * (1.0 - row.k) if row.method == "MCFDM" and row.k is not None else 0.0
        target = bs_price(c.kind, c.spot, c.strike, row.maturity, c.rate, c.vol, q)
        plain = bs_price(c.kind, c.spot, c.strike, row.maturity, c.rate, c.vol)
        if row.method in ("MCFDM", "CFDM"):
            tol = FD_TOL
        elif row.method == "MonteCarlo":
            if row.se is None or not row.se > 0.0:
                problems.append(f"{label}: no standard error")
                continue
            tol = Z_MC * row.se
        elif row.method == "Exact":
            tol = EXACT_TOL
        else:
            problems.append(f"{label}: unknown method")
            continue
        tol += precision.price
        if not math.isfinite(row.price) or abs(row.price - target) > tol:
            problems.append(f"{label}: price {row.price!r} is not within {tol:.3g} of {target!r}")
        lo, hi = no_arbitrage_bounds(c.kind, c.spot, c.strike, row.maturity, c.rate, q)
        slack = tol if row.method == "MonteCarlo" else EXACT_TOL + precision.price
        if not lo - slack <= row.price <= hi + slack:
            problems.append(f"{label}: price {row.price!r} is outside [{lo!r}, {hi!r}]")
        expected = abs(row.price - plain)
        err_tol = EXACT_TOL + precision.price + precision.error_rel * expected
        if row.abs_error is None or abs(row.abs_error - expected) > err_tol:
            problems.append(f"{label}: abs_error {row.abs_error!r} is not |price - closed form| = {expected!r}")
    return problems


def check_order(rows: list[Row], label: str) -> list[str]:
    """Every refined rung reports an observed order within ORDER_RANGE."""
    lo, hi = ORDER_RANGE
    return [
        f"{label} rung {i}: observed order {row.order!r} outside [{lo}, {hi}]"
        for i, row in enumerate(rows[1:], start=1)
        if row.error is None and not (row.order is not None and lo <= row.order <= hi)
    ]


def check_equal(a: float | None, b: float | None, label: str) -> list[str]:
    """Bit-for-bit equality of two results that must not differ."""
    return [] if a == b else [f"{label}: {a!r} != {b!r}"]
