"""Byte-identity of the CLI: every subcommand, format and exit path.

Each case runs ``main(argv)`` in-process and is compared, stdout, stderr
and exit code, with its entry in ``cli_matrix.json``. Only what depends on
the host or the clock is masked: the provenance's ``generated_at``,
``python``, ``numpy``, ``scipy`` and ``cpu_count``, every elapsed time, and
Monte Carlo's ``n_workers``.

After a change that is meant to alter the CLI's output, regenerate the
golden file with ``PYTHONPATH=src python tests/test_cli_matrix.py``, which
prints the cases it added, removed and changed, and review its diff.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

from mcfdm.cli import main

GOLDEN = Path(__file__).with_name("cli_matrix.json")

_SMALL = ["--n-space", "50", "--n-time", "400", "--paths", "2000"]
CASES = {
    "price-text": ["price", *_SMALL],
    "price-csv": ["price", *_SMALL, "--format", "csv"],
    "price-json": ["price", *_SMALL, "--format", "json"],
    "price-pooled-mc-json": [
        "price", "--method", "mc", "--paths", "8192", "--mc-steps", "64", "--format", "json",
    ],
    "price-huge-exact-text": ["price", "--spot", "1e12", "--strike", "1e12", "--method", "exact"],
    # sigma sqrt(T) is subnormal: the closed form is the discounted forward payoff
    "price-tiny-vol-text": ["price", "--vol", "1e-320"],
    "table-text": ["table", *_SMALL, "--maturity", "0.25", "--maturity", "1"],
    "table-csv": ["table", *_SMALL, "--method", "cfdm", "--kind", "put", "--format", "csv"],
    # each maturity reads back from its CSV cell as the same float
    "table-fine-maturity-csv": [
        "table", "--method", "exact", "--maturity", "0.1", "--maturity", "1.0000001",
        "--format", "csv",
    ],
    "table-json": ["table", "--method", "exact", "--spot", "7", "--strike", "7.5", "--format", "json"],
    "timing-text": ["timing", *_SMALL, "--maturity", "0.25", "--repeats", "3"],
    "timing-json": ["timing", *_SMALL, "--maturity", "0.25", "--repeats", "3", "--format", "json"],
    "theta-study-text": ["theta-study", *_SMALL],
    "theta-study-csv": [
        "theta-study", *_SMALL, "--kind", "put", "--theta-mode", "literal",
        "--scaling", "2", "--scaling", "0", "--format", "csv",
    ],
    "theta-study-json": [
        "theta-study", "--spot", "7", "--strike", "7.5", "--alpha", "proportional",
        "--scaling", "0.5", "--scaling", "1", "--format", "json",
    ],
    "convergence-text": [
        "convergence", "--method", "cfdm", "--grid", "50:400", "--grid", "100:400",
    ],
    "convergence-csv": [
        "convergence", "--method", "mcfdm", "--grid", "25:400", "--grid", "50:400",
        "--format", "csv",
    ],
    "convergence-json": [
        "convergence", "--method", "cfdm", "--spot", "7", "--strike", "7.5",
        "--s-max", "29.1", "--grid", "50:500", "--grid", "100:500", "--format", "json",
    ],
    "stability-text": ["price", "--method", "mcfdm", "--n-time", "100"],
    "stability-csv": [
        "theta-study", "--kind", "put", "--scaling", "1", "--scaling", "80", "--format", "csv",
    ],
    "stability-underflow-text": ["theta-study", "--scaling", "1e308"],
    "stability-nan-text": [
        "theta-study", "--scaling", "1e308", "--rate", "0", "--theta-mode", "literal",
        "--n-space", "2000", "--n-time", "10",
    ],
    "diverging-json": [
        "price", "--method", "mcfdm", "--theta-scale", "30", "--allow-unstable",
        "--n-space", "400", "--format", "json",
    ],
    "reject-vol": ["price", "--vol", "-3"],
    "reject-maturity": ["table", "--maturity", "0.25", "--maturity", "-1"],
    "reject-s-max": ["price", "--method", "exact", "--s-max", "nan"],
    "reject-convergence-mc": ["convergence", "--method", "mc"],
    "reject-repeats": ["timing", "--repeats", "2"],
    "reject-method-token": ["price", "--method", "simplex"],
    "version": ["--version"],
}

_HOST = "generated_at|python|numpy|scipy|cpu_count"
_MASKS = {
    "table": [
        (re.compile(rf"^({_HOST}): (?!None$).*$", re.M), r"\1: *"),
        # the elapsed column of a result row
        (re.compile(r"(?<= )\d+\.\d{4}s(?=  )"), "*s"),
    ],
    "csv": [(re.compile(rf"^# ({_HOST}): (?!None$).*$", re.M), r"# \1: *")],
    "json": [
        (re.compile(rf'"({_HOST}|elapsed_seconds|n_workers)": (?!null)[^,\n]*'), r'"\1": "*"'),
    ],
}


def _mask_csv_elapsed(text: str) -> str:
    lines = []
    for line in text.splitlines(keepends=True):
        if not line.startswith("# ") and not line.startswith("method,"):
            (row,) = csv.reader([line])
            if row[4]:
                row[4] = "*"
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerow(row)
                line = buf.getvalue()
        lines.append(line)
    return "".join(lines)


def mask(text: str, fmt: str) -> str:
    for pattern, repl in _MASKS[fmt]:
        text = pattern.sub(repl, text)
    return _mask_csv_elapsed(text) if fmt == "csv" else text


def run_case(argv: list[str]) -> dict:
    """``main(argv)``'s exit code and masked output, with warnings on stderr
    as a fresh process prints them and help text 80 columns wide."""
    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(
            out
        ), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        root.removeHandler(handler)
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    return {"argv": argv, "code": code, "out": mask(out.getvalue(), fmt), "err": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_the_golden_file(golden, case):
    assert run_case(CASES[case]) == golden[case]


def _refuse(constant: str):
    raise AssertionError(f"the report holds {constant}, which is not JSON")


# an unbounded step: at r = 0, sigma^2 S^2 underflows and cfl_margin is inf
_JSON_ARGVS = [argv for argv in CASES.values() if "json" in argv] + [
    ["price", "--vol", "1e-200", "--rate", "0", "--method", "mcfdm", "--format", "json"],
]


@pytest.mark.parametrize("argv", _JSON_ARGVS, ids=" ".join)
def test_json_report_parses_as_strict_json(capsys, argv):
    main(argv)
    json.loads(capsys.readouterr().out, parse_constant=_refuse)


def summary(old: dict, new: dict) -> str:
    """The case names that ``new`` adds to, removes from and changes in ``old``."""
    parts = {
        "added": [case for case in new if case not in old],
        "removed": [case for case in old if case not in new],
        "changed": [case for case in new if case in old and new[case] != old[case]],
    }
    return "".join(f"{label}: {', '.join(cases) or 'none'}\n" for label, cases in parts.items())


def test_summary_names_added_removed_and_changed_cases():
    old = {"a": 1, "b": 2, "c": 3}
    new = {"a": 1, "c": 4, "d": 5}
    assert summary(old, new) == "added: d\nremoved: b\nchanged: c\n"
    assert summary(new, new) == "added: none\nremoved: none\nchanged: none\n"


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    matrix = {case: run_case(argv) for case, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(matrix, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(matrix)} cases to {GOLDEN}\n{summary(old, matrix)}")
