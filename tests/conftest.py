import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import mcfdm

# a deeper property run loads this profile (--hypothesis-profile=hunt): it
# draws new examples on every run, also where Hypothesis's own "ci" profile,
# loaded whenever CI is set, would derandomize them, and each failure prints
# the blob that @reproduce_failure replays
settings.register_profile("hunt", derandomize=False, print_blob=True)


@pytest.fixture
def fresh_python():
    """Run a new interpreter that imports the mcfdm under test.

    Returns a function of the interpreter's arguments that returns the
    completed process with its text output. A fresh process is how a test
    sees what a cold ``import mcfdm`` or a first call loads.
    """
    src = str(Path(mcfdm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
        )

    return run
