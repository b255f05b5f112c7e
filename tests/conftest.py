import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcfdm


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
