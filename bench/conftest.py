import sys
from pathlib import Path

# the benchmark's tests run against the sources in this checkout
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
