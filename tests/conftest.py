"""The interpreters the tests start (`python -m catb2`, `python -c ...`) import
catb2 from this checkout's `src`, as the tests themselves do, so the suite
runs without an install."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
