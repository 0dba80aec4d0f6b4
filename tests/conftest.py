"""Let the subprocesses that tests start import the package from ``src``,
as pytest's ``pythonpath`` setting does for the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + _paths)
