"""Make ``import rgpoly`` load the library from this checkout's ``src/``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Put ``src/`` first on the import path; exit with code 2 if it is absent.

    An installed copy of rgpoly elsewhere must never be measured in its place.
    """
    if not (SRC / "rgpoly" / "__init__.py").is_file():
        print(f"error: no rgpoly sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import rgpoly
    if Path(rgpoly.__file__).resolve().parent != SRC / "rgpoly":
        print(f"error: rgpoly was imported from {rgpoly.__file__}", file=sys.stderr)
        sys.exit(2)
