"""Point the interpreter at the oddspan sources of this checkout."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import oddspan from ``src/`` next to the bench, or exit 2.

    The bench must measure the code of the checkout it sits in, never an
    installed copy, so a missing ``src/oddspan`` is an error.
    """
    if not (SRC / "oddspan" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no oddspan sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import oddspan

    if Path(oddspan.__file__).resolve().parent != SRC / "oddspan":
        sys.stderr.write(f"perfbench: imported oddspan from {oddspan.__file__}, not {SRC}\n")
        raise SystemExit(2)
