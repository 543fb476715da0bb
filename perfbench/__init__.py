"""End-to-end and per-layer benchmark of the SNAcc simulator.

``python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints its metrics; the last line of standard output
is one JSON object (see ``perfbench/README.md``).  The package drives the
simulator in ``src/`` of the same checkout through its public
constructors and never changes it.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["SRC", "add_sources"]

#: the simulator sources this benchmark measures
SRC = Path(__file__).resolve().parent.parent / "src"


def add_sources() -> bool:
    """Put the checkout's ``src`` on ``sys.path``; False when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
