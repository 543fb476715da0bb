"""Set-up probe: one fresh interpreter doing a workload's set-up only.

``python3 -m perfbench.setup_probe WORKLOAD SEED SIZE`` imports the
simulator, builds and brings up every point's systems and generates the
inputs, then prints ``ready``.  The harness times interpreter start to
that line for ``setup_s``.
"""

from __future__ import annotations

import sys

from . import add_sources


def main(argv: list) -> int:
    workload, seed, size = argv
    if not add_sources():
        print("perfbench: no src/repro next to perfbench/", file=sys.stderr)
        return 2
    from .workloads import SIZES, WORKLOADS
    for point in WORKLOADS[workload].points(int(seed), SIZES[size]):
        point.build()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
