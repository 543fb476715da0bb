"""The paper's point values behind ``paper_err_pct``.

``repro.bench.paper`` holds the *bands* every row must land in; this table
holds the single value the paper reports for a row, so the benchmark can
state the model's error beside its host time.  Keys are ``(series,
system)`` as the rows name them.  Where the paper gives only a band, the
value is the band midpoint.  Fig 4c write latency is absent on purpose:
the paper gives it only as "< 9 us".
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["PAPER_POINTS", "paper_error_pct"]

_SNACC = ("uram", "onboard_dram", "host_dram")

#: (series, system) -> (paper value, where it comes from)
PAPER_POINTS: Dict[Tuple[str, str], Tuple[float, str]] = {
    **{("seq_read", s): (6.9, "Fig 4a: every system reads at ~6.9 GB/s")
       for s in ("spdk",) + _SNACC},
    ("seq_write", "spdk"): (
        6.07, "Fig 4a / Sec 5.2: alternates 5.90 / 6.24 GB/s; pair mean"),
    ("seq_write", "uram"): (
        5.46, "Fig 4a / Sec 5.2: alternates 5.32 / 5.6 GB/s; pair mean"),
    ("seq_write", "onboard_dram"): (
        4.7, "Fig 4a / Sec 5.2: varies 4.6 - 4.8 GB/s; midpoint"),
    ("seq_write", "host_dram"): (
        6.07, "Fig 4a / Sec 5.2: alternates like SPDK; pair mean"),
    ("rand_read", "spdk"): (4.5, "Fig 4b: SPDK 4 KiB random read"),
    **{("rand_read", s): (1.6, "Fig 4b: SNAcc 4 KiB random read ~1.6 GB/s")
       for s in _SNACC},
    ("rand_write", "spdk"): (5.25, "Fig 4b: SPDK 4 KiB random write"),
    **{("rand_write", s): (4.8, "Fig 4b: SNAcc 4 KiB random write")
       for s in _SNACC},
    ("read_latency_us", "spdk"): (57.0, "Fig 4c: SPDK 4 KiB read latency"),
    ("read_latency_us", "uram"): (34.0, "Fig 4c: URAM 4 KiB read latency"),
    ("read_latency_us", "onboard_dram"): (
        41.0, "Fig 4c: on-board DRAM 4 KiB read latency"),
    ("read_latency_us", "host_dram"): (
        43.0, "Fig 4c: host DRAM 4 KiB read latency"),
    ("bandwidth", "snacc-host_dram"): (
        6.1, "Fig 6: host-DRAM SNAcc ~6.1 GB/s (best)"),
    ("bandwidth", "spdk"): (6.1, "Fig 6: SPDK reference ~6.1 GB/s (best)"),
    ("bandwidth", "gpu"): (5.76, "Fig 6: GPU reference 5.76 GB/s"),
    ("bandwidth", "snacc-uram"): (
        5.35, "Fig 6: URAM SNAcc, band 5.0 - 5.7; midpoint"),
    ("bandwidth", "snacc-onboard_dram"): (
        4.65, "Fig 6: on-board DRAM SNAcc, band 4.3 - 5.0; midpoint"),
    # A fleet node abstracts one paper system behind its NIC, calibrated
    # from the single-node stack (repro/fleet/node.py); saturated, it must
    # deliver that system's sequential read bandwidth.
    ("node_gbps", "1n/z0.9"): (
        6.9, "Fig 4a: single-system sequential read ~6.9 GB/s"),
}


def paper_error_pct(rows) -> float:
    """Mean |measured - paper| / paper over *rows* with a paper value, in %.

    *rows* are ``repro.bench.runner.ExperimentRow``; rows without an entry
    in :data:`PAPER_POINTS` are skipped.  Returns 0.0 when none has one.
    """
    errors = []
    for row in rows:
        point = PAPER_POINTS.get((row.series, row.system))
        if point is not None:
            errors.append(abs(row.measured - point[0]) / point[0])
    return 100.0 * sum(errors) / len(errors) if errors else 0.0
