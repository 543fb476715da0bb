"""Table 1 reproduction: FPGA resource utilization of the NVMe Streamer."""

from __future__ import annotations

from typing import List

from ...fpga.resources import ALVEO_U280, StreamerAreaModel
from ...units import MiB
from ..paper import Band, TABLE1
from ..runner import ExperimentRow

__all__ = ["table1_point"]


def table1_point(variant: str) -> List[ExperimentRow]:
    """Area rows for one streamer variant vs its Table 1 column."""
    expected = TABLE1[variant]
    report = StreamerAreaModel.for_variant(variant)
    rows = [
        ExperimentRow("LUT", variant, report.lut, "LUTs",
                      Band.point(expected["LUT"], tol=0.001)),
        ExperimentRow("FF", variant, report.ff, "FFs",
                      Band.point(expected["FF"], tol=0.001)),
        ExperimentRow("BRAM", variant, report.bram36, "BRAM36",
                      Band(expected["BRAM"] - 0.01, expected["BRAM"] + 0.01)),
        ExperimentRow("URAM", variant, report.uram_bytes / MiB, "MiB",
                      Band(expected["URAM_MiB"] - 0.01,
                           expected["URAM_MiB"] + 0.01)),
        ExperimentRow("DRAM", variant, report.dram_bytes / MiB, "MiB",
                      Band(expected["DRAM_MiB"] - 0.01,
                           expected["DRAM_MiB"] + 0.01)),
        ExperimentRow("PINNED", variant, report.pinned_host_bytes / MiB,
                      "MiB", Band(expected["PINNED_MiB"] - 0.01,
                                  expected["PINNED_MiB"] + 0.01)),
    ]
    pct = report.percentages(ALVEO_U280)
    rows.append(ExperimentRow("LUT_pct", variant, pct["LUT"], "%"))
    rows.append(ExperimentRow("FF_pct", variant, pct["FF"], "%"))
    rows.append(ExperimentRow("URAM_pct", variant, pct["URAM"], "%"))
    return rows
