"""Figures 6 and 7 reproduction: the image-classification case study.

One run per implementation yields both the bandwidth (Fig 6) and the PCIe
transfer volume (Fig 7) — exactly how the paper derives the two figures
from the same experiment.
"""

from __future__ import annotations

from typing import Dict

from ...apps.case_study import (CaseStudyConfig, CaseStudyResult,
                                IMPLEMENTATIONS, run_case_study)
from ...systems import HostSystemConfig
from ..paper import FIG6, FIG7_ORDER
from ..runner import ExperimentResult

__all__ = ["run_case_study_all", "case_study_point",
           "fig6_from_results", "fig7_from_results"]


def case_study_point(implementation: str, n_images: int,
                     warmup_images: int,
                     coarsening: str = "train") -> CaseStudyResult:
    """Run one implementation on a private simulator (one parallel job).

    *coarsening* selects the Ethernet front end's frame-train fast path
    or the per-frame reference path; both give identical results.
    """
    config = CaseStudyConfig(n_images=n_images, warmup_images=warmup_images,
                             host=HostSystemConfig(coarsening=coarsening))
    return run_case_study(implementation, config)


def run_case_study_all(n_images: int = 48,
                       warmup_images: int = 8
                       ) -> Dict[str, CaseStudyResult]:
    """Run all five implementations on identical workloads."""
    return {impl: case_study_point(impl, n_images, warmup_images)
            for impl in IMPLEMENTATIONS}


def fig6_from_results(results: Dict[str, CaseStudyResult]
                      ) -> ExperimentResult:
    """Bandwidth per implementation (Fig 6)."""
    out = ExperimentResult("fig6", "case-study bandwidth (GB/s)")
    for impl, r in results.items():
        out.add("bandwidth", impl, r.gbps, "GB/s", FIG6[impl])
        out.add("fps", impl, r.fps, "fps")
        out.add("cpu", impl, 100 * r.cpu_utilization, "%")
    return out


def fig7_from_results(results: Dict[str, CaseStudyResult]
                      ) -> ExperimentResult:
    """PCIe transfer volume per implementation (Fig 7).

    Reported per stored image so different run lengths compare directly;
    the paper's claim is the *ordering*: URAM and on-board DRAM fewest,
    GPU most.
    """
    out = ExperimentResult("fig7", "PCIe data transfers (MB per image)")
    for impl in FIG7_ORDER:
        r = results[impl]
        images = max(1, r.images)
        out.add("pcie_per_image", impl,
                r.pcie_total_bytes / images / 1e6, "MB")
        for segment, nbytes in sorted(r.pcie_traffic.items()):
            out.add(f"segment_{segment}", impl, nbytes / images / 1e6, "MB")
    return out
