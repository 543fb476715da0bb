"""Fleet experiment family: what the single-node paper cannot show.

Three sub-sweeps, all on the leaf/spine fabric of :mod:`repro.fleet`:

* **scale** — aggregate delivered GB/s and p50/p99/p999 stream latency
  vs node count (1/2/4/8) under a fixed saturating Zipf-0.9 workload;
  the knee where offered load stops outrunning fleet capacity is the
  headline number;
* **skew** — the same fleet at 4 nodes under moderate load, sweeping
  Zipf skew: tail latency (p999) degrades and load-aware spill-over
  engages as the object head heats up;
* **incast** — every gateway pushes to one victim node at t=0; PAUSE
  must propagate across *both* switch tiers (``paused_tiers`` is gated
  at exactly 2) and nothing may drop (``dropped`` gated at exactly 0).

Every point is an independent, seeded, deterministic simulation — the
rows are byte-identical at any ``--jobs`` count and cache like every
other experiment.
"""

from __future__ import annotations

from typing import List

from ...fleet import FleetConfig, FleetWorkload, run_fleet, run_incast
from ...units import MiB
from ..paper import Band
from ..runner import ExperimentRow

__all__ = ["FLEET_NODE_COUNTS", "FLEET_SKEWS", "FLEET_SCALE_SKEW",
           "FLEET_SKEW_NODES", "FLEET_TITLE", "fleet_incast_point",
           "fleet_scale_point"]

#: node counts of the scale sweep (fixed skew FLEET_SCALE_SKEW)
FLEET_NODE_COUNTS = (1, 2, 4, 8)
#: Zipf skews of the tail-latency sweep (fixed FLEET_SKEW_NODES nodes)
FLEET_SKEWS = (0.6, 1.3)
FLEET_SCALE_SKEW = 0.9
FLEET_SKEW_NODES = 4
FLEET_TITLE = ("multi-node fleet: aggregate GB/s + stream latency vs "
               "node count and Zipf skew")

#: losslessness is an invariant, not a tuning target — gate it exactly
_NO_DROPS = Band(0.0, 0.0)
#: incast PAUSE must be seen at both fabric tiers (leaf and spine)
_BOTH_TIERS = Band(2.0, 2.0)


def fleet_scale_point(n_nodes: int, zipf_skew: float, n_requests: int,
                      n_objects: int, mean_interarrival_ns: int,
                      coarsening: str = "train") -> List[ExperimentRow]:
    """One fleet cell: *n_nodes* nodes serving a seeded GET workload."""
    workload = FleetWorkload(
        n_objects=n_objects, zipf_skew=zipf_skew, n_requests=n_requests,
        mean_interarrival_ns=mean_interarrival_ns)
    result = run_fleet(FleetConfig(n_nodes=n_nodes, coarsening=coarsening),
                       workload)
    system = f"{n_nodes}n/z{zipf_skew:g}"
    return [
        ExperimentRow("agg_gbps", system, result.agg_gbps, "GB/s"),
        ExperimentRow("p50", system, result.p50_us, "us"),
        ExperimentRow("p99", system, result.p99_us, "us"),
        ExperimentRow("p999", system, result.p999_us, "us"),
        ExperimentRow("spilled", system, float(result.spilled), "streams"),
        ExperimentRow("dropped", system, float(result.dropped_frames),
                      "frames", _NO_DROPS),
    ]


def fleet_incast_point(n_senders: int, put_mib: int,
                       coarsening: str = "train") -> List[ExperimentRow]:
    """Incast onto one node: multi-hop PAUSE, loss-free by construction."""
    result = run_incast(FleetConfig(n_nodes=1, n_gateways=n_senders,
                                    coarsening=coarsening),
                        put_bytes=put_mib * MiB)
    system = f"{n_senders}to1"
    paused_tiers = float((result.spine_pause_frames > 0)
                         + (result.leaf_pause_frames > 0))
    return [
        ExperimentRow("incast_gbps", system, result.agg_gbps, "GB/s"),
        ExperimentRow("paused_tiers", system, paused_tiers, "tiers",
                      _BOTH_TIERS),
        ExperimentRow("far_pause", system,
                      result.far_sender_pause_ns / 1000.0, "us"),
        ExperimentRow("dropped", system, float(result.dropped_frames),
                      "frames", _NO_DROPS),
    ]
