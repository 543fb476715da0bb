"""The benchmark's workloads: what each runs and how its output is checked.

A workload is a list of :class:`Point`\\ s.  A point *builds* fresh systems
through the layers' public constructors -- simulated caches and buffers
start empty, as in the paper's runs -- and generates its inputs (untimed
set-up), then *runs* one simulated experiment (the timed part) and returns
an :class:`Outcome`: rows compared against the paper's bands, the
operations that completed, and exact results for the determinism digest.

The simulated GB/s and microseconds are the model's outputs, not goals:
they are checked against the bands, never scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.apps.case_study import (CaseStudyConfig, IMPLEMENTATIONS,
                                   run_case_study)
from repro.bench.experiments.fig4 import SYSTEMS
from repro.bench.paper import FIG4A, FIG4B, FIG4C, FIG6, Band
from repro.bench.runner import ExperimentRow
from repro.core import StreamerVariant, build_snacc_system
from repro.core.bench import SnaccPerf
from repro.fleet import (FleetConfig, FleetWorkload, build_fleet,
                         generate_requests, site_rng)
from repro.nvme.spec import IoOpcode
from repro.sim.core import Simulator
from repro.spdk.bench import SpdkPerf
from repro.systems import HostSystemConfig, build_host_system
from repro.units import KiB, MiB

__all__ = ["Outcome", "Point", "SIZES", "WORKLOADS", "Workload"]

#: point sizes; ``tiny`` is for the harness tests (bands are not expected
#: to hold at that size)
SIZES: Dict[str, Dict[str, int]] = {
    "full": dict(seq_write_bytes=64 * MiB, seq_read_bytes=256 * MiB,
                 rand_bytes=16 * MiB, latency_samples=1000, images=24,
                 warmup_images=4, zipf8_requests=60000, zipf4_requests=20000,
                 incast_bytes=32 * MiB, node_requests=2000),
    "tiny": dict(seq_write_bytes=2 * MiB, seq_read_bytes=4 * MiB,
                 rand_bytes=256 * KiB, latency_samples=20, images=3,
                 warmup_images=1, zipf8_requests=400, zipf4_requests=200,
                 incast_bytes=1 * MiB, node_requests=100),
}

#: losslessness and conservation are invariants: gate them exactly
_ZERO = Band(0.0, 0.0)

#: fleet object size (the mean of the fleet's default size distribution)
OBJECT_BYTES = 48 * KiB


@dataclass
class Outcome:
    """What one timed run of a point produced."""

    rows: List[ExperimentRow]
    #: operations (NVMe/user commands, images, requests) that completed
    ops_done: int
    #: JSON-able exact results, hashed into the digest
    detail: Any = None
    #: exact per-layer counters the point's results carry (fleet, apps)
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Point:
    """One independent cell of a workload on its own simulators."""

    name: str
    #: operations attempted by one run
    ops: int
    #: untimed: build and bring up the systems, generate the inputs
    build: Callable[[], Any]
    #: timed: run the experiment on what ``build`` returned
    run: Callable[[Any], Outcome]


@dataclass(frozen=True)
class Workload:
    """A named list of points plus checks across them."""

    name: str
    points: Callable[[int, Dict[str, int]], List[Point]]
    #: cross-point invariants over the first run's rows: name -> held
    checks: Optional[Callable[[List[ExperimentRow]], Dict[str, bool]]] = None


def _seed_for(seed: int, site: str) -> int:
    """An integer RNG seed for *site*, derived from the workload seed."""
    return int(site_rng(seed, site).integers(2 ** 31))


# ------------------------------------------------------------ single node
@dataclass
class _Rig:
    """One freshly built and initialized single-node system."""

    sim: Simulator
    perf: Any                  # SpdkPerf or SnaccPerf
    backend: Any               # the SSD's NAND backend
    controller: Any            # the SSD's NVMe controller

    def io_cmds(self) -> int:
        stats = self.controller.stats
        return stats.reads_completed + stats.writes_completed


def _rig(system: str) -> _Rig:
    sim = Simulator()
    config = HostSystemConfig(functional=False)
    if system == "spdk":
        host = build_host_system(sim, config)
        driver = host.spdk_driver()
        sim.run_process(driver.initialize())
        perf: Any = SpdkPerf(driver)
        ssd = host.ssd
    else:
        snacc = build_snacc_system(sim, StreamerVariant(system), config)
        snacc.initialize()
        perf = SnaccPerf(sim, snacc.user)
        ssd = snacc.host.ssd
    return _Rig(sim, perf, ssd.backend, ssd.controller)


def _seq_write_points(seed: int, sizes: Dict[str, int]) -> List[Point]:
    nbytes = sizes["seq_write_bytes"]

    def build(system: str) -> List[_Rig]:
        first, second = _rig(system), _rig(system)
        # successive runs land in alternating write phases of the drive
        second.backend.advance_write_phase()
        return [first, second]

    def run(system: str, rigs: List[_Rig]) -> Outcome:
        runs = [rig.sim.run_process(rig.perf.seq_write(nbytes))
                for rig in rigs]
        gbps = sum(r.gbps for r in runs) / len(runs)
        return Outcome(
            [ExperimentRow("seq_write", system, gbps, "GB/s",
                           FIG4A["seq_write"][system])],
            sum(rig.io_cmds() for rig in rigs),
            detail=[r.elapsed_ns for r in runs])

    return [Point(f"seq_write/{s}", 2 * nbytes // MiB,
                  lambda s=s: build(s), lambda rigs, s=s: run(s, rigs))
            for s in SYSTEMS]


def _seq_read_points(seed: int, sizes: Dict[str, int]) -> List[Point]:
    nbytes = sizes["seq_read_bytes"]

    def run(system: str, rig: _Rig) -> Outcome:
        result = rig.sim.run_process(rig.perf.seq_read(nbytes))
        return Outcome(
            [ExperimentRow("seq_read", system, result.gbps, "GB/s",
                           FIG4A["seq_read"][system])],
            rig.io_cmds(), detail=result.elapsed_ns)

    return [Point(f"seq_read/{s}", nbytes // MiB, lambda s=s: _rig(s),
                  lambda rig, s=s: run(s, rig))
            for s in SYSTEMS]


def _rand_4k_points(seed: int, sizes: Dict[str, int]) -> List[Point]:
    nbytes = sizes["rand_bytes"]
    samples = sizes["latency_samples"]

    def run_random(kind: str, system: str, rig: _Rig) -> Outcome:
        fn = rig.perf.rand_read if kind == "rand_read" else rig.perf.rand_write
        result = rig.sim.run_process(
            fn(nbytes, seed=_seed_for(seed, f"{kind}/{system}")))
        return Outcome(
            [ExperimentRow(kind, system, result.gbps, "GB/s",
                           FIG4B[kind][system])],
            rig.io_cmds(), detail=result.elapsed_ns)

    def run_latency(system: str, rig: _Rig) -> Outcome:
        read_seed = _seed_for(seed, f"read_latency/{system}")
        write_seed = _seed_for(seed, f"write_latency/{system}")
        perf = rig.perf
        if system == "spdk":
            reads = rig.sim.run_process(
                perf.latency_probe(IoOpcode.READ, samples, seed=read_seed))
            writes = rig.sim.run_process(
                perf.latency_probe(IoOpcode.WRITE, samples, seed=write_seed))
        else:
            reads = rig.sim.run_process(
                perf.read_latency(samples, seed=read_seed))
            writes = rig.sim.run_process(
                perf.write_latency(samples, seed=write_seed))
        rows = [ExperimentRow(series, system, sum(lat) / len(lat) / 1000,
                              "us", FIG4C[series][system])
                for series, lat in (("read_latency_us", reads),
                                    ("write_latency_us", writes))]
        return Outcome(rows, rig.io_cmds(), detail=[reads, writes])

    points = [Point(f"{kind}/{s}", nbytes // (4 * KiB), lambda s=s: _rig(s),
                    lambda rig, kind=kind, s=s: run_random(kind, s, rig))
              for kind in ("rand_read", "rand_write") for s in SYSTEMS]
    points += [Point(f"latency/{s}", 2 * samples, lambda s=s: _rig(s),
                     lambda rig, s=s: run_latency(s, rig))
               for s in SYSTEMS]
    return points


# ------------------------------------------------------------- case study
def _image_ingest_points(seed: int, sizes: Dict[str, int]) -> List[Point]:
    # run_case_study builds its own systems, so set-up is empty and the
    # timed run includes bring-up; the inputs are fixed frames, not seeded
    config = CaseStudyConfig(n_images=sizes["images"],
                             warmup_images=sizes["warmup_images"])

    def run(impl: str) -> Outcome:
        result = run_case_study(impl, config)
        per_image = result.pcie_total_bytes / max(1, result.images) / 1e6
        return Outcome(
            [ExperimentRow("bandwidth", impl, result.gbps, "GB/s", FIG6[impl]),
             ExperimentRow("pcie_per_image", impl, per_image, "MB")],
            config.n_images, detail=result.to_json(),
            counters={"apps.images": result.images,
                      "apps.pcie_bytes": result.pcie_total_bytes})

    return [Point(f"case_study/{impl}", config.n_images, lambda: None,
                  lambda _state, impl=impl: run(impl))
            for impl in IMPLEMENTATIONS]


def _fig7_checks(rows: List[ExperimentRow]) -> Dict[str, bool]:
    """Fig 7's claim: on-FPGA buffers move the least over PCIe, GPU most."""
    mb = {r.system: r.measured for r in rows if r.series == "pcie_per_image"}
    if set(mb) != set(IMPLEMENTATIONS):
        return {"fig7_complete": False}
    return {
        "fig7_uram_eq_onboard": abs(mb["snacc-uram"]
                                    - mb["snacc-onboard_dram"])
        <= 0.05 * mb["snacc-onboard_dram"],
        "fig7_uram_below_host_dram":
            mb["snacc-uram"] < 0.6 * mb["snacc-host_dram"],
        "fig7_gpu_most": mb["gpu"] == max(mb.values())
        and mb["gpu"] > mb["spdk"],
    }


# ------------------------------------------------------------------ fleet
def _fleet_outcome(rows: List[ExperimentRow], result: Any) -> Outcome:
    """*rows* plus the loss and conservation invariants of one fleet run."""
    system = rows[0].system
    rows = rows + [
        ExperimentRow("dropped", system, float(result.dropped_frames),
                      "frames", _ZERO),
        ExperimentRow("in_flight_end", system,
                      float(result.frames_in_flight), "frames", _ZERO),
    ]
    return Outcome(rows, result.completed, detail=result.as_dict(),
                   counters={"fleet.requests": result.completed,
                             "fleet.spilled": result.spilled,
                             "fleet.in_flight_end": result.frames_in_flight})


def _fleet_zipf_points(seed: int, sizes: Dict[str, int]) -> List[Point]:
    def build_stream(n_nodes: int, skew: float, n_requests: int,
                     gap_ns: int) -> Any:
        sim = Simulator()
        fleet = build_fleet(sim, FleetConfig(n_nodes=n_nodes))
        fleet.start()
        # Fixed object sizes: with heavy-tailed ones the few hottest
        # objects' size draws moved a run's total bytes by 17-45% between
        # seeds.  The seed drives arrivals and popularity.
        requests = generate_requests(FleetWorkload(
            n_objects=2048, zipf_skew=skew, n_requests=n_requests,
            mean_interarrival_ns=gap_ns, min_object_bytes=OBJECT_BYTES,
            max_object_bytes=OBJECT_BYTES, seed=seed))
        fleet.meter.mark_start(requests[0].issue_ns)
        for g, gateway in enumerate(fleet.gateways):
            gateway.start(requests[g::len(fleet.gateways)])
        return sim, fleet, len(requests)

    def run_stream(series: str, system: str, state: Any,
                   band: Optional[Band] = None) -> Outcome:
        sim, fleet, offered = state
        sim.run()
        result = fleet.result(offered=offered)
        return _fleet_outcome(
            [ExperimentRow(series, system, result.agg_gbps, "GB/s", band),
             ExperimentRow("p99", system, result.p99_us, "us")], result)

    def build_incast(senders: int, nbytes: int) -> Any:
        sim = Simulator()
        fleet = build_fleet(sim, FleetConfig(n_nodes=1, n_gateways=senders))
        fleet.start()
        fleet.meter.mark_start(0)
        for stream, gateway in enumerate(fleet.gateways):
            gateway.start_collector()
            _ = sim.process(gateway.put("n0", stream, nbytes),
                            name=f"{gateway.name}.put")
        return sim, fleet, senders

    def run_incast(state: Any) -> Outcome:
        sim, fleet, offered = state
        sim.run()
        result = fleet.result(offered=offered)
        tiers = float((result.spine_pause_frames > 0)
                      + (result.leaf_pause_frames > 0))
        system = f"{offered}to1"
        return _fleet_outcome(
            [ExperimentRow("incast_gbps", system, result.agg_gbps, "GB/s"),
             ExperimentRow("paused_tiers", system, tiers, "tiers",
                           Band(2.0, 2.0))], result)

    n8, n4, n1 = (sizes["zipf8_requests"], sizes["zipf4_requests"],
                  sizes["node_requests"])
    return [
        Point("zipf/8n", n8, lambda: build_stream(8, 0.9, n8, 2000),
              lambda st: run_stream("agg_gbps", "8n/z0.9", st)),
        Point("zipf/4n", n4, lambda: build_stream(4, 1.3, n4, 4000),
              lambda st: run_stream("agg_gbps", "4n/z1.3", st)),
        Point("incast/8to1", 8,
              lambda: build_incast(8, sizes["incast_bytes"]), run_incast),
        # one saturated node: its delivered read bandwidth is compared
        # with the single-system read figure the node model abstracts
        Point("node/1n", n1, lambda: build_stream(1, 0.9, n1, 2000),
              lambda st: run_stream("node_gbps", "1n/z0.9", st,
                                    FIG4A["seq_read"]["uram"])),
    ]


#: why each workload exists: BENCHMARK.json and README.md
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("seq_write", _seq_write_points),
    Workload("seq_read", _seq_read_points),
    Workload("rand_4k", _rand_4k_points),
    Workload("image_ingest", _image_ingest_points, _fig7_checks),
    Workload("fleet_zipf", _fleet_zipf_points),
)}
