"""Exact schedules of the fabric's DMA and MMIO paths, pinned.

Each cell drives one operation through a fresh fabric at fixed times:
host-memory and peer-to-peer reads and writes of one chunk (4 KiB) and of
an elastic span (64 KiB), plus host MMIO reads and writes.  Every
operation runs alone, and again with an identical competitor issued 10 ns
later, so the two share every link direction of the route.  Each runs
with PCIe TLP faults off, and again with loss and corruption armed
through ``PcieLink.attach_faults``.

The pins were recorded while the DMA paths still carried their own
copies of the single-chunk serialize sequence, and any change to the
transfer path must reproduce them: the kernel's sequence counter, the
final clock, each operation's completion time, every link's wire bytes,
the traffic snapshot and the replay counters.
"""

from typing import Dict, NamedTuple, Tuple

import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.mem import HostDram, SramMemory
from repro.pcie import Iommu, LinkParams, PcieFabric
from repro.sim import Simulator
from repro.sim.stats import FaultStats
from repro.units import KiB, MiB

from .test_fabric import FPGA_BAR, HOST_BASE, SramBarHandler

#: start of the competitor, inside the first operation's request TLPs
COMPETITOR_NS = 10
FAULTS = FaultConfig(pcie_tlp_loss_rate=0.25, pcie_tlp_corrupt_rate=0.1)


class Schedule(NamedTuple):
    seq: int
    now: int
    done: Tuple[int, ...]
    #: (name, up, down) wire bytes per link
    wire: Tuple[Tuple[str, int, int], ...]
    traffic: Dict[str, int]
    #: (pcie_replays, pcie_tlp_dropped, pcie_tlp_corrupted)
    replays: Tuple[int, int, int]


def _run(route: str, op: str, nbytes: int, contended: bool,
         faulty: bool) -> Schedule:
    sim = Simulator()
    fabric = PcieFabric(sim, iommu=Iommu(enabled=False))
    fabric.attach_host_memory(HostDram(sim, 16 * MiB), HOST_BASE)
    fpga = fabric.attach_endpoint("fpga", LinkParams(gen=3, lanes=16))
    fabric.add_bar(fpga, FPGA_BAR, 1 * MiB,
                   SramBarHandler(SramMemory(sim, 1 * MiB, name="uram")))
    ssd = fabric.attach_endpoint("ssd", LinkParams(gen=4, lanes=4))
    stats = FaultStats()
    if faulty:
        plan = FaultPlan(FAULTS)
        for ep in (fpga, ssd):
            ep.link.attach_faults(plan, stats)
    addr = HOST_BASE if route == "host" else FPGA_BAR
    done = []

    def issue(delay):
        if delay:
            yield sim.timeout(delay)
        if route == "mmio":
            if op == "read":
                yield from fabric.host_mmio_read(FPGA_BAR, nbytes,
                                                 functional=False)
            else:
                yield from fabric.host_mmio_write(FPGA_BAR, nbytes=nbytes)
        elif op == "read":
            yield from ssd.dma_read(addr, nbytes, functional=False)
        else:
            yield from ssd.dma_write(addr, nbytes=nbytes)
        done.append(sim.now)

    _ = sim.process(issue(0))
    if contended:
        _ = sim.process(issue(COMPETITOR_NS))
    sim.run()
    return Schedule(
        sim._seq, sim.now, tuple(done),
        tuple((ep.name, ep.link.wire_bytes["up"], ep.link.wire_bytes["down"])
              for ep in (fpga, ssd)),
        fabric.traffic.snapshot(),
        (stats.pcie_replays, stats.pcie_tlp_dropped, stats.pcie_tlp_corrupted))


def _cells():
    for route in ("host", "p2p", "mmio"):
        for op in ("read", "write"):
            for nbytes in ((4,) if route == "mmio" else (4 * KiB, 64 * KiB)):
                for contended in (False, True):
                    for faulty in (False, True):
                        yield route, op, nbytes, contended, faulty


def _cell_id(cell) -> str:
    route, op, nbytes, contended, faulty = cell
    return (f"{route}-{op}-{nbytes}-{'pair' if contended else 'alone'}"
            f"-{'faults' if faulty else 'clean'}")


#: recorded before the DMA paths called PcieLink.serialize
PINS: Dict[str, Schedule] = {
    'host-read-4096-alone-clean': Schedule(
        7, 1058, (1058,),
        (('fpga', 0, 0), ('ssd', 192, 4480)),
        {'host': 4096, 'ssd': 4096}, (0, 0, 0)),
    'host-read-4096-alone-faults': Schedule(
        16, 5183, (5183,),
        (('fpga', 0, 0), ('ssd', 1152, 4480)),
        {'host': 4096, 'ssd': 4096}, (5, 4, 1)),
    'host-read-4096-pair-clean': Schedule(
        18, 1627, (1058, 1627),
        (('fpga', 0, 0), ('ssd', 384, 8960)),
        {'host': 8192, 'ssd': 8192}, (0, 0, 0)),
    'host-read-4096-pair-faults': Schedule(
        29, 7321, (5183, 7321),
        (('fpga', 0, 0), ('ssd', 1344, 13440)),
        {'host': 8192, 'ssd': 8192}, (6, 5, 1)),
    'host-read-65536-alone-clean': Schedule(
        8, 12418, (12418,),
        (('fpga', 0, 0), ('ssd', 3072, 71680)),
        {'host': 65536, 'ssd': 65536}, (0, 0, 0)),
    'host-read-65536-alone-faults': Schedule(
        24, 24535, (24535,),
        (('fpga', 0, 0), ('ssd', 18432, 104448)),
        {'host': 65536, 'ssd': 65536}, (7, 6, 1)),
    'host-read-65536-pair-clean': Schedule(
        37, 21523, (20742, 21523),
        (('fpga', 0, 0), ('ssd', 6144, 143360)),
        {'host': 131072, 'ssd': 131072}, (0, 0, 0)),
    'host-read-65536-pair-faults': Schedule(
        49, 36721, (35940, 36721),
        (('fpga', 0, 0), ('ssd', 21504, 192512)),
        {'host': 131072, 'ssd': 131072}, (8, 7, 1)),
    'host-write-4096-alone-clean': Schedule(
        5, 958, (958,),
        (('fpga', 0, 0), ('ssd', 4480, 0)),
        {'host': 4096, 'ssd': 4096}, (0, 0, 0)),
    'host-write-4096-alone-faults': Schedule(
        14, 7803, (7803,),
        (('fpga', 0, 0), ('ssd', 26880, 0)),
        {'host': 4096, 'ssd': 4096}, (5, 4, 1)),
    'host-write-4096-pair-clean': Schedule(
        13, 1527, (958, 1527),
        (('fpga', 0, 0), ('ssd', 8960, 0)),
        {'host': 8192, 'ssd': 8192}, (0, 0, 0)),
    'host-write-4096-pair-faults': Schedule(
        22, 8372, (7803, 8372),
        (('fpga', 0, 0), ('ssd', 31360, 0)),
        {'host': 8192, 'ssd': 8192}, (5, 4, 1)),
    'host-write-65536-alone-clean': Schedule(
        6, 11952, (11952,),
        (('fpga', 0, 0), ('ssd', 71680, 0)),
        {'host': 65536, 'ssd': 65536}, (0, 0, 0)),
    'host-write-65536-alone-faults': Schedule(
        18, 26357, (26357,),
        (('fpga', 0, 0), ('ssd', 153600, 0)),
        {'host': 65536, 'ssd': 65536}, (5, 4, 1)),
    'host-write-65536-pair-clean': Schedule(
        32, 21057, (20276, 21057),
        (('fpga', 0, 0), ('ssd', 143360, 0)),
        {'host': 131072, 'ssd': 131072}, (0, 0, 0)),
    'host-write-65536-pair-faults': Schedule(
        42, 41624, (40843, 41624),
        (('fpga', 0, 0), ('ssd', 258048, 0)),
        {'host': 131072, 'ssd': 131072}, (7, 6, 1)),
    'p2p-read-4096-alone-clean': Schedule(
        9, 1523, (1523,),
        (('fpga', 4480, 0), ('ssd', 192, 4480)),
        {'fpga': 4096, 'ssd': 4096}, (0, 0, 0)),
    'p2p-read-4096-alone-faults': Schedule(
        18, 5648, (5648,),
        (('fpga', 4480, 0), ('ssd', 1152, 4480)),
        {'fpga': 4096, 'ssd': 4096}, (5, 4, 1)),
    'p2p-read-4096-pair-clean': Schedule(
        25, 2092, (1523, 2092),
        (('fpga', 8960, 0), ('ssd', 384, 8960)),
        {'fpga': 8192, 'ssd': 8192}, (0, 0, 0)),
    'p2p-read-4096-pair-faults': Schedule(
        36, 7786, (5648, 7786),
        (('fpga', 8960, 0), ('ssd', 1344, 13440)),
        {'fpga': 8192, 'ssd': 8192}, (6, 5, 1)),
    'p2p-read-65536-alone-clean': Schedule(
        11, 17895, (17895,),
        (('fpga', 71680, 0), ('ssd', 3072, 71680)),
        {'fpga': 65536, 'ssd': 65536}, (0, 0, 0)),
    'p2p-read-65536-alone-faults': Schedule(
        30, 30012, (30012,),
        (('fpga', 71680, 0), ('ssd', 18432, 104448)),
        {'fpga': 65536, 'ssd': 65536}, (7, 6, 1)),
    'p2p-read-65536-pair-clean': Schedule(
        49, 28041, (25179, 28041),
        (('fpga', 143360, 0), ('ssd', 6144, 143360)),
        {'fpga': 131072, 'ssd': 131072}, (0, 0, 0)),
    'p2p-read-65536-pair-faults': Schedule(
        69, 43239, (35215, 43239),
        (('fpga', 188416, 0), ('ssd', 21504, 192512)),
        {'fpga': 131072, 'ssd': 131072}, (12, 10, 2)),
    'p2p-write-4096-alone-clean': Schedule(
        7, 1288, (1288,),
        (('fpga', 0, 4480), ('ssd', 4480, 0)),
        {'fpga': 4096, 'ssd': 4096}, (0, 0, 0)),
    'p2p-write-4096-alone-faults': Schedule(
        18, 9418, (9418,),
        (('fpga', 0, 8960), ('ssd', 26880, 0)),
        {'fpga': 4096, 'ssd': 4096}, (6, 5, 1)),
    'p2p-write-4096-pair-clean': Schedule(
        17, 1857, (1288, 1857),
        (('fpga', 0, 8960), ('ssd', 8960, 0)),
        {'fpga': 8192, 'ssd': 8192}, (0, 0, 0)),
    'p2p-write-4096-pair-faults': Schedule(
        29, 9703, (9418, 9703),
        (('fpga', 0, 13440), ('ssd', 31360, 0)),
        {'fpga': 8192, 'ssd': 8192}, (6, 5, 1)),
    'p2p-write-65536-alone-clean': Schedule(
        9, 17294, (17294,),
        (('fpga', 0, 71680), ('ssd', 71680, 0)),
        {'fpga': 65536, 'ssd': 65536}, (0, 0, 0)),
    'p2p-write-65536-alone-faults': Schedule(
        26, 33740, (33740,),
        (('fpga', 0, 88064), ('ssd', 153600, 0)),
        {'fpga': 65536, 'ssd': 65536}, (6, 5, 1)),
    'p2p-write-65536-pair-clean': Schedule(
        57, 33206, (29782, 33206),
        (('fpga', 0, 143360), ('ssd', 143360, 0)),
        {'fpga': 131072, 'ssd': 131072}, (0, 0, 0)),
    'p2p-write-65536-pair-faults': Schedule(
        73, 59896, (56472, 59896),
        (('fpga', 0, 204800), ('ssd', 258048, 0)),
        {'fpga': 131072, 'ssd': 131072}, (12, 10, 2)),
    'mmio-read-4-alone-clean': Schedule(
        5, 763, (763,),
        (('fpga', 28, 0), ('ssd', 0, 0)),
        {'fpga': 4}, (0, 0, 0)),
    'mmio-read-4-alone-faults': Schedule(
        5, 763, (763,),
        (('fpga', 28, 0), ('ssd', 0, 0)),
        {'fpga': 4}, (0, 0, 0)),
    'mmio-read-4-pair-clean': Schedule(
        13, 774, (763, 774),
        (('fpga', 56, 0), ('ssd', 0, 0)),
        {'fpga': 8}, (0, 0, 0)),
    'mmio-read-4-pair-faults': Schedule(
        13, 774, (763, 774),
        (('fpga', 56, 0), ('ssd', 0, 0)),
        {'fpga': 8}, (0, 0, 0)),
    'mmio-write-4-alone-clean': Schedule(
        5, 263, (263,),
        (('fpga', 0, 28), ('ssd', 0, 0)),
        {'fpga': 4}, (0, 0, 0)),
    'mmio-write-4-alone-faults': Schedule(
        7, 1265, (1265,),
        (('fpga', 0, 56), ('ssd', 0, 0)),
        {'fpga': 4}, (1, 1, 0)),
    'mmio-write-4-pair-clean': Schedule(
        12, 274, (263, 274),
        (('fpga', 0, 56), ('ssd', 0, 0)),
        {'fpga': 8}, (0, 0, 0)),
    'mmio-write-4-pair-faults': Schedule(
        16, 1276, (1265, 1276),
        (('fpga', 0, 84), ('ssd', 0, 0)),
        {'fpga': 8}, (1, 1, 0)),
}


@pytest.mark.parametrize("cell", list(_cells()), ids=_cell_id)
def test_schedule_matches_pin(cell):
    assert _run(*cell) == PINS[_cell_id(cell)]


def test_every_cell_is_pinned():
    assert sorted(PINS) == sorted(_cell_id(c) for c in _cells())
