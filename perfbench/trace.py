"""Exact per-layer counters and host-time spans, recorded from outside ``src/``.

Both tools work by patching the layers' public classes for the duration of
a measurement and restoring them afterwards, so the simulator itself is
never edited and an untraced run executes it unmodified.

* :class:`Collector` wraps a few constructors to remember every simulator,
  controller, streamer, memory, fabric, MAC and SPDK driver a point builds
  -- including those that ``run_case_study`` builds internally -- and
  reads their public statistics once the point has run.  It is cheap (one
  extra call per constructed object) and is used in every run, because the
  counters feed the determinism digest.
* :class:`Tracer` times every generator resume and scheduled callback
  (``Simulator.process`` / ``schedule_call`` / ``schedule_train``) and
  every call of each layer's public entry points.  A span is attributed to
  the ``repro.<layer>`` package that defines the generator, callable or
  class; self time is a span's time minus its children's.  Time outside
  every span is the kernel's (``sim.self_s``).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.stream_adapter import SnaccUserPort
from repro.core.streamer import NvmeStreamer
from repro.fpga.axi import AxiStream
from repro.mem.dram import DramController
from repro.mem.hostmem import HostDram
from repro.mem.sram import SramMemory
from repro.mem.timed import TimedMemory
from repro.net.mac import EthernetMac
from repro.nvme.controller import NvmeController
from repro.pcie.root_complex import HOST_SEGMENT, PcieEndpoint, PcieFabric
from repro.sim.core import Simulator
from repro.spdk.driver import SpdkNvmeDriver

__all__ = ["Collector", "LAYERS", "SPAN_CAP", "Tracer"]

#: ``repro`` packages that get spans; everything else is kernel time
LAYERS = ("pcie", "mem", "nvme", "core", "spdk", "net", "fleet", "apps",
          "fpga")

#: raw spans kept for ``--trace-out``; aggregates cover every span
SPAN_CAP = 20000

#: each layer's public entry points, wrapped so nested calls become spans
ENTRY_POINTS: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("pcie", PcieEndpoint, ("dma_read", "dma_write")),
    ("pcie", PcieFabric, ("host_mmio_read", "host_mmio_write")),
    ("mem", TimedMemory, ("timed_read", "timed_write")),
    ("mem", SramMemory, ("timed_read", "timed_write")),
    ("mem", DramController, ("timed_read", "timed_write")),
    ("mem", HostDram, ("timed_read", "timed_write")),
    ("nvme", NvmeController, ("bar_read", "bar_write")),
    ("core", SnaccUserPort, ("issue_read", "issue_write", "collect_read",
                             "collect_write_response")),
    ("spdk", SpdkNvmeDriver, ("submit", "submit_split", "io_and_wait")),
    ("net", EthernetMac, ("send", "send_train", "recv")),
    ("fpga", AxiStream, ("send", "recv")),
)


class _Patches:
    """Class attributes replaced until :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []

    def replace(self, cls: type, name: str,
                make: Callable[[Any], Any]) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def restore(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)


# ------------------------------------------------------------------ counters
class Collector:
    """Remembers the objects a point builds; sums their exact statistics.

    Use as a context manager around one point's build and run, then call
    :meth:`counters` while still inside it or right after.
    """

    _CLASSES = (Simulator, PcieFabric, NvmeController, NvmeStreamer,
                TimedMemory, EthernetMac, SpdkNvmeDriver)

    def __init__(self) -> None:
        self.built: Dict[type, List[Any]] = {cls: [] for cls in self._CLASSES}
        self._patches = _Patches()

    def __enter__(self) -> "Collector":
        for cls in self._CLASSES:
            self._patches.replace(cls, "__init__", functools.partial(
                _remembering_init, bucket=self.built[cls]))
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.restore()

    def counters(self) -> Dict[str, float]:
        """Exact counters of everything built so far, by metric name."""
        c: Counter = Counter()
        for ctl in self.built[NvmeController]:
            s = ctl.stats
            c["nvme.cmds"] += s.reads_completed + s.writes_completed
            c["nvme.sqe_fetches"] += s.sqe_fetches
            c["nvme.prp_list_reads"] += s.prp_list_reads
            c["nvme.errors"] += s.errors
        for streamer in self.built[NvmeStreamer]:
            s = streamer.stats
            c["core.user_cmds"] += s.user_reads + s.user_writes
            c["core.nvme_cmds"] += s.nvme_commands
            c["core.errors"] += s.errors
        for mem in self.built[TimedMemory]:
            s = mem.stats
            c["mem.accesses"] += s.reads + s.writes
            c["mem.bytes"] += s.total_bytes
            c["mem.turnarounds"] += s.turnarounds
        for fabric in self.built[PcieFabric]:
            c["pcie.wire_bytes"] += sum(ep.link.total_wire_bytes
                                        for ep in fabric.endpoints.values())
            c["pcie.payload_bytes"] += sum(
                n for seg, n in fabric.traffic.snapshot().items()
                if seg != HOST_SEGMENT)
        for mac in self.built[EthernetMac]:
            c["net.frames"] += mac.tx_frames
            c["net.pause_frames"] += mac.pause_frames_sent
            c["net.dropped"] += mac.dropped_frames
        for driver in self.built[SpdkNvmeDriver]:
            s = driver.device.controller.stats
            c["spdk.cmds"] += s.reads_completed + s.writes_completed
            c["spdk.drivers"] += 1
            c["spdk.cpu_util_sum"] += driver.cpu.utilization()
        # last: quiesce settles the current instant and drains the freelists
        for sim in self.built[Simulator]:
            c["sim.events"] += sim.quiesce().events
        return dict(c)


def _remembering_init(original: Callable[..., None],
                      bucket: List[Any]) -> Callable[..., None]:
    @functools.wraps(original)
    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        bucket.append(self)
    return __init__


# ---------------------------------------------------------------------- spans
def _layer_of_module(module: Optional[str]) -> Optional[str]:
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def _layer_of_generator(gen: Any) -> Optional[str]:
    frame = getattr(gen, "gi_frame", None)
    return None if frame is None else _layer_of_module(
        frame.f_globals.get("__name__"))


class _Spanned:
    """Generator proxy timing each step as one span of ``key``.

    Drop-in for the wrapped generator wherever the kernel or a ``yield
    from`` drives it (``send``/``throw``/``close``); records nothing while
    the tracer is off (system bring-up).
    """

    __slots__ = ("gen", "tracer", "key")

    def __init__(self, gen: Any, tracer: "Tracer",
                 key: Tuple[str, str]) -> None:
        self.gen = gen
        self.tracer = tracer
        self.key = key

    def __iter__(self) -> "_Spanned":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        tracer = self.tracer
        if not tracer.on:
            return self.gen.send(value)
        tracer.enter(self.key)
        try:
            return self.gen.send(value)
        finally:
            tracer.exit()

    def throw(self, *exc: Any) -> Any:
        tracer = self.tracer
        if not tracer.on:
            return self.gen.throw(*exc)
        tracer.enter(self.key)
        try:
            return self.gen.throw(*exc)
        finally:
            tracer.exit()

    def close(self) -> None:
        self.gen.close()


class Tracer:
    """In-memory span recorder; patches the layers while used as a context.

    Spans are recorded only while :attr:`on` is true, which the harness
    sets around each point's timed run.  :meth:`take` returns and clears
    the aggregates: per ``(layer, kind)`` key, the number of spans and
    their summed self time, plus the number of entry-point calls.  Kinds
    are ``resume`` (steps of a process's own generator), ``call``/``tick``
    (scheduled callbacks) and ``Class.method`` (steps of an entry point's
    generator, whoever drives it).  Every span is one resume of code in
    its layer.
    """

    def __init__(self) -> None:
        self.on = False
        #: raw spans: (id, parent id or -1, layer, kind, start_s, end_s)
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self._stack: List[List[Any]] = []
        self._agg: Dict[Tuple[str, str], List[float]] = {}
        self._calls: Counter = Counter()
        self._next_id = 0
        self._origin = time.perf_counter()
        self._patches = _Patches()

    # -- recording -----------------------------------------------------------
    def enter(self, key: Tuple[str, str]) -> None:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        stack.append([key, time.perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        key, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        agg = self._agg.get(key)
        if agg is None:
            agg = self._agg[key] = [0, 0.0]
        agg[0] += 1
        agg[1] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, key[0], key[1],
                               start - self._origin, end - self._origin))

    def take(self) -> Tuple[Dict[Tuple[str, str], List[float]], Counter]:
        """Aggregates since the last call: ``(spans, entry calls)``."""
        agg, calls = self._agg, self._calls
        self._agg, self._calls = {}, Counter()
        return agg, calls

    # -- installation ----------------------------------------------------------
    def __enter__(self) -> "Tracer":
        patches = self._patches
        patches.replace(Simulator, "process", self._traced_process)
        patches.replace(Simulator, "schedule_call", self._traced_call)
        patches.replace(Simulator, "schedule_train", self._traced_train)
        for layer, cls, names in ENTRY_POINTS:
            for name in names:
                patches.replace(cls, name, functools.partial(
                    self._traced_entry, key=(layer, f"{cls.__name__}.{name}")))
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.restore()

    def _traced_process(self, original: Callable[..., Any]) -> Callable:
        tracer = self

        def process(sim: Simulator, gen: Any, name: str = "") -> Any:
            # an entry point's proxy already times every step
            if isinstance(gen, _Spanned):
                return original(sim, gen,
                                name or getattr(gen.gen, "__name__", ""))
            layer = _layer_of_generator(gen)
            if layer is not None:
                name = name or getattr(gen, "__name__", "process")
                gen = _Spanned(gen, tracer, (layer, "resume"))
            return original(sim, gen, name)
        return process

    def _traced_call(self, original: Callable[..., Any]) -> Callable:
        tracer = self

        def schedule_call(sim: Simulator, delay: int, fn: Callable[[Any], None],
                          arg: Any = None) -> Any:
            return original(sim, delay, _timed_callable(tracer, fn, "call"),
                            arg)
        return schedule_call

    def _traced_train(self, original: Callable[..., Any]) -> Callable:
        tracer = self

        def schedule_train(sim: Simulator, count: int, first_delay: int,
                           spacing: int, fn: Callable[[int], None]) -> Any:
            return original(sim, count, first_delay, spacing,
                            _timed_callable(tracer, fn, "tick"))
        return schedule_train

    def _traced_entry(self, original: Callable[..., Any],
                      key: Tuple[str, str]) -> Callable:
        tracer = self

        @functools.wraps(original)
        def entry(*args: Any, **kwargs: Any) -> Any:
            if tracer.on:
                tracer._calls[key] += 1
            return _Spanned(original(*args, **kwargs), tracer, key)
        return entry


def _timed_callable(tracer: Tracer, fn: Callable[[Any], Any],
                    kind: str) -> Callable[[Any], Any]:
    layer = _layer_of_module(getattr(fn, "__module__", None))
    if layer is None:
        return fn
    key = (layer, kind)

    def timed(arg: Any) -> Any:
        if not tracer.on:
            return fn(arg)
        tracer.enter(key)
        try:
            return fn(arg)
        finally:
            tracer.exit()
    return timed
