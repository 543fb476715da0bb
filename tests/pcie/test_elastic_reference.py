"""The elastic PCIe span against its ``any_of`` reference.

:class:`AnyOfSpanLink` keeps the span as it was first written: a
contention event succeeded by the direction resource and an end timeout,
joined by ``sim.any_of``.  Production replaces the pair with a
contention callback, one pooled end call and one wake event, which reach
the holder in the same two hops at the same sequence positions.  So every
run below must agree with the reference exactly: the start and finish
time of every transfer, in the same order, the ``crossed_bytes`` samples
taken mid-span, the serialized bytes and the kernel's final event count.
"""

import numpy as np
import pytest

from repro.pcie import LinkParams, PcieLink
from repro.pcie.link import _InflightSpan
from repro.sim import Simulator
from repro.sim.core import Event
from repro.units import KiB, ns_for_bytes

PARAMS = LinkParams(gen=4, lanes=4, chunk_bytes=16 * KiB)
CHUNK = PARAMS.chunk_bytes
CHUNK_NS = ns_for_bytes(CHUNK, PARAMS.raw_gbps)


class AnyOfSpanLink(PcieLink):
    """Reference: the elastic span as an ``any_of`` over two events."""

    def _elastic_span(self, res, direction, remaining):
        sim = self.sim
        chunk = self.params.chunk_bytes
        gbps = self.params.raw_gbps
        chunk_ns = ns_for_bytes(chunk, gbps)
        nfull, tail = divmod(remaining, chunk)
        span_ns = nfull * chunk_ns + (ns_for_bytes(tail, gbps) if tail else 0)
        span = _InflightSpan(sim.now, chunk_ns, span_ns, remaining, chunk,
                             nfull, None)
        self._inflight[direction] = span
        watcher = Event(sim)
        fire = watcher.succeed
        res.watch_contention_fn(fire)
        done_ev = sim.timeout(span_ns)
        serialized = 0
        try:
            _ = yield sim.any_of([done_ev, watcher])
            if done_ev.triggered:
                serialized = remaining
            else:
                elapsed = sim.now - span.start_ns
                if elapsed > nfull * chunk_ns:
                    residual = span_ns - elapsed
                    serialized = remaining
                else:
                    chunks_done = max(1, -(-elapsed // chunk_ns))
                    residual = chunks_done * chunk_ns - elapsed
                    serialized = chunks_done * chunk
                if residual:
                    yield sim.timeout(residual)
        finally:
            res.unwatch_contention_fn(fire)
            self._settle(direction)
            if self._inflight[direction] is span:
                delta = serialized - span.credited_bytes
                if delta > 0:
                    self.wire_bytes[direction] += delta
                self._inflight[direction] = None
            res.release()
        return serialized


def _span_ns(wire):
    nfull, tail = divmod(wire, CHUNK)
    return nfull * CHUNK_NS + (ns_for_bytes(tail, PARAMS.raw_gbps)
                               if tail else 0)


def _run(link_cls, main_wire, competitors, samples):
    """One holder of *main_wire* raw wire bytes from t=0, *competitors*
    ``(arrival_ns, wire_bytes, first)`` on the same direction (*first*:
    created before the holder, so it runs ahead of it at equal times),
    and ``crossed_bytes`` samplers at *samples*."""
    sim = Simulator()
    link = link_cls(sim, PARAMS)
    log = []

    def transfer(name, at, wire):
        if at:
            yield sim.timeout(at)
        log.append(("start", name, sim.now))
        yield from link.serialize("up", 0, raw_wire_bytes=wire)
        log.append(("finish", name, sim.now))

    def sampler(at):
        yield sim.timeout(at)
        log.append(("crossed", at, link.crossed_bytes("up")))

    for i, (at, wire, first) in enumerate(competitors):
        if first:
            _ = sim.process(transfer(f"c{i}", at, wire))
    _ = sim.process(transfer("main", 0, main_wire))
    for i, (at, wire, first) in enumerate(competitors):
        if not first:
            _ = sim.process(transfer(f"c{i}", at, wire))
    for at in samples:
        _ = sim.process(sampler(at))
    sim.run()
    return {"log": log, "now": sim.now, "wire": dict(link.wire_bytes),
            "seq": sim._seq}


def _assert_same(main_wire, competitors, samples):
    got = _run(PcieLink, main_wire, competitors, samples)
    want = _run(AnyOfSpanLink, main_wire, competitors, samples)
    assert got == want
    assert got["wire"]["up"] == main_wire + sum(w for _, w, _ in competitors)
    return got


@pytest.mark.parametrize("nchunks", (2, 3, 5))
@pytest.mark.parametrize("tail", (0, 3000), ids=("whole", "tail"))
@pytest.mark.parametrize("first", (False, True), ids=("after", "before"))
@pytest.mark.parametrize("arrival", ("mid_chunk", "boundary", "last_instant",
                                     "none"))
def test_named_arrivals_match_reference(nchunks, tail, first, arrival):
    main = (nchunks - 1) * CHUNK + (tail or CHUNK)
    span = _span_ns(main)
    at = {"mid_chunk": CHUNK_NS + CHUNK_NS // 3, "boundary": CHUNK_NS,
          "last_instant": span, "none": None}[arrival]
    competitors = [] if at is None else [(at, 2048, first)]
    samples = sorted({CHUNK_NS // 2, CHUNK_NS, CHUNK_NS + 1, span - 1, span,
                      span + CHUNK_NS})
    got = _assert_same(main, competitors, samples)
    finish = [t for kind, name, t in got["log"]
              if kind == "finish" and name == "main"]
    if at is None or at > (nchunks - 1) * CHUNK_NS:
        assert finish == [span]       # the last chunk was already crossing
    else:
        assert finish[0] > span       # it yielded the wire mid-span


def test_two_competitors_in_one_span_match_reference():
    main = 5 * CHUNK - 700
    competitors = [(CHUNK_NS // 2, 40 * KiB, False),
                   (2 * CHUNK_NS, 1024, True)]
    samples = [k * CHUNK_NS // 2 for k in range(1, 24)]
    _assert_same(main, competitors, samples)


@pytest.mark.parametrize("seed", range(24))
def test_seeded_sweep_matches_reference(seed):
    rng = np.random.default_rng(seed)
    nchunks = int(rng.choice((2, 3, 5)))
    main = (nchunks - 1) * CHUNK + int(rng.integers(1, CHUNK + 1))
    span = _span_ns(main)
    competitors = []
    for _ in range(int(rng.integers(0, 3))):
        kind = int(rng.integers(0, 4))
        k = int(rng.integers(0, nchunks))
        at = (k * CHUNK_NS + int(rng.integers(1, CHUNK_NS)), k * CHUNK_NS,
              span, int(rng.integers(0, span + 1)))[kind]
        wire = int(rng.choice((512, 4096, 2 * CHUNK + 100, 3 * CHUNK)))
        competitors.append((at, wire, bool(rng.integers(0, 2))))
    samples = sorted(int(t) for t in rng.integers(1, 2 * span, size=6))
    _assert_same(main, competitors, samples)


class TestSpanKernelCost:
    """Exact kernel cost of one contended multi-chunk cell.

    Recorded with the ``any_of`` span; a span refactor that adds or drops
    a single event fails here even when every time stays the same.
    """

    def test_contended_cell(self):
        main = 5 * CHUNK - 700
        competitors = [(CHUNK_NS + CHUNK_NS // 3, 3 * CHUNK, False),
                       (_span_ns(main), 2048, True)]
        got = _assert_same(main, competitors, [])
        assert [(kind, name) for kind, name, _ in got["log"]] == [
            ("start", "main"), ("start", "c0"), ("start", "c1"),
            ("finish", "c1"), ("finish", "c0"), ("finish", "main")]
        assert got["seq"] == 27
