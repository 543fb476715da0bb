"""Store-and-forward Ethernet switch with hop-by-hop pause propagation.

Paper §4.7: the 802.3 pause "protocol also works with intermediary
switches, which will first pause locally before propagating the pause
request further."  Originally a fixed two-port box, the switch is now an
N-port device so :mod:`repro.fleet` can compose leaf/spine fabrics:

* every port is a full :class:`EthernetMac` — its RX FIFO is the switch
  ingress buffer for that port, so the MAC's PAUSE machinery *is* the
  local pause;
* frames are routed by ``frame.meta["dst"]`` through a static forwarding
  table (:meth:`EthernetSwitch.add_route`), with an optional default
  route for "everything else goes up" leaf wiring; the two-port case
  keeps its historical cross-forwarding without any table;
* each egress port owns a bounded frame queue.  When it fills, ingress
  engines block on the ``put``, the ingress MAC's FIFO fills, and that
  MAC's own PAUSE stops the upstream sender — the hop-by-hop propagation
  the paper relies on, now across any number of tiers.

Accounting is per port and conserves frames: every data frame that
entered an RX FIFO is either fully transmitted out of some egress port
(:attr:`forwarded_out`) or still inside the switch (:meth:`in_flight`) —
``frames_in == frames_out + in_flight`` at any simulation stop.  (The
pre-fleet switch kept a single shared counter bumped only after the
egress transmit returned, so fleet-level bytes-in/bytes-out audits could
never balance mid-flight.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import ConfigError, EthernetError, SimulationError
from ..sim.core import Event, Simulator
from ..sim.resources import Store
from ..units import KiB, ns_for_bytes
from .frame import EthernetFrame, check_coarsening
from .mac import EthernetMac

__all__ = ["EthernetSwitch"]


class _IngressSink:
    """Quiescent-ingress fast path for one switch port (DESIGN.md §11).

    The port MAC's ``receiver``: while the ingress engine is parked on an
    empty FIFO, a delivered frame skips the FIFO append / kick / ``recv``
    resume and is instead routed and queued by a single deferred call.
    The call is scheduled with delay 0 at the instant the kick would have
    been, so it runs in the *exact* scheduler slot where the per-frame
    pop-and-put would have happened — same-timestamp ordering against
    every other event (egress boundaries, other ports' puts) is preserved
    bit-for-bit.

    If the egress queue is full at fire time, the frame enters the
    queue's putter list right there (the same position the blocking
    ``put`` would have taken) and the pending event is handed to the
    ingress engine, which adopts the wait and restores the classic
    blocked-engine regime: FIFO fills, PAUSE propagates upstream.
    """

    __slots__ = ("switch", "port", "_sim", "_fire")

    def __init__(self, switch: "EthernetSwitch", port: int) -> None:
        self.switch = switch
        self.port = port
        self._sim = switch.sim
        #: pre-bound fire method — scheduled once per sinked frame, so
        #: the per-call bound-method allocation is paid here instead
        self._fire = self._fire_impl

    def sink(self, frame: EthernetFrame) -> bool:
        sw = self.switch
        i = self.port
        if not sw._parked[i]:
            return False
        # Arithmetic fast paths run right here, in the delivery slot,
        # with no fire event at all: an absorbed frame's only scheduled
        # footprint is (at most) one real-delivery call at a *future*
        # timestamp whose same-ns ordering is covered by the receiver's
        # tail-deferral discipline (DESIGN.md §11), so the fire slot's
        # seq position carries no information for it.  Declined frames
        # take the classic deferred fire below, unchanged.
        dst = frame.meta.get("dst")
        out = sw._routes.get(dst, sw._default_route)
        if out is None or out == i or not sw._fast_forward(frame, dst, out):
            self._sim.schedule_call(0, self._fire, frame)
        return True

    def _fire_impl(self, frame: EthernetFrame) -> None:
        sw = self.switch
        i = self.port
        out = sw._routes.get(frame.meta.get("dst"), sw._default_route)
        if out is None or out == i:
            try:
                # error paths + historical 2-port cross-forwarding
                out = sw._route_for(frame, i)
            except EthernetError as exc:
                # The per-frame path raises this inside the ingress engine
                # process, which the kernel surfaces as a SimulationError
                # with the config error as its cause — keep that contract.
                raise SimulationError(
                    f"ingress fast path on {sw.name!r} port {i} crashed: "
                    f"{exc!r}") from exc
        # (the sink call already tried the arithmetic fast paths; a frame
        # reaching the fire always takes the classic machinery)
        chain = sw._chains[out]
        if chain is not None and chain.parked:
            chain.submit(frame)
            return
        queue = sw._egress[out]
        if queue.try_put(frame):
            return
        # Full egress: commit the frame to the putter queue *now* (exact
        # per-frame putter order), then wake the parked engine to adopt
        # the blocked wait.  _parked goes False so later frames take the
        # FIFO path behind this one until the engine catches up.
        sw._holding[i] += 1
        sw._parked[i] = False
        sw._sink_blocked[i] = queue.put(frame)
        rx = sw.ports[i]
        kick, rx._rx_kick = rx._rx_kick, Event(rx.sim)
        kick.succeed()


class _GwFunnel:
    """Arithmetic egress service for a gateway-facing port.

    DESIGN.md §11: the gateway funnel removes the last per-frame kernel
    events on the response path.  While the port is quiescent (TX not
    PAUSEd, peer FIFO empty, no XOFF outstanding, virtual queue below the
    egress capacity), arriving frames are *absorbed* into an arithmetic
    service schedule instead of being queued and serialized by events:
    ``start = max(prev_end, arrival)``, ``end = start + ser``,
    ``delivery = end + prop`` — exactly the timeline the per-frame
    machinery produces for an uncontended FIFO port.

    Mid-stream response frames cost **zero** events: the receiver's
    ``absorb`` accounts them commutatively at the absorb instant,
    and all counters (tx_frames, forwarded_out, peer rx_frames) move
    eagerly — legal because nothing reads them between the absorb and
    the computed delivery instant.  Stream-completing frames and control-
    plane frames (acks) get one real deferred call at their exact
    computed delivery time, so order-sensitive completion work
    (placement release, latency record) runs in the same scheduler-slot
    pattern as the per-frame path.

    Frames may be placed with *future* arrival times (the uplink relay
    forwards a frame the moment it enters the leaf, spine arrival
    precomputed).  An insertion that lands in front of already-placed
    frames pushes their service later — never earlier — so shifted real
    deliveries are rescheduled and the stale calls self-identify by
    timestamp and fire as no-ops.

    Any disqualifier kills the funnel.  With no outstanding virtual
    state, that is an exact hand-back to the classic chain; otherwise
    the port *fuses*: scheduled deliveries keep their computed times,
    the chain reclaims the port once the virtual schedule drains, and
    ``switch.funnel_fuses`` counts the event.  Exactness past a fuse is
    not proven by construction; ``tests/net/test_train_equivalence.py``
    compares fusing GET+PUT runs against the per-frame path.
    """

    __slots__ = ("switch", "port", "tx", "peer", "receiver", "prop", "cap",
                 "_sim", "_ser", "pend", "floor_end", "dead", "_n")

    # pend record layout: [key, frame, arrival_ns, ser_ns, end_ns, mode]
    # mode: 0 = eagerly absorbed, 1 = real delivery pending, 2 = delivered

    def __init__(self, switch: "EthernetSwitch", port: int) -> None:
        self.switch = switch
        self.port = port
        self.tx = switch.ports[port]
        self.peer = self.tx.peer
        self.receiver = self.peer.receiver
        self.prop = self.tx.propagation_ns
        self.cap = switch._egress[port].capacity
        self._sim = switch.sim
        self._ser: Dict[int, int] = {}
        self.pend: List[list] = []
        #: service end of the last record already pruned (the port is
        #: busy until here even when ``pend`` is empty)
        self.floor_end = 0
        self.dead = False
        #: placement counter — final tie-break of the insertion key
        self._n = 0

    def absorb_now(self, frame: EthernetFrame) -> bool:
        """Absorb a frame that physically arrived at this switch now."""
        now = self._sim.now
        return not self.refuses(frame) and self.place(frame, now, now)

    def refuses(self, frame: EthernetFrame) -> bool:
        """True when *frame* may not enter the schedule (the funnel dies).

        The port must be quiescent and the receiver must accept
        arithmetic service for this frame class.
        """
        if self.dead:
            return True
        peer = self.peer
        if (self.tx._tx_paused or peer._rx_frames or peer._xoff_sent
                or (peer.flow_control
                    and peer._rx_bytes + frame.payload_bytes >= peer._high)
                or self.receiver.refuses(frame)):
            self._decline_or_fuse()
            return True
        return False

    def place(self, frame: EthernetFrame, arrival: int,
              start_hint: int) -> bool:
        """Schedule *frame* arriving (possibly in the future) at *arrival*.

        The insertion key ``(arrival, start_hint, order)`` reproduces the
        per-frame put order: distinct arrivals queue in arrival order;
        same-instant arrivals order by the upstream serialization start
        that scheduled their delivery (lower event seq first), then by
        placement order.  Returns False when the caller must fall back
        to the classic path (the funnel is then dead).
        """
        sim = self._sim
        now = sim.now
        self._prune(now)
        pend = self.pend
        # Capacity fuse: frames resident in the virtual egress queue at
        # the arrival instant (arrived, service not yet started).  The
        # per-frame path would block the put here, stalling upstream —
        # a regime the arithmetic schedule cannot represent.  The common
        # drained case (newest pending start already past) short-circuits.
        if pend and arrival < pend[-1][4] - pend[-1][3]:
            if not self._has_room(arrival):
                return self._decline_or_fuse()
        pb = frame.payload_bytes
        ser = self._ser.get(pb)
        if ser is None:
            ser = ns_for_bytes(frame.wire_bytes, self.tx.rate_gbps)
            self._ser[pb] = ser
        self._n += 1
        key = (arrival, start_hint, self._n)
        idx = len(pend)
        while idx > 0 and pend[idx - 1][0] > key:
            idx -= 1
        prev_end = pend[idx - 1][4] if idx else self.floor_end
        start = prev_end if prev_end > arrival else arrival
        end = start + ser
        if self.receiver.absorb(frame):
            rec = [key, frame, arrival, ser, end, 0]
            self.peer.rx_frames += 1
        else:
            rec = [key, frame, arrival, ser, end, 1]
            sim.schedule_call(end + self.prop - now, self._deliver, rec)
        if idx == len(pend):
            pend.append(rec)
        else:
            pend.insert(idx, rec)
            self._shift_after(idx, end, now)
        self.tx.tx_frames += 1
        self.switch.forwarded_out[self.port] += 1
        return True

    def _prune(self, now: int) -> None:
        """Drop records whose service ended by *now* into ``floor_end``."""
        pend = self.pend
        while pend and pend[0][4] <= now:
            end = pend.pop(0)[4]
            if end > self.floor_end:
                self.floor_end = end

    def _has_room(self, arrival: int) -> bool:
        """Virtual-queue residency at the *arrival* instant vs capacity.

        Arrivals and service starts are both monotone along ``pend``
        (and start >= arrival), so residency is the index gap between
        two binary searches.
        """
        pend = self.pend
        lo, hi = 0, len(pend)
        while lo < hi:          # p: first index with arrival > A
            mid = (lo + hi) // 2
            if pend[mid][2] <= arrival:
                lo = mid + 1
            else:
                hi = mid
        p = lo
        lo = 0
        while lo < p:           # q: first index with start > A (q <= p)
            mid = (lo + p) // 2
            r = pend[mid]
            if r[4] - r[3] <= arrival:
                lo = mid + 1
            else:
                p = mid
        # loops end with lo == q; residency = p - q, with p preserved
        # in ``hi`` by the first search
        return hi - lo < self.cap

    def _shift_after(self, idx: int, prev_end: int, now: int) -> None:
        """Push successors of an out-of-order insertion at *idx* later.

        Service ends are monotone along the list and an insertion can
        only delay them, so the walk stops at the first record whose
        (arrival-limited) start absorbs the shift.  Shifted real
        deliveries are rescheduled; their earlier calls self-identify
        as stale by timestamp and no-op.
        """
        pend = self.pend
        sim = self._sim
        for j in range(idx + 1, len(pend)):
            r = pend[j]
            s = prev_end if prev_end > r[2] else r[2]
            ne = s + r[3]
            if ne <= r[4]:
                break
            r[4] = ne
            if r[5] == 1:
                sim.schedule_call(ne + self.prop - now, self._deliver, r)
            prev_end = ne

    def _deliver(self, rec: list) -> None:
        """Real delivery at the computed instant (stale calls no-op).

        A shifted record only ever moves *later*, so of all calls
        scheduled for it exactly one matches its final end time.
        """
        if rec[5] != 1 or rec[4] + self.prop != self._sim.now:
            return
        rec[5] = 2
        self.peer._on_frame(rec[1])

    def _decline_or_fuse(self) -> bool:
        sw = self.switch
        sw._funnel_dead[self.port] = True
        sw._funnels[self.port] = None
        self.dead = True
        now = self._sim.now
        self._prune(now)
        pend = self.pend
        if not pend and self.floor_end <= now:
            # No outstanding virtual state: exact hand-back — the chain
            # is still parked and owns the port from this instant.
            return False
        sw.funnel_fuses += 1
        # Best effort: committed deliveries keep their computed times;
        # the chain reclaims the port when the virtual schedule drains.
        chain = sw._chains[self.port]
        chain.parked = False
        busy_until = pend[-1][4] if pend else self.floor_end
        self._sim.schedule_call(busy_until - now, chain.take_next)
        return False


class _UplinkRelay:
    """Leaf-to-spine arithmetic forwarding into a downstream funnel.

    DESIGN.md §11: when every gateway-bound frame entering a leaf exits
    through one fat uplink into a switch whose destination port runs a
    :class:`_GwFunnel`, the whole leaf hop can be computed instead of
    simulated.  The ingress fire absorbs the frame, advances an
    arithmetic uplink schedule (``start = max(cur_end, now)``,
    ``end = start + ser``), and places the frame in the downstream funnel
    with its future spine arrival ``end + prop`` — eliminating the leaf
    boundary, the leaf-to-spine delivery and the spine ingress fire.
    Uplink service is strictly FIFO in fire order, so a scalar
    ``cur_end`` reproduces the egress-queue timeline exactly; the
    ``start`` passed downstream reproduces the delivery-event seq order
    for same-instant spine arrivals from different leaves.

    Eligibility is re-checked per frame (uplink not PAUSEd, spine ingress
    parked with an empty FIFO, virtual queue under the egress capacity,
    downstream funnel alive); any failure kills the relay — exactly when
    idle, fused (counted) when virtual state is outstanding.
    """

    __slots__ = ("switch", "port", "tx", "peer", "psw", "pport", "prop",
                 "cap", "_sim", "_ser", "cur_end", "starts", "dead",
                 "_downstream", "_parked", "_fwd")

    def __init__(self, switch: "EthernetSwitch", port: int,
                 ingress: _IngressSink) -> None:
        self.switch = switch
        self.port = port
        self.tx = switch.ports[port]
        self.peer = self.tx.peer          # spine-side ingress MAC
        self.psw = ingress.switch
        self.pport = ingress.port
        self.prop = self.tx.propagation_ns
        self.cap = switch._egress[port].capacity
        self._sim = switch.sim
        self._ser: Dict[int, int] = {}
        self.cur_end = 0
        #: start times of absorbed frames still waiting for virtual
        #: service (the uplink queue residency, for the capacity fuse)
        self.starts: List[int] = []
        self.dead = False
        #: dst -> downstream funnel; routes are static, and a funnel that
        #: died refuses every later frame
        self._downstream: Dict[object, _GwFunnel] = {}
        # init-once lists, cached off the hot path
        self._parked = self.psw._parked
        self._fwd = switch.forwarded_out

    def relay(self, frame: EthernetFrame, dst: object) -> bool:
        """Absorb *frame* at its ingress-fire slot; False = classic path."""
        if self.dead:
            return False
        tx = self.tx
        peer = self.peer
        pb = frame.payload_bytes
        if (tx._tx_paused or peer._rx_frames or peer._xoff_sent
                or not self._parked[self.pport]
                or (peer.flow_control
                    and peer._rx_bytes + pb >= peer._high)):
            return self._decline_or_fuse()
        fun = self._downstream.get(dst)
        if fun is None:
            fun = self._downstream_for(dst)
        # the funnel's refusal comes before the uplink's own capacity
        # check, so a refusing funnel and this relay die together
        if fun is None or fun.refuses(frame):
            return self._decline_or_fuse()
        now = self._sim.now
        starts = self.starts
        while starts and starts[0] <= now:
            starts.pop(0)
        if len(starts) >= self.cap:
            return self._decline_or_fuse()
        ser = self._ser.get(pb)
        if ser is None:
            ser = ns_for_bytes(frame.wire_bytes, tx.rate_gbps)
            self._ser[pb] = ser
        cur = self.cur_end
        start = cur if cur > now else now
        end = start + ser
        if not fun.place(frame, end + self.prop, start):
            return self._decline_or_fuse()
        self.cur_end = end
        if start > now:
            starts.append(start)
        tx.tx_frames += 1
        self._fwd[self.port] += 1
        # the spine ingress MAC saw the frame (virtually): conservation
        # at the downstream switch stays frames_in == frames_out
        peer.rx_frames += 1
        return True

    def _downstream_for(self, dst: object) -> Optional[_GwFunnel]:
        """Resolve + memoize the downstream funnel for *dst* (or None)."""
        psw = self.psw
        out = psw._routes.get(dst, psw._default_route)
        if out is None or out == self.pport:
            return None
        fun = psw._funnels[out]
        if fun is None and not psw._funnel_dead[out]:
            fun = psw._funnel_for(out)
        if fun is not None:
            self._downstream[dst] = fun
        return fun

    def _decline_or_fuse(self) -> bool:
        sw = self.switch
        sw._relay_dead[self.port] = True
        sw._relays[self.port] = None
        self.dead = True
        now = self._sim.now
        if self.cur_end <= now:
            return False
        sw.funnel_fuses += 1
        chain = sw._chains[self.port]
        chain.parked = False
        self._sim.schedule_call(self.cur_end - now, chain.take_next)
        return False


class _EgressChain:
    """One egress port run as a tick chain while quiescent (DESIGN.md §11).

    Replaces the per-frame machinery — ``Store.get`` event, TX-slot
    grant, serialization timeout, propagation process — with two
    deferred calls per frame (boundary + delivery), while reproducing
    the per-frame timeline exactly: frames are popped from the egress
    queue at the same boundary timestamps the generator loop would pop
    them, counters move at the same instants, and deliveries land at
    serialization-end + propagation.  The chain re-checks the
    disqualifiers at every frame boundary (frame sizes may vary, so each
    boundary re-arms with that frame's own serialization time) and hands
    the port back to the generator loop the moment a PAUSE lands.

    The chain is permanent: it *parks* when the queue drains (rather
    than tearing down and re-waking the generator loop per idle gap) and
    a later arrival re-arms it through :meth:`submit`, whose deferred
    call runs in the exact scheduler slot the ``Store`` getter hand-off
    would have taken.
    """

    __slots__ = ("switch", "port", "queue", "tx", "idle", "frame", "parked",
                 "_sim", "_in_transit", "_forwarded", "_prop", "_deliver",
                 "_ser", "_tick")

    def __init__(self, switch: "EthernetSwitch", port: int) -> None:
        self.switch = switch
        self.port = port
        self.queue = switch._egress[port]
        self.tx = switch.ports[port]
        #: single-use event the generator loop waits on; the chain
        #: triggers it with a frame it cannot transmit (PAUSE/fault),
        #: handing the port to the per-frame path
        self.idle = None
        self.frame = None
        self.parked = True
        # Hot-path caches: the shared counter lists, the link constants,
        # a payload_bytes -> serialization-ns memo (the port rate is
        # fixed, so the key collapses to the frame size), and the
        # pre-bound boundary callback.  The peer delivery method is
        # resolved lazily — ports are wired after construction.
        self._sim = switch.sim
        self._in_transit = switch._in_transit
        self._forwarded = switch.forwarded_out
        self._prop = self.tx.propagation_ns
        self._deliver = None
        self._ser: Dict[int, int] = {}
        self._tick = self._boundary

    def submit(self, frame: EthernetFrame) -> None:
        """Adopt *frame* while parked (port idle, queue empty).

        Runs in the caller's scheduler slot — already the deferred slot
        the per-frame hand-off chain would land in (the ingress sink's
        ``_fire`` or the ingress engine's pop slot) — so serialization
        starts at the identical instant.
        """
        self.parked = False
        self._in_transit[self.port] += 1
        tx = self.tx
        if tx._tx_paused or tx.peer is None or tx._fault_data_site is not None:
            # Not eligible: the generator loop reproduces the per-frame
            # path — pause spin, fault flip, not-connected error.
            self.idle.succeed(frame)
            return
        self.begin_now(frame)

    def begin_now(self, frame: EthernetFrame) -> None:
        """Start serializing *frame* at the current instant (eligible)."""
        self.frame = frame
        pb = frame.payload_bytes
        ser = self._ser.get(pb)
        if ser is None:
            ser = ns_for_bytes(frame.wire_bytes, self.tx.rate_gbps)
            self._ser[pb] = ser
        self._sim.schedule_call(ser, self._tick)

    def _boundary(self, _arg: object = None) -> None:
        """Serialization of the current frame just finished."""
        i = self.port
        tx = self.tx
        tx.tx_frames += 1
        deliver = self._deliver
        if deliver is None:
            deliver = self._deliver = tx.peer._on_frame
        self._sim.schedule_call(self._prop, deliver, self.frame)
        self._in_transit[i] -= 1
        self._forwarded[i] += 1
        self.take_next()

    def take_next(self, _arg: object = None) -> None:
        """Move on to the next queued frame, or park on an empty queue.

        Runs at a frame boundary, and when a fused fast path hands the
        port back once its virtual schedule has drained.
        """
        ok, nxt = self.queue.try_get()
        if not ok:
            self.frame = None
            self.parked = True
            return
        self._in_transit[self.port] += 1
        if self.tx._tx_paused:
            # Hand the popped frame to the loop: per-frame send()
            # reproduces the pause spin (and tx_pause_ns) exactly.
            self.frame = None
            self.idle.succeed(nxt)
            return
        self.begin_now(nxt)


class EthernetSwitch:
    """N-port store-and-forward switch with per-port egress queues."""

    def __init__(self, sim: Simulator, name: str = "sw", n_ports: int = 2,
                 rate_gbps: float = 12.5, buffer_bytes: int = 256 * KiB,
                 flow_control: bool = True, egress_frames: int = 32,
                 port_rates: Optional[Sequence[float]] = None,
                 coarsening: str = "train"):
        if n_ports < 2:
            raise ConfigError(f"a switch needs >= 2 ports, got {n_ports}")
        if egress_frames < 1:
            raise ConfigError("egress_frames must be >= 1")
        check_coarsening(coarsening)
        if port_rates is not None and len(port_rates) != n_ports:
            raise ConfigError(
                f"port_rates has {len(port_rates)} entries for "
                f"{n_ports} ports")
        self.sim = sim
        self.name = name
        self.n_ports = n_ports
        #: per-port MACs; ``ports[i]``'s RX FIFO is ingress buffer *i*.
        #: ``port_rates`` lets a leaf uplink run fatter than node links.
        self.ports: List[EthernetMac] = [
            EthernetMac(sim, name=f"{name}.p{i}",
                        rate_gbps=(port_rates[i] if port_rates is not None
                                   else rate_gbps),
                        rx_fifo_bytes=buffer_bytes,
                        flow_control=flow_control,
                        coarsening=coarsening)
            for i in range(n_ports)]
        self._egress: List[Store] = [
            Store(sim, capacity=egress_frames, name=f"{name}.q{i}")
            for i in range(n_ports)]
        #: frames fully transmitted out of each port (completed egress)
        self.forwarded_out: List[int] = [0] * n_ports
        #: frames popped from an ingress FIFO but not yet queued (the
        #: forwarding engine holds them while blocked on a full egress)
        self._holding: List[int] = [0] * n_ports
        #: frames dequeued for egress but still serializing on the wire
        self._in_transit: List[int] = [0] * n_ports
        self._routes: Dict[object, int] = {}
        self._default_route: Optional[int] = None
        self._started = False
        #: "train" runs egress ports as tick chains while quiescent
        #: (DESIGN.md §11); "per_frame" keeps the classic generator loop.
        self.coarsening = coarsening
        #: per-port: ingress engine parked on an empty FIFO (sink-eligible)
        self._parked: List[bool] = [False] * n_ports
        #: per-port: pending blocked put handed over by the ingress sink
        self._sink_blocked: List[Optional[Event]] = [None] * n_ports
        #: per-port permanent egress chain (train mode only); ``None``
        #: entries mean the classic generator loop owns the port
        self._chains: List[Optional[_EgressChain]] = [None] * n_ports
        #: per-port arithmetic fast paths (DESIGN.md §11), resolved
        #: lazily at the first routed frame: a gateway funnel where the
        #: egress peer is sync-capable, an uplink relay where the egress
        #: peer is another train-mode switch feeding a funnel.  ``None``
        #: plus a dead flag means the classic machinery owns the port.
        self._funnels: List[Optional[_GwFunnel]] = [None] * n_ports
        self._relays: List[Optional[_UplinkRelay]] = [None] * n_ports
        train = coarsening == "train"
        self._funnel_dead: List[bool] = [not train] * n_ports
        self._relay_dead: List[bool] = [not train] * n_ports
        #: funnel/relay teardowns that left outstanding virtual state
        self.funnel_fuses = 0
        if train:
            for i, port in enumerate(self.ports):
                port.receiver = _IngressSink(self, i)
                self._chains[i] = _EgressChain(self, i)

    # ----------------------------------------------------------- back-compat
    @property
    def port_a(self) -> EthernetMac:
        """First port (historical two-port API)."""
        return self.ports[0]

    @property
    def port_b(self) -> EthernetMac:
        """Second port (historical two-port API)."""
        return self.ports[1]

    @property
    def forwarded_frames(self) -> int:
        """Total frames fully forwarded, summed over all egress ports."""
        return sum(self.forwarded_out)

    # -------------------------------------------------------------- routing
    def add_route(self, dst: object, port: int) -> None:
        """Route frames whose ``meta['dst']`` equals *dst* out of *port*."""
        if not 0 <= port < self.n_ports:
            raise ConfigError(f"{self.name}: no port {port}")
        self._routes[dst] = port

    def set_default_route(self, port: int) -> None:
        """Egress for frames matching no table entry (e.g. a leaf uplink)."""
        if not 0 <= port < self.n_ports:
            raise ConfigError(f"{self.name}: no port {port}")
        self._default_route = port

    def _route_for(self, frame: EthernetFrame, ingress: int) -> int:
        port = self._routes.get(frame.meta.get("dst"), self._default_route)
        if port is None:
            if self.n_ports == 2:
                return 1 - ingress  # historical cross-forwarding
            raise EthernetError(
                f"{self.name}: no route for dst={frame.meta.get('dst')!r} "
                f"(ingress port {ingress}) and no default route")
        if port == ingress:
            raise EthernetError(
                f"{self.name}: route for dst={frame.meta.get('dst')!r} "
                f"sends port {ingress} traffic back out its ingress")
        return port

    # ------------------------------------------------- arithmetic fast paths
    def _funnel_for(self, out: int) -> Optional[_GwFunnel]:
        """Build (or permanently reject) the funnel for egress *out*."""
        chain = self._chains[out]
        tx = self.ports[out]
        # only a receiver that answers refuses/absorb takes arithmetic
        # upstream service (DESIGN.md §11.3)
        receiver = getattr(tx.peer, "receiver", None)
        if (chain is None or not chain.parked or len(self._egress[out])
                or tx._fault_data_site is not None or tx._tx_paused
                or not hasattr(receiver, "refuses")):
            self._funnel_dead[out] = True
            return None
        fun = _GwFunnel(self, out)
        self._funnels[out] = fun
        return fun

    def _relay_for(self, out: int) -> Optional[_UplinkRelay]:
        """Build (or permanently reject) the uplink relay for egress *out*."""
        chain = self._chains[out]
        tx = self.ports[out]
        # the peer is a train-mode switch port exactly when its receiver
        # is that switch's ingress sink
        ingress = getattr(tx.peer, "receiver", None)
        if (chain is None or not chain.parked or len(self._egress[out])
                or tx._fault_data_site is not None or tx._tx_paused
                or not isinstance(ingress, _IngressSink)):
            self._relay_dead[out] = True
            return None
        relay = _UplinkRelay(self, out, ingress)
        self._relays[out] = relay
        return relay

    def _fast_forward(self, frame: EthernetFrame, dst: object,
                      out: int) -> bool:
        """Hand *frame* to egress *out*'s relay or funnel; False = classic.

        While an arithmetic fast path owns the egress, every frame must
        flow through it — the classic chain's view of the port would
        otherwise overlap the virtual schedule.
        """
        relay = self._relays[out]
        if relay is None and not self._relay_dead[out]:
            relay = self._relay_for(out)
        if relay is not None and relay.relay(frame, dst):
            return True
        fun = self._funnels[out]
        if fun is None and not self._funnel_dead[out]:
            fun = self._funnel_for(out)
        return fun is not None and fun.absorb_now(frame)

    # ------------------------------------------------------------ forwarding
    def start(self) -> None:
        """Launch per-port ingress and egress engines (idempotent)."""
        if self._started:
            return
        self._started = True
        for i in range(self.n_ports):
            _ = self.sim.process(self._ingress(i), name=f"{self.name}.in{i}")
            _ = self.sim.process(self._egress_loop(i),
                                 name=f"{self.name}.out{i}")

    def _ingress(self, i: int):
        rx = self.ports[i]
        parked = self._parked
        blocked = self._sink_blocked
        while True:
            pending = blocked[i]
            if pending is not None:
                # The sink hit a full egress queue and committed the
                # frame to its putter list; adopt the wait so FIFO
                # frames stay strictly behind it.
                yield pending
                blocked[i] = None
                self._holding[i] -= 1
                continue
            if not rx._rx_frames:
                parked[i] = True
                yield rx._rx_kick
                parked[i] = False
                continue
            frame = rx._recv_pop()
            out = self._route_for(frame, i)
            if self._fast_forward(frame, frame.meta.get("dst"), out):
                continue
            # A full egress queue blocks here; rx's FIFO then fills and
            # rx's own PAUSE stops the upstream sender (local pause
            # first, then hop-by-hop propagation).
            self._holding[i] += 1
            chain = self._chains[out]
            if chain is not None and chain.parked:
                # Port idle, queue empty: hand the frame straight to the
                # parked chain.  submit's deferred call runs in the slot
                # the Store getter hand-off would have taken, and the
                # timeout(0) resumes this engine at the slot the put
                # acknowledgement would have — the same two-slot pattern
                # as the per-frame path, so same-ns ordering against
                # other ports' puts and boundaries is preserved.
                chain.submit(frame)
                yield self.sim.timeout(0)
            else:
                yield self._egress[out].put(frame)
            self._holding[i] -= 1

    def _egress_loop(self, i: int):
        queue, tx = self._egress[i], self.ports[i]
        chain = self._chains[i]
        if chain is None:
            # per_frame: the classic reference machinery, event for event.
            while True:
                frame = yield queue.get()
                self._in_transit[i] += 1
                # tx.send blocks while this egress is paused by its peer.
                yield from tx.send(frame)
                self._in_transit[i] -= 1
                self.forwarded_out[i] += 1
        # train: the permanent chain owns the port; this loop is only the
        # fallback the chain hands frames to when a disqualifier (PAUSE,
        # fault plan, unconnected peer) forces the per-frame path.  The
        # egress loop is the port's only sender, so the TX slot is
        # uncontended by construction.
        while True:
            idle = self.sim.event()
            chain.idle = idle
            frame = yield idle
            while True:
                if (not tx._tx_paused and tx.peer is not None
                        and tx._fault_data_site is None):
                    # Re-eligible: the chain takes over at this instant,
                    # exactly where per-frame send() would have started
                    # serializing.
                    chain.begin_now(frame)
                    break
                yield from tx.send(frame)
                self._in_transit[i] -= 1
                self.forwarded_out[i] += 1
                ok, frame = queue.try_get()
                if not ok:
                    chain.parked = True
                    break
                self._in_transit[i] += 1

    # ------------------------------------------------------------ accounting
    def in_flight(self) -> int:
        """Data frames currently inside the switch (FIFOs, engines, queues)."""
        return (sum(p.rx_pending for p in self.ports)
                + sum(self._holding)
                + sum(len(q) for q in self._egress)
                + sum(self._in_transit))

    def accounting(self) -> Dict[str, int]:
        """Frame-conservation snapshot: ``in == out + in_flight`` always."""
        frames_in = sum(p.rx_frames for p in self.ports)
        return {
            "frames_in": frames_in,
            "frames_out": self.forwarded_frames,
            "in_flight": self.in_flight(),
            "dropped": sum(p.dropped_frames for p in self.ports),
        }
