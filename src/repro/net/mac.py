"""100G Ethernet MAC with 802.3x flow control (paper §4.7).

The paper's design choices, reproduced:

* flow control is plain 802.3 PAUSE, not TCP — "an overrun receiver
  [sends] a pause packet to the sender";
* "Once the transmission of an Ethernet frame starts, it cannot be
  paused.  Hence, we fully buffer the frames on the sender side to prevent
  incomplete transmission, though this increases latency" — the TX path is
  store-and-forward and checks the pause state only between frames;
* with flow control *disabled*, an overrun receiver **drops** frames (the
  failure mode the ablation demonstrates); with it enabled, an overrun
  later than one pause reaction time after the XOFF raises
  :class:`~repro.errors.FrameDropError`.

Two MACs are joined with :meth:`EthernetMac.connect`; control frames travel
the reverse direction of the data they regulate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import ConfigError, EthernetError, FrameDropError
from ..sim.core import Event, Simulator
from ..sim.resources import Resource
from ..units import KiB, ns_for_bytes
from .frame import (FRAME_OVERHEAD_BYTES, MAX_PAYLOAD_BYTES, PAUSE_ETHERTYPE,
                    EthernetFrame, check_coarsening, pause_frame)

__all__ = ["EthernetMac"]


class EthernetMac:
    """One MAC/port: TX serializer + RX FIFO with PAUSE generation."""

    def __init__(self, sim: Simulator, name: str = "eth",
                 rate_gbps: float = 12.5, propagation_ns: int = 500,
                 rx_fifo_bytes: int = 256 * KiB,
                 flow_control: bool = True,
                 pause_high_watermark: float = 0.75,
                 pause_low_watermark: float = 0.25,
                 coarsening: str = "train"):
        if rate_gbps <= 0:
            raise ConfigError("rate must be > 0")
        if not 0 < pause_low_watermark < pause_high_watermark < 1:
            raise ConfigError("need 0 < low < high < 1 watermarks")
        check_coarsening(coarsening)
        self.sim = sim
        self.name = name
        self.rate_gbps = rate_gbps
        self.propagation_ns = propagation_ns
        self.rx_fifo_bytes = rx_fifo_bytes
        self.flow_control = flow_control
        self._high = int(rx_fifo_bytes * pause_high_watermark)
        self._low = int(rx_fifo_bytes * pause_low_watermark)
        self.peer: Optional["EthernetMac"] = None
        #: "train" enables the coarsened TX paths (deferred-call
        #: propagation, frame trains); "per_frame" keeps the classic
        #: reference machinery event for event (DESIGN.md §11)
        self._fast_send = coarsening == "train"
        # TX state
        self._tx = Resource(sim, 1, name=f"{name}.tx")
        self._tx_paused = False
        self._pause_kick = Event(sim)
        #: when the current XOFF's quanta run out (802.3x: a pause is for
        #: quanta x 512 bit-times, then TX resumes even without an XON)
        self._pause_until = 0
        self._pause_timer_active = False
        #: in-flight frame-train's abort event (XOFF/contention splits it)
        self._train_abort = None
        # RX state
        self._rx_frames = []
        self._rx_bytes = 0
        self._rx_kick = Event(sim)
        self._xoff_sent = False
        #: when the outstanding XOFF was first sent (refreshes keep it)
        self._xoff_at = 0
        #: bumped by every XOFF; a refresh carries the generation it was
        #: armed for and dies once a newer XOFF owns the refresh chain
        self._xoff_gen = 0
        #: an outstanding XOFF is re-sent every half pause, so a consumer
        #: stalled for longer than one pause never sees its sender resume
        #: into a full FIFO (802.3x receivers refresh before expiry)
        self._xoff_refresh_ns = self.pause_quanta_ns(0xFFFF) // 2
        #: the consumer's receive interface (DESIGN.md §11.3), or None.
        #: ``receiver.sink(frame) -> bool`` takes delivery of a data frame
        #: without the FIFO-append/kick/``recv`` machinery, offered only
        #: while that is provably invisible: the FIFO is empty, no XOFF is
        #: outstanding, and the frame could not have tripped the high
        #: watermark in transit.  Declining (False) sends the frame down
        #: the FIFO path; a sink keeps per-frame processing order itself.
        #: A receiver that accepts arithmetic upstream service (the switch
        #: gateway funnel) also answers ``refuses(frame)`` and
        #: ``absorb(frame)``.
        self.receiver = None
        # counters
        self.tx_frames = 0
        self.rx_frames = 0
        self.dropped_frames = 0
        self.pause_frames_sent = 0
        self.tx_pause_ns = 0
        # fault injection (repro.faults); None = frames always delivered
        self._fault_cfg = None
        self._fault_stats = None
        self._fault_data_site = None
        self._fault_ctrl_site = None

    def attach_faults(self, plan, stats) -> None:
        """Inject seeded data/control frame drops on this MAC's TX hop.

        A no-op unless an Ethernet rate is non-zero.  Control-frame drops
        are what exercise the lost-XON recovery (pause-quanta expiry).
        """
        cfg = plan.config
        if cfg.eth_data_drop_rate <= 0 and cfg.eth_ctrl_drop_rate <= 0:
            return
        self._fault_cfg = cfg
        self._fault_stats = stats
        self._fault_data_site = plan.site(f"{self.name}.eth.data")
        self._fault_ctrl_site = plan.site(f"{self.name}.eth.ctrl")

    def connect(self, other: "EthernetMac") -> None:
        """Join two MACs with a full-duplex link."""
        if self.peer is not None or other.peer is not None:
            raise EthernetError("MAC already connected")
        self.peer = other
        other.peer = self

    # ------------------------------------------------------------------- TX
    def send(self, frame: EthernetFrame):
        """Generator: transmit one frame (store-and-forward, pause-aware)."""
        if self.peer is None:
            raise EthernetError(f"{self.name}: not connected")
        if not self._fast_send:
            yield self._tx.acquire()
            yield from self._send_locked(frame)
            return
        if not self._tx.try_acquire():
            yield self._tx.acquire()
        if self._tx_paused or self._fault_data_site is not None:
            yield from self._send_locked(frame)
            return
        # Unpaused, no fault plan: identical timeline to _send_locked,
        # with the propagation *process* replaced by one deferred call at
        # serialization-end + propagation, at a fraction of the kernel
        # cost.
        try:
            yield self.sim.timeout(
                ns_for_bytes(frame.wire_bytes, self.rate_gbps))
        finally:
            self._tx.release()
        self.tx_frames += 1
        self.sim.schedule_call(self.propagation_ns, self.peer._on_frame, frame)

    def _send_locked(self, frame: EthernetFrame):
        """Generator: the body of :meth:`send` once the TX slot is held."""
        try:
            # A started frame cannot be paused; the check happens between
            # frames only (hence sender-side full buffering).
            while self._tx_paused:
                t0 = self.sim.now
                yield self._pause_kick
                self.tx_pause_ns += self.sim.now - t0
            yield self.sim.timeout(
                ns_for_bytes(frame.wire_bytes, self.rate_gbps))
        finally:
            self._tx.release()
        self.tx_frames += 1
        _ = self.sim.process(self._propagate(frame), name=f"{self.name}.prop")

    def send_train(self, frames: Sequence[EthernetFrame]):
        """Generator: transmit *frames* back-to-back (fast path when quiescent).

        Timing- and stat-exact versus ``for f in frames: yield from
        self.send(f)`` — the equivalence contract in DESIGN.md §11.  The
        fast path engages only while the TX path is quiescent: TX slot
        free and uncontended, not PAUSEd, no fault sites attached, and
        enough receiver-FIFO headroom that no watermark or overrun can
        trip mid-train even if the receiver consumes nothing.  While it
        holds, the equal-size run of frames is serialized with O(1) live
        kernel state (one :class:`~repro.sim.core.TrainSchedule` delivery
        chain); every per-frame delivery still lands at its exact
        per-frame timestamp.  Any disqualifier — an XOFF arriving, a
        competing sender queueing on the TX slot, the headroom cap, a
        frame-size change — splits the train at the next frame boundary
        and the remainder is re-evaluated (falling back to the per-frame
        path whenever the fast path stays ineligible).
        """
        if self.peer is None:
            raise EthernetError(f"{self.name}: not connected")
        n = len(frames)
        start = 0
        while start < n:
            k = self._train_len(frames, start)
            tail = None
            if k >= 1 and start + k == n - 1:
                # One odd-sized frame closes the list (the storage-chunk
                # remainder): carry it inside the train instead of paying
                # a per-frame send.  Headroom must cover the whole train
                # plus the tail under zero consumption, same contract as
                # the equal-size run.
                t = frames[start + k]
                if (not t.is_pause
                        and t.payload_bytes != frames[start].payload_bytes
                        and k * frames[start].payload_bytes + t.payload_bytes
                        <= self.peer._high - self.peer._rx_bytes - 1):
                    tail = t
            if k < 2 and tail is None:
                yield from self.send(frames[start])
                start += 1
            else:
                sent = yield from self._train_tx(frames, start, k, tail)
                start += sent

    def _train_len(self, frames: Sequence[EthernetFrame], start: int) -> int:
        """Fast-path-eligible train length at *start* (< 2 = ineligible)."""
        tx = self._tx
        if (not self._fast_send or tx.in_use or tx.queued or self._tx_paused
                or self._fault_data_site is not None):
            return 0
        first = frames[start]
        if first.is_pause:
            return 0
        payload = first.payload_bytes
        # Receiver headroom under zero consumption: cumulative train
        # payload must keep peer occupancy strictly below the XOFF
        # watermark (which also rules out an overrun drop), so the train
        # provably generates no PAUSE traffic and loses no frame.
        cap = (self.peer._high - self.peer._rx_bytes - 1) // payload
        if cap < 2:
            return 0
        k = 1
        limit = min(len(frames) - start, cap)
        while k < limit and frames[start + k].payload_bytes == payload:
            k += 1
        return k

    def _train_tx(self, frames: Sequence[EthernetFrame], start: int, k: int,
                  tail: Optional[EthernetFrame] = None):
        """Generator: serialize ``frames[start:start+k]`` (+ odd *tail*)
        as one train.

        Returns how many frames the train actually covered before a
        split (>= 1); the caller re-evaluates eligibility for the rest.
        """
        sim = self.sim
        if not self._tx.try_acquire():
            yield self._tx.acquire()
        # The grant may have been delivered through the scheduler:
        # re-check the disqualifiers that can race with it at the same
        # timestamp.
        if self._tx.queued or self._tx_paused:
            yield from self._send_locked(frames[start])
            return 1
        t0 = sim.now
        ser = ns_for_bytes(frames[start].wire_bytes, self.rate_gbps)
        prop = self.propagation_ns
        pon = self.peer._on_frame

        def deliver(i: int, _frames=frames, _base=start) -> None:
            self.tx_frames += 1
            pon(_frames[_base + i])

        ticker = sim.schedule_train(k, ser + prop, ser, deliver)
        total = k * ser
        tail_rec = None
        if tail is not None:
            # The odd closing frame rides the same train: one deferred
            # delivery at its exact per-frame timestamp.  The record's
            # flag cancels the delivery if a split lands before the tail
            # reaches the wire.
            ser_t = ns_for_bytes(tail.wire_bytes, self.rate_gbps)
            tail_rec = [tail, True]
            sim.schedule_call(total + ser_t + prop, self._deliver_tail,
                              tail_rec)
            total += ser_t
        # One fused wake event covers both outcomes: the end-of-train
        # deferred call succeeds it at the last boundary, and a
        # disqualifier (contention/XOFF) succeeds it early via
        # :meth:`_signal_train_abort`.  A stale end call after an early
        # abort finds its own event already triggered and no-ops.
        done = sim.event()
        self._train_abort = done
        self._tx.watch_contention_fn(self._signal_train_abort)
        sim.schedule_call(total, self._train_end, done)
        yield done
        self._train_abort = None
        self._tx.unwatch_contention_fn(self._signal_train_abort)
        elapsed = sim.now - t0
        if elapsed >= total:
            # clean completion: the slot frees at the last frame boundary
            self._tx.release()
            return k + (1 if tail is not None else 0)
        if elapsed > k * ser:
            # Split during the tail's serialization: a started frame
            # cannot be paused, so the tail completes and the slot frees
            # at its exact boundary.  Its delivery call is already armed
            # at the right timestamp.
            yield sim.timeout(t0 + total - sim.now)
            self._tx.release()
            return k + 1
        # Split within the equal-size run (or exactly at its boundary,
        # where the per-frame path would re-check disqualifiers before
        # starting the tail): the frame on the wire still completes, then
        # the slot is handed back at its exact per-frame boundary, the
        # ticker stops delivering past it, and the tail never starts.
        if tail_rec is not None:
            tail_rec[1] = False
        m = elapsed // ser
        if elapsed % ser:
            m += 1
            yield sim.timeout(t0 + m * ser - sim.now)
        ticker.truncate(m)
        self._tx.release()
        return m

    def _train_end(self, ev: Event) -> None:
        """Wake a train at its last frame boundary (clean completion)."""
        if not ev.triggered:
            ev.succeed()

    def _deliver_tail(self, rec: list) -> None:
        """Deliver a train's odd closing frame (no-op if the train split)."""
        if rec[1]:
            self.tx_frames += 1
            self.peer._on_frame(rec[0])

    def _signal_train_abort(self, _event: object = None) -> None:
        """Wake an in-flight train: a disqualifier (XOFF/contention) hit."""
        abort = self._train_abort
        if abort is not None and not abort.triggered:
            abort.succeed()

    def _propagate(self, frame: EthernetFrame):
        yield self.sim.timeout(self.propagation_ns)
        if self._fault_data_site is not None and self._fault_data_site.flip(
                self._fault_cfg.eth_data_drop_rate):
            self._fault_stats.eth_data_dropped += 1
            return
        self.peer._on_frame(frame)

    def _send_control(self, quanta: int) -> None:
        """Control frames bypass the data queue (sent between data frames)."""
        self.pause_frames_sent += 1
        _ = self.sim.process(self._control_tx(quanta), name=f"{self.name}.ctl")

    def _control_tx(self, quanta: int):
        yield self.sim.timeout(
            ns_for_bytes(pause_frame(quanta).wire_bytes, self.rate_gbps)
            + self.propagation_ns)
        if self._fault_ctrl_site is not None and self._fault_ctrl_site.flip(
                self._fault_cfg.eth_ctrl_drop_rate):
            self._fault_stats.eth_ctrl_dropped += 1
            return
        self.peer._on_frame(pause_frame(quanta))

    def _send_xoff(self) -> None:
        """Pause the peer and arm the first refresh of this XOFF."""
        self._xoff_sent = True
        self._xoff_at = self.sim.now
        self._xoff_gen += 1
        self._send_control(0xFFFF)
        self.sim.schedule_call(self._xoff_refresh_ns, self._refresh_xoff,
                               self._xoff_gen)

    def _refresh_xoff(self, gen: int) -> None:
        """Re-send a still-outstanding XOFF before its quanta run out."""
        if not self._xoff_sent or gen != self._xoff_gen:
            return  # XON already sent, or a newer XOFF owns the chain
        self._send_control(0xFFFF)
        self.sim.schedule_call(self._xoff_refresh_ns, self._refresh_xoff, gen)

    def _pause_reaction_ns(self) -> int:
        """Longest an XOFF can take to stop data arriving here: its own
        serialization and flight, then one max-size frame the peer had
        already started (802.3x cannot pause it) and that frame's flight.
        An overrun later than this is a lost frame flow control should
        have prevented."""
        peer = self.peer
        return (ns_for_bytes(pause_frame(0xFFFF).wire_bytes, self.rate_gbps)
                + self.propagation_ns + peer.propagation_ns
                + ns_for_bytes(MAX_PAYLOAD_BYTES + FRAME_OVERHEAD_BYTES,
                               peer.rate_gbps))

    def pause_quanta_ns(self, quanta: int) -> int:
        """Duration of *quanta* pause quanta (one quantum = 512 bit-times)."""
        return ns_for_bytes(quanta * 64, self.rate_gbps)

    def _pause_expiry(self):
        """Expire the pause once its quanta run out (802.3x).

        One watchdog covers any number of XOFF refreshes: each XOFF pushes
        ``_pause_until`` forward and the loop re-sleeps.  An XON simply
        falsifies ``_tx_paused`` and the watchdog exits at its next wake —
        it never touches the data path, so runs that always get their XON
        in time are bit-identical to runs without the watchdog.
        """
        while self._tx_paused and self.sim.now < self._pause_until:
            yield self.sim.timeout(self._pause_until - self.sim.now)
        self._pause_timer_active = False
        if self._tx_paused:
            # quanta elapsed with no refresh and no XON (e.g. the XON was
            # lost): resume transmission, as the spec prescribes
            self._tx_paused = False
            kick, self._pause_kick = self._pause_kick, Event(self.sim)
            kick.succeed()

    # ------------------------------------------------------------------- RX
    def _on_frame(self, frame: EthernetFrame) -> None:
        if frame.ethertype == PAUSE_ETHERTYPE:
            if frame.pause_quanta > 0:
                self._tx_paused = True
                self._signal_train_abort()
                self._pause_until = (self.sim.now
                                     + self.pause_quanta_ns(frame.pause_quanta))
                if not self._pause_timer_active:
                    self._pause_timer_active = True
                    _ = self.sim.process(self._pause_expiry(),
                                         name=f"{self.name}.pexp")
            else:
                self._tx_paused = False
                kick, self._pause_kick = self._pause_kick, Event(self.sim)
                kick.succeed()
            return
        payload = frame.payload_bytes
        rx_bytes = self._rx_bytes
        if rx_bytes + payload > self.rx_fifo_bytes:
            # Overrun: without flow control this is how frames die.  With
            # it, an overrun is the strongest congestion signal there is —
            # pause the sender even if occupancy sits below the high
            # watermark (a single frame can jump from below-high to over
            # the cap, and the watermark check below is never reached on
            # this path).  Once the XOFF has had time to stop the sender,
            # a drop is a bug, not congestion, unless a fault plan may
            # have eaten the pause frame.
            self.dropped_frames += 1
            if self.flow_control:
                if not self._xoff_sent:
                    self._send_xoff()
                elif (self._fault_ctrl_site is None and self.sim.now
                      > self._xoff_at + self._pause_reaction_ns()):
                    raise FrameDropError(
                        f"{self.name}: frame overran the RX FIFO "
                        f"{self.sim.now - self._xoff_at} ns after XOFF")
            return
        rcv = self.receiver
        if (rcv is not None and not self._rx_frames and not self._xoff_sent
                and (not self.flow_control
                     or rx_bytes + payload < self._high)
                and rcv.sink(frame)):
            # Consumed without touching the FIFO.  The guards above prove
            # the per-frame path would have appended and popped the frame
            # within this same instant with no watermark crossing, so the
            # only externally visible difference is the skipped transient.
            self.rx_frames += 1
            return
        self._rx_frames.append(frame)
        self._rx_bytes = rx_bytes = rx_bytes + payload
        self.rx_frames += 1
        if self.flow_control and not self._xoff_sent \
                and rx_bytes >= self._high:
            self._send_xoff()
        kick, self._rx_kick = self._rx_kick, Event(self.sim)
        kick.succeed()

    def recv(self):
        """Generator: take the oldest received frame (blocks while empty)."""
        while not self._rx_frames:
            yield self._rx_kick
        return self._recv_pop()

    def _recv_pop(self) -> EthernetFrame:
        """Dequeue the oldest frame + XON bookkeeping (FIFO must be
        non-empty).  Split from :meth:`recv` so consumers that manage
        their own kick waits (the switch ingress engine) share the exact
        pop-side accounting."""
        frame = self._rx_frames.pop(0)
        self._rx_bytes -= frame.payload_bytes
        if self.flow_control and self._xoff_sent and self._rx_bytes <= self._low:
            self._xoff_sent = False
            self._send_control(0)
        return frame

    @property
    def rx_occupancy(self) -> int:
        """Bytes currently buffered in the RX FIFO."""
        return self._rx_bytes

    @property
    def rx_pending(self) -> int:
        """Frames currently buffered in the RX FIFO (switch accounting)."""
        return len(self._rx_frames)

    @property
    def is_paused(self) -> bool:
        """True while the TX side honours an XOFF."""
        return self._tx_paused
