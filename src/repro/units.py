"""Unit helpers used throughout the simulation.

All simulation time is measured in **integer nanoseconds**.  Bandwidth is
usually expressed in the units the paper uses (GB/s, decimal gigabytes per
second) and converted to per-byte serialization delays with :func:`ns_for_bytes`.

Sizes follow the NVMe convention: addresses and buffer sizes are binary
(KiB/MiB), reported bandwidths are decimal (GB/s), mirroring the paper.

Rounding policy
---------------
The kernel clock is integer nanoseconds and the kernel rejects float
delays and ``until`` bounds outright (every scheduling entry point coerces
via ``operator.index``).  Whenever real-valued math produces a duration, it is
rounded **up** to the next whole nanosecond before reaching the kernel —
never truncated, never round-half-even.  Round-up is the single policy
because it is conservative for every quantity we model: a link never
exceeds its nominal bandwidth, a controller never beats its service time,
and latencies are never under-reported.  :func:`ns_for_bytes` (bandwidth
to serialization delay) and :func:`ns_ceil` (any float duration) are the
two blessed conversion points; every kernel entry point that takes a time
raises a ``TypeError`` naming this policy when a float reaches it by any
other route.
"""

from __future__ import annotations

import math

# --- sizes (binary) ---------------------------------------------------------
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

# --- sizes (decimal, used for bandwidth maths) ------------------------------
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

# --- time (integer nanoseconds) ---------------------------------------------
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

#: NVMe / host page size; PRP granularity.
PAGE = 4 * KiB


#: memo for :func:`ns_for_bytes` — a pure function on the hot TX path
#: (every frame boundary recomputes its serialization delay, but frame
#: sizes and link rates come from tiny sets).  Bounded; per-process
#: scratch only, so process-pool workers each warming their own copy is
#: the design (snacclint SIM008 allowlist).
_NS_CACHE: dict = {}


def ns_for_bytes(nbytes: int, gbps: float) -> int:
    """Serialization delay in ns for *nbytes* at *gbps* decimal GB/s.

    Rounds up so that modelled links never exceed their nominal bandwidth.

    >>> ns_for_bytes(4096, 4.096)
    1000
    """
    ns = _NS_CACHE.get((nbytes, gbps))
    if ns is not None:
        return ns
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if gbps <= 0:
        raise ValueError(f"bandwidth must be > 0, got {gbps}")
    # ns = bytes / (GB/s) * 1e9 / 1e9 = bytes / gbps  (since 1 GB = 1e9 B)
    ns = -(-nbytes * SEC // int(gbps * SEC))
    if len(_NS_CACHE) < 65536:
        _NS_CACHE[(nbytes, gbps)] = ns
    return ns


def ns_ceil(duration_ns: float) -> int:
    """Round a real-valued duration up to integer nanoseconds.

    The blessed conversion for float durations that must reach the integer
    kernel clock (see the module-level rounding policy).  Exact integers
    pass through unchanged.

    >>> ns_ceil(10.0)
    10
    >>> ns_ceil(10.25)
    11
    """
    if duration_ns < 0:
        raise ValueError(f"duration must be >= 0, got {duration_ns}")
    return math.ceil(duration_ns)


def gbps_for(nbytes: int, elapsed_ns: int) -> float:
    """Achieved bandwidth in decimal GB/s for *nbytes* over *elapsed_ns*."""
    if elapsed_ns <= 0:
        raise ValueError(f"elapsed_ns must be > 0, got {elapsed_ns}")
    return nbytes / elapsed_ns  # B/ns == GB/s


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to the next multiple of *alignment* (a power of two)."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


def align_down(value: int, alignment: int) -> int:
    """Round *value* down to a multiple of *alignment* (a power of two)."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return value & ~(alignment - 1)


def is_aligned(value: int, alignment: int) -> bool:
    """True if *value* is a multiple of power-of-two *alignment*."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (value & (alignment - 1)) == 0


def fmt_size(nbytes: int) -> str:
    """Human-readable binary size string ('4.0 KiB', '64 MiB', ...)."""
    if nbytes < KiB:
        return f"{nbytes} B"
    for unit, name in ((GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if nbytes >= unit:
            val = nbytes / unit
            return f"{val:.0f} {name}" if val == int(val) else f"{val:.1f} {name}"
    raise AssertionError("unreachable")


def fmt_time(ns: int) -> str:
    """Human-readable time string from integer nanoseconds."""
    if ns >= SEC:
        return f"{ns / SEC:.3f} s"
    if ns >= MS:
        return f"{ns / MS:.3f} ms"
    if ns >= US:
        return f"{ns / US:.2f} us"
    return f"{ns} ns"
