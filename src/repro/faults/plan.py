"""Seeded fault plan: deterministic-by-construction fault injection.

The determinism contract (DESIGN.md §6)
---------------------------------------
Every injection point in the model owns a :class:`FaultSite` — a private
RNG stream whose seed is derived **at construction time** from exactly two
inputs: the plan seed and the site's stable name.  Nothing about the event
schedule feeds back into the stream:

* the k-th decision a site makes depends only on ``(seed, site name, k)``,
  never on what other sites decided or how their events interleaved;
* site seeds are order-independent (``SeedSequence((seed, crc32(name)))``),
  so attaching components in a different order cannot shuffle streams;
* a site draws from its stream on **every** query (even when the decision
  is a no-op at rate 0 for one of several fault kinds sharing the site),
  so the mapping from command k to stream position never drifts.

Because the simulator itself schedules identically across runs (snacclint's
SIM004, ``tests/sim/test_determinism.py``), the same seed therefore
reproduces the exact same faults — and the exact same recovery — run after
run.  With every rate at zero no plan is attached anywhere and the model
executes the identical event sequence it would without this module.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import ConfigError

__all__ = ["FaultConfig", "FaultPlan", "FaultSite"]


def _jsonable(value: Any) -> Any:
    """Recursively coerce numpy scalars so RNG state dicts JSON-serialize.

    ``Generator.bit_generator.state`` is a nested dict of plain ints and
    strings for PCG64, but the coercion keeps the capture format safe
    against bit-generator implementations that hand back numpy scalars
    (or arrays) instead.
    """
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value

#: fields of :class:`FaultConfig` that are injection probabilities
_RATE_FIELDS = (
    "nvme_cmd_fail_rate", "nvme_cqe_delay_rate",
    "pcie_tlp_loss_rate", "pcie_tlp_corrupt_rate",
    "eth_data_drop_rate", "eth_ctrl_drop_rate",
)


@dataclass(frozen=True)
class FaultConfig:
    """Injection rates and recovery policy of one fault plan.

    All rates are per-decision probabilities in ``[0, 1]``: per IO command
    at the controller, per TLP chunk on a PCIe link direction, per frame
    on an Ethernet hop.  A config with every rate at zero is *disabled* —
    builders then attach no plan at all and the simulation is bit-identical
    to one that never heard of faults.
    """

    # -- injection ---------------------------------------------------------
    #: probability an IO command completes with a media-error status
    nvme_cmd_fail_rate: float = 0.0
    #: probability a command's CQE is delayed by :attr:`nvme_cqe_delay_ns`
    nvme_cqe_delay_rate: float = 0.0
    nvme_cqe_delay_ns: int = 50_000
    #: probability one TLP chunk is lost on the wire (replayed after an
    #: ack timeout, like the data link layer's replay buffer)
    pcie_tlp_loss_rate: float = 0.0
    #: probability one TLP chunk arrives corrupted (NAK -> immediate replay)
    pcie_tlp_corrupt_rate: float = 0.0
    #: probability a data frame dies between two Ethernet MACs
    eth_data_drop_rate: float = 0.0
    #: probability a PAUSE control frame dies (the lost-XON scenario)
    eth_ctrl_drop_rate: float = 0.0

    # -- recovery ----------------------------------------------------------
    #: per-command deadline before the issuer retries (streamer/SPDK)
    command_timeout_ns: int = 10_000_000
    #: resubmissions per command before surfacing a typed error
    retry_limit: int = 4
    #: capped exponential backoff: min(cap, base << (attempt - 1))
    backoff_base_ns: int = 2_000
    backoff_cap_ns: int = 500_000
    #: data-link ack timeout before a lost TLP chunk is replayed
    pcie_replay_timeout_ns: int = 1_000
    #: replays of one chunk before the link raises PCIeError
    pcie_replay_limit: int = 8

    #: root seed every site stream derives from
    seed: int = 0xFA17

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        for name in ("nvme_cqe_delay_ns", "backoff_base_ns",
                     "backoff_cap_ns", "pcie_replay_timeout_ns"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.command_timeout_ns <= 0:
            # a zero deadline would declare every command timed out the
            # moment it is submitted
            raise ConfigError("command_timeout_ns must be > 0")
        if self.retry_limit < 0 or self.pcie_replay_limit < 0:
            raise ConfigError("retry limits must be >= 0")
        if self.backoff_cap_ns < self.backoff_base_ns:
            raise ConfigError("backoff_cap_ns must be >= backoff_base_ns")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @property
    def enabled(self) -> bool:
        """True when any injection rate is non-zero."""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    def backoff_ns(self, attempt: int) -> int:
        """Backoff before resubmission *attempt* (1-based), capped."""
        return min(self.backoff_cap_ns,
                   self.backoff_base_ns << max(0, attempt - 1))

    def describe(self) -> str:
        """Compact non-default-fields label for experiment tables."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return ", ".join(parts) or "disabled"


class FaultSite:
    """One injection point's private, pre-seeded decision stream."""

    __slots__ = ("name", "draws", "_rng", "_plan")

    def __init__(self, name: str, rng: np.random.Generator,
                 plan: "Optional[FaultPlan]" = None) -> None:
        self.name = name
        #: decisions drawn so far (stream position; useful in tests)
        self.draws = 0
        self._rng = rng
        #: owning plan, consulted for the branch-time rate scale; None for
        #: free-standing sites built directly in tests
        self._plan = plan

    def flip(self, rate: float) -> bool:
        """The stream's next decision: True with probability *rate*.

        Always consumes one draw, so a site queried for several fault
        kinds keeps a fixed command-to-stream-position mapping even when
        some of the rates are zero.  The owning plan's
        :attr:`FaultPlan.rate_scale` multiplies *rate* at decision time —
        a draw is consumed either way, so scaling (even to 0.0) never
        shifts any stream position.
        """
        self.draws += 1
        plan = self._plan
        if plan is not None and plan.rate_scale != 1.0:
            rate = rate * plan.rate_scale
        return bool(self._rng.random() < rate)

    def capture_state(self) -> Dict[str, Any]:
        """JSON-able snapshot of the stream position and RNG internals."""
        return {
            "name": self.name,
            "draws": self.draws,
            "rng": _jsonable(self._rng.bit_generator.state),
        }


class FaultPlan:
    """Factory of per-site decision streams for one seeded fault config.

    ``rate_scale`` is the one piece of *mutable* plan state: a global
    multiplier applied to every rate at :meth:`FaultSite.flip` time.  It
    exists for scenario forking (DESIGN.md §10): a warm prefix runs with
    the scale at ``0.0`` (decisions all come out False but every draw is
    still consumed, so stream positions stay aligned with any other
    scale), then each branch sets its own intensity — no rebuild, no
    re-seeding, bit-identical stream state at the branch point.  The
    default ``1.0`` multiplies exactly (IEEE ``x * 1.0 == x``), so plans
    that never touch it behave byte-for-byte as before.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        #: decision-time multiplier on every injection rate (see class doc)
        self.rate_scale: float = 1.0
        #: every site created through :meth:`site`, in attach order (the
        #: build order of the model, which is deterministic)
        self._sites: List[FaultSite] = []

    def seed_for(self, site_name: str) -> np.random.SeedSequence:
        """The seed of *site_name*'s stream — a pure function of the plan
        seed and the name (order-independent across sites)."""
        key = zlib.crc32(site_name.encode("utf-8"))
        return np.random.SeedSequence((self.config.seed, key))

    def site(self, name: str) -> FaultSite:
        """Create *name*'s decision stream.

        Each injection point must call this once and keep the returned
        site: calling twice with the same name yields two identical,
        independent streams (same seed), which is almost never wanted.
        """
        made = FaultSite(name, np.random.default_rng(self.seed_for(name)),
                         plan=self)
        self._sites.append(made)
        return made

    def capture_state(self) -> List[Dict[str, Any]]:
        """Every site's stream position + RNG state, in attach order.

        This is the fault half of a snapshot checkpoint: two plans built
        by the same deterministic factory and driven through the same
        warm prefix capture *equal* state or the factory is not
        deterministic — the replay fallback in :mod:`repro.sim.snapshot`
        hard-fails on any difference.  JSON-able by construction.
        """
        return [s.capture_state() for s in self._sites]
