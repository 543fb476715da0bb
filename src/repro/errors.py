"""Exception hierarchy for the SNAcc reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """Generic failure inside the discrete-event kernel."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting."""


class SnapshotError(SimulationError):
    """Checkpoint/fork scenario engine failure (unsafe fork point,
    replay divergence, or a branch that died in its forked child)."""


class MemoryError_(ReproError):
    """Bad access to a simulated memory (OOB, misaligned, unmapped)."""


class AddressError(MemoryError_):
    """Address decodes to no mapped region."""


class AllocationError(MemoryError_):
    """A simulated allocator ran out of space."""


class PCIeError(ReproError):
    """PCIe-layer failure (routing, malformed TLP)."""


class IommuFault(PCIeError):
    """A peer-to-peer or DMA access was rejected by the IOMMU."""


class NVMeError(ReproError):
    """NVMe protocol-level failure."""


class QueueFullError(NVMeError):
    """Submission queue has no free slot."""


class InvalidCommandError(NVMeError):
    """Malformed or unsupported NVMe command."""


class NamespaceError(NVMeError):
    """LBA out of range or bad namespace id."""


class RetryExhaustedError(NVMeError):
    """A command kept failing/timing out past its retry budget."""


class StreamerError(ReproError):
    """SNAcc NVMe Streamer misuse (bad command, buffer overflow...)."""


class EthernetError(ReproError):
    """Ethernet-layer failure."""


class FrameDropError(EthernetError):
    """A flow-controlled receiver overran after its XOFF took effect.

    Overruns without flow control, or before the pause can reach the
    sender, are counted in ``dropped_frames`` instead (802.3x loss).
    """


class ConfigError(ReproError):
    """Invalid configuration of a simulated component."""
