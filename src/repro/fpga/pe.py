"""Processing Element base class (TaPaSCo's unit of user logic)."""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import ConfigError
from ..sim.core import Process, Simulator
from .axi import AxiStream

__all__ = ["ProcessingElement"]


class ProcessingElement:
    """A user accelerator: named stream ports plus a behaviour process.

    Subclasses implement :meth:`behavior` (a generator) and declare their
    ports with :meth:`add_port`; the platform wires ports to infrastructure
    streams and calls :meth:`start`.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.ports: Dict[str, AxiStream] = {}
        self._proc: Optional[Process] = None

    def add_port(self, port_name: str, stream: AxiStream) -> None:
        """Attach *stream* as port *port_name*."""
        if port_name in self.ports:
            raise ConfigError(f"{self.name}: duplicate port {port_name!r}")
        self.ports[port_name] = stream

    def port(self, port_name: str) -> AxiStream:
        """The stream wired to *port_name* (raises if missing)."""
        try:
            return self.ports[port_name]
        except KeyError:
            raise ConfigError(
                f"{self.name}: no port {port_name!r}; have {list(self.ports)}"
            ) from None

    def behavior(self):
        """The PE's process body (subclass hook, a generator)."""
        raise NotImplementedError
        yield  # pragma: no cover  (unreachable; makes this a generator)

    def start(self) -> Process:
        """Launch the behaviour process (idempotent)."""
        if self._proc is None:
            self._proc = self.sim.process(self.behavior(), name=self.name)
        return self._proc

    @property
    def is_running(self) -> bool:
        """True while the behaviour process is alive."""
        return self._proc is not None and self._proc.is_alive
