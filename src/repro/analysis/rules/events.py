"""Event-lifecycle rules: SIM001, SIM002.

These guard the generator-process contract of :mod:`repro.sim.core`:
every event minted must be consumed and every process generator must be
registered.  (A process yielding a non-Event needs no rule: the kernel
fails it with :class:`~repro.errors.SimulationError` on the spot.)
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..engine import Finding, Module, Rule, register

__all__ = ["UnconsumedEvent", "UnregisteredGenerator"]


def _call_target_name(call: ast.Call) -> Optional[str]:
    """Bare name of the callable (``foo`` or ``obj.foo``), if resolvable."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register
class UnconsumedEvent(Rule):
    """SIM001: an event minted by a sim factory is silently discarded.

    ``sim.timeout(5)`` as a bare expression statement *still schedules* the
    timeout — the simulation burns virtual time on it, but no process ever
    observes it, so the model is wrong and nothing crashes.  The same applies
    to ``sim.event()`` (dead event nobody can trigger via a handle) and
    ``sim.process(...)`` (the caller keeps no handle to join or interrupt).
    """

    id = "SIM001"
    title = "un-consumed event"
    hazard = ("a discarded factory result still schedules; the model silently "
              "diverges instead of crashing")

    def check(self, module: Module) -> Iterator[Finding]:
        for stmt in module.walk(ast.Expr):
            assert isinstance(stmt, ast.Expr)
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            factory = module.factory_of(value)
            if factory is None:
                continue
            yield self.finding(
                module, value,
                f"result of sim.{factory}(...) is neither yielded, bound, "
                f"nor passed on (bind it: `_ = sim.{factory}(...)` if the "
                f"handle is deliberately unused)")


@register
class UnregisteredGenerator(Rule):
    """SIM002: a process generator function is called but never registered.

    Calling a generator function as a bare statement creates a generator
    object and throws it away — not a single line of its body runs.  The
    author almost always meant ``sim.process(worker(...))``.
    """

    id = "SIM002"
    title = "generator called but not registered"
    hazard = ("a bare generator-function call runs none of its body; the "
              "process the author expected never exists")

    def check(self, module: Module) -> Iterator[Finding]:
        generators = module.generator_functions
        for stmt in module.walk(ast.Expr):
            assert isinstance(stmt, ast.Expr)
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            if module.factory_of(value) is not None:
                continue  # SIM001's territory
            name = _call_target_name(value)
            if name is None or name not in generators:
                continue
            yield self.finding(
                module, value,
                f"generator function {name!r} called as a statement; nothing "
                f"runs — register it with sim.process({name}(...)) or "
                f"iterate it")
