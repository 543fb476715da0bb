"""Fork-safety rule: SIM011.

``os.fork`` copies exactly one thread — the caller — into the child.
Any other live thread (a warm-pool executor's management threads, a
``threading.Thread`` the scope started) simply vanishes mid-flight in
the child, leaving locks held and queues half-consumed.  Open file
handles are subtler: parent and child share the descriptor's offset, so
both sides reading or writing interleave corruptly.  The snapshot
engine (:mod:`repro.sim.snapshot`) guards against the thread case at
runtime; this rule catches both hazards statically, before a fork-bomb
of flaky CI runs teaches the same lesson slowly.

A *fork point* is a direct ``os.fork()`` call (itself a finding outside
the snapshot engine — everything else should go through the engine,
which quiesces the simulator and refuses multi-threaded forks) or a
:class:`repro.sim.snapshot.ScenarioEngine` construction (the engine
forks later, inside ``run``, from the same process state).

Within the scope enclosing a fork point the rule flags, lexically
before it:

* thread/pool constructions (``Thread``, ``Timer``,
  ``ThreadPoolExecutor``, ``ProcessPoolExecutor``, ``Pool``) that are
  not joined/shut down again before the fork point — a ``with`` block
  that closes before the fork point is clean, a ``with`` block that
  *contains* the fork point is not;
* ``open()`` handles not closed before the fork point, including
  ``with open(...)`` bodies that contain it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..engine import Finding, Module, Rule, register

__all__ = ["ForkSafety", "FORK_CALL_ALLOWED_FILES"]

#: files allowed to call ``os.fork`` directly: only the snapshot engine,
#: which quiesces the simulator, drains the freelists, and refuses to
#: fork while other threads are alive.  Everything else should branch
#: via ``ScenarioEngine``.
FORK_CALL_ALLOWED_FILES = (
    "repro/sim/snapshot.py",
)

#: constructors whose product owns background threads (or, for Pool /
#: ProcessPoolExecutor, management threads in the *driving* process —
#: the part of a process pool that os.fork does not copy).
_THREAD_FACTORIES = frozenset({
    "Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor", "Pool",
})

#: method calls that retire a thread-owning object before a fork point.
_THREAD_CLEANUP = frozenset({"join", "shutdown", "terminate", "close"})

#: call-path tails that open an OS-level file handle.
_FILE_FACTORIES = frozenset({"open"})

_FILE_CLEANUP = frozenset({"close"})


class _Resource:
    """One thread/file construction and where it lives in the scope."""

    __slots__ = ("node", "kind", "var", "with_node")

    def __init__(self, node: ast.Call, kind: str, var: Optional[str],
                 with_node: Optional[ast.AST]) -> None:
        self.node = node
        self.kind = kind          # "thread" | "file"
        self.var = var            # bound name, if any
        self.with_node = with_node


@register
class ForkSafety(Rule):
    """SIM011: threads, pools, or open file handles live at a fork point.

    Also flags direct ``os.fork()`` calls outside the snapshot engine,
    which quiesces the simulator and guards the fork point; ad-hoc
    forks copy non-quiesced freelists and fault-RNG state into the
    child and silently break branch equivalence.
    """

    id = "SIM011"
    title = "unsafe state live at a fork point"
    hazard = ("os.fork copies only the calling thread: other live threads "
              "die mid-flight in the child and shared file offsets corrupt; "
              "branch results stop being reproducible")

    def check(self, module: Module) -> Iterator[Finding]:
        fork_allowed = module.path.replace("\\", "/").endswith(
            FORK_CALL_ALLOWED_FILES)
        scopes: Dict[int, Tuple[ast.AST, List[ast.Call]]] = {}
        for call in module.walk(ast.Call):
            assert isinstance(call, ast.Call)
            kind = self._fork_kind(module, call)
            if kind is None:
                continue
            if kind == "os.fork" and not fork_allowed:
                yield self.finding(
                    module, call,
                    "direct os.fork() outside the snapshot engine; use "
                    "repro.sim.snapshot.ScenarioEngine, which quiesces "
                    "the simulator and guards the fork point")
            scope = module.scope_of(call)
            scopes.setdefault(id(scope), (scope, []))[1].append(call)
        for scope, fork_calls in scopes.values():
            yield from self._check_scope(module, scope, fork_calls)

    # -- fork-point detection --------------------------------------------------

    @staticmethod
    def _fork_kind(module: Module, call: ast.Call) -> Optional[str]:
        path = module.dotted_path(call.func)
        if path is None:
            return None
        if path == "os.fork":
            return "os.fork"
        if path.rsplit(".", 1)[-1] == "ScenarioEngine":
            return "ScenarioEngine"
        return None

    # -- per-scope resource analysis -------------------------------------------

    def _check_scope(self, module: Module, scope: ast.AST,
                     fork_calls: List[ast.Call]) -> Iterator[Finding]:
        resources = self._scope_resources(module, scope)
        cleanups = self._scope_cleanups(scope)
        for res in resources:
            fork = self._first_exposed_fork(res, fork_calls, cleanups)
            if fork is not None:
                yield self.finding(module, res.node,
                                   self._message(res, fork))

    def _scope_resources(self, module: Module,
                         scope: ast.AST) -> List[_Resource]:
        resources: List[_Resource] = []
        claimed: Dict[int, None] = {}

        def classify(call: ast.AST) -> Optional[str]:
            if not isinstance(call, ast.Call):
                return None
            path = module.dotted_path(call.func)
            if path is None:
                return None
            tail = path.rsplit(".", 1)[-1]
            if tail in _THREAD_FACTORIES:
                return "thread"
            if tail in _FILE_FACTORIES:
                return "file"
            return None

        for node in Module._walk_same_function(scope):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    kind = classify(item.context_expr)
                    if kind is not None:
                        claimed[id(item.context_expr)] = None
                        var = None
                        if isinstance(item.optional_vars, ast.Name):
                            var = item.optional_vars.id
                        resources.append(_Resource(item.context_expr, kind,
                                                   var, node))
            elif isinstance(node, ast.Assign):
                kind = classify(node.value)
                if kind is not None and len(node.targets) == 1 and \
                        isinstance(node.targets[0], ast.Name):
                    claimed[id(node.value)] = None
                    resources.append(_Resource(node.value, kind,
                                               node.targets[0].id, None))
        for node in Module._walk_same_function(scope):
            if id(node) in claimed:
                continue
            kind = classify(node)
            if kind is not None:
                # unbound construction: nothing can ever clean it up
                assert isinstance(node, ast.Call)
                resources.append(_Resource(node, kind, None, None))
        return resources

    @staticmethod
    def _scope_cleanups(scope: ast.AST) -> List[Tuple[str, str, int]]:
        """(bound name, method, line) for every ``name.method()`` call."""
        cleanups: List[Tuple[str, str, int]] = []
        for node in Module._walk_same_function(scope):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    isinstance(node.func.value, ast.Name):
                cleanups.append((node.func.value.id, node.func.attr,
                                 node.lineno))
        return cleanups

    @staticmethod
    def _first_exposed_fork(res: _Resource, fork_calls: List[ast.Call],
                            cleanups: List[Tuple[str, str, int]],
                            ) -> Optional[ast.Call]:
        methods = _THREAD_CLEANUP if res.kind == "thread" else _FILE_CLEANUP
        for fork in sorted(fork_calls, key=lambda c: (c.lineno, c.col_offset)):
            if res.with_node is not None:
                # with-managed: hazardous only if the fork point sits
                # inside the block (the resource dies at block exit)
                end = getattr(res.with_node, "end_lineno", None)
                inside = (res.with_node.lineno <= fork.lineno and
                          (end is None or fork.lineno <= end))
                if inside:
                    return fork
                continue
            if res.node.lineno >= fork.lineno:
                continue
            cleaned = res.var is not None and any(
                var == res.var and method in methods and
                res.node.lineno <= line <= fork.lineno
                for var, method, line in cleanups)
            if not cleaned:
                return fork
        return None

    @staticmethod
    def _message(res: _Resource, fork: ast.Call) -> str:
        name = f"'{res.var}'" if res.var is not None else "(unbound)"
        if res.kind == "thread":
            return (f"thread-owning object {name} is live at the fork "
                    f"point on line {fork.lineno}; os.fork copies only "
                    f"the calling thread — join/shutdown it first (the "
                    f"snapshot engine refuses such forks at runtime)")
        return (f"open file handle {name} spans the fork point on line "
                f"{fork.lineno}; parent and child share the descriptor "
                f"offset — close it before forking")
