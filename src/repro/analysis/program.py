"""Whole-program layer: per-module summaries and the cross-module graphs.

The per-file rules (SIM001, SIM002, SIM004, SIM011) see one AST at a
time; the hazards that actually bite at system scale — a process parked
on an event whose setter lives in a module nobody imports anymore, bench
jobs silently sharing a module-level dict across pool workers, job code
reading inputs the result cache never fingerprints — are only visible to
a pass that sees the *project*.

The design splits that pass in two so the per-file half fans out over
worker processes (``--jobs``):

``summarize``
    extracts a :class:`ModuleSummary` from one parsed
    :class:`~repro.analysis.engine.Module`.  A summary is a plain,
    picklable record of everything the whole-program rules need to know
    about the file — resolved imports, the function table, every event
    mint / wait / setter / escape site, module-level mutable state,
    IO-read sites, and unit-tagged call shapes.  Summaries depend only on
    the file's own text.

:class:`Program`
    combines the summaries of every analyzed file into the project-wide
    symbol table, the import graph (absolute *and* relative imports
    resolved against derived dotted module names), and the event-flow /
    call-graph queries the SIM006-SIM010 rules run on.  Building it from
    summaries is O(project) string work — no re-parsing.

Event-flow model
----------------
An event *mint* is an assignment whose value is ``sim.event()`` (any
receiver the engine recognizes as a Simulator) or a bare ``Event(...)``
constructor call.  A *wait* is a bare ``yield name`` / ``yield obj.attr``
of a minted key.  A *setter* is a ``.succeed(...)`` / ``.fail(...)`` /
``.set(...)`` / ``.trigger(...)`` call on the key.  Every other use —
passed as an argument, aliased, stored in a container, rebound — is an
*escape*, after which the analysis assumes the event can be triggered
somewhere it cannot see.  A wait whose key has neither setter nor escape
anywhere in the program can never fire: a static deadlock (SIM006).
Local (function-scope) keys resolve within the minting function and its
nested scopes; attribute keys resolve program-wide by attribute name,
which trades a few false negatives (colliding attribute names) for zero
spurious cross-class matches.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import PurePosixPath
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import Module

__all__ = [
    "EVENT_SETTERS",
    "FunctionInfo",
    "TaggedCall",
    "ModuleSummary",
    "Program",
    "summarize",
    "module_name_for",
    "unit_tag",
]

#: methods that trigger an event — the setter side of the event-flow graph.
EVENT_SETTERS = frozenset({"succeed", "fail", "set", "trigger"})

#: container-mutating method names (SIM008 mutation detection).
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "popleft", "appendleft", "remove", "discard", "clear",
    "sort", "reverse",
})

#: callables that build a mutable container (SIM008 binding detection).
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "OrderedDict", "Counter",
})

#: top-level directories that name modules when no ``src/`` root applies.
_ROOT_DIRS = frozenset({"tests", "examples", "scripts"})

#: name suffix → unit tag (SIM010).  Exact-name tags cover the handful of
#: untagged-but-unambiguous spellings used throughout the tree.
_TAG_SUFFIXES = (("_ns", "ns"), ("_bytes", "bytes"), ("_cycles", "cycles"))
_TAG_EXACT = {"nbytes": "bytes"}

#: intrinsic positional-parameter tags for kernel/units entry points the
#: symbol table cannot see (the factory protocol) or sees too often to
#: resolve by name alone.
INTRINSIC_PARAM_TAGS: Dict[str, Tuple[Optional[str], ...]] = {
    "ns_for_bytes": ("bytes", None),
    "ns_ceil": ("ns",),
    "gbps_for": ("bytes", "ns"),
}


def unit_tag(name: Optional[str]) -> Optional[str]:
    """The ns/bytes/cycles tag carried by *name*, if any."""
    if not name:
        return None
    exact = _TAG_EXACT.get(name)
    if exact is not None:
        return exact
    for suffix, tag in _TAG_SUFFIXES:
        if name.endswith(suffix):
            return tag
    return None


def module_name_for(path: str) -> str:
    """Derive the dotted module name the project knows *path* by.

    ``.../src/repro/bench/jobs.py`` → ``repro.bench.jobs``;
    ``tests/analysis/test_cli.py`` → ``tests.analysis.test_cli``;
    anything unplaceable falls back to its stem.
    """
    pure = PurePosixPath(str(path).replace("\\", "/"))
    parts = list(pure.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "src" in parts:
        # the src/ layout root names no package — drop it
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        for root in _ROOT_DIRS:
            if root in parts:
                parts = parts[len(parts) - 1 - parts[::-1].index(root):]
                break
        else:
            parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part and part not in ("/", "\\"))


# ---------------------------------------------------------------- summaries
@dataclasses.dataclass
class FunctionInfo:
    """One function/method: signature plus the waits its body performs."""

    name: str
    qualname: str
    class_name: Optional[str]
    params: List[str]
    is_generator: bool
    lineno: int
    #: bare event waits: ``yield name`` / ``yield obj.attr`` — (key, line, col)
    bare_waits: List[Tuple[str, int, int]]


@dataclasses.dataclass
class TaggedCall:
    """A call site carrying at least one unit-tagged argument (SIM010)."""

    callee_kind: str                       # 'name' | 'attr'
    callee: str                            # bare callable name
    factory: Optional[str]                 # sim factory name, if any
    arg_tags: List[Optional[str]]          # positional argument tags
    kwarg_tags: List[Tuple[str, Optional[str]]]
    line: int
    col: int


@dataclasses.dataclass
class ModuleSummary:
    """Everything the whole-program rules need to know about one file.

    Plain data, so a worker process can hand it back to the driver.
    """

    path: str
    module: str
    imports: List[str]
    functions: List[FunctionInfo]
    attr_mints: List[Tuple[str, int]]          # (key, line)
    attr_waits: List[Tuple[str, int, int]]     # (key, line, col)
    attr_settable: List[str]                   # keys with setter or escape
    local_deadlocks: List[Tuple[str, int, int]]  # resolved per-file (SIM006)
    mutable_globals: List[Tuple[str, int]]     # module-level mutable bindings
    mutated_globals: List[str]                 # names mutated from functions
    io_reads: List[Tuple[str, int, int]]       # (description, line, col)
    job_root: bool
    tagged_calls: List[TaggedCall]
    line_suppress: Dict[int, Optional[List[str]]]
    file_suppress: Optional[List[str]]
    suppression_comments: int

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """Mirror of :meth:`Module.is_suppressed` over the stored tables."""
        if self.file_suppress is None or rule_id in (self.file_suppress or ()):
            return True
        ids = self.line_suppress.get(line, ())
        return ids is None or rule_id in ids


# ------------------------------------------------------------- summarization
def _parent_map(tree: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _assign_pairs(node: ast.Assign) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """(target, value) pairs, expanding parallel tuple/list assignments."""
    for target in node.targets:
        if (isinstance(target, (ast.Tuple, ast.List))
                and isinstance(node.value, (ast.Tuple, ast.List))
                and len(target.elts) == len(node.value.elts)):
            yield from zip(target.elts, node.value.elts)
        else:
            yield target, node.value


def _is_setter_use(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    """True when *node* is the receiver of an ``X.succeed(...)``-style call."""
    parent = parents.get(id(node))
    if (isinstance(parent, ast.Attribute) and parent.value is node
            and parent.attr in EVENT_SETTERS):
        grand = parents.get(id(parent))
        return isinstance(grand, ast.Call) and grand.func is parent
    return False


def _is_bare_yield(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    parent = parents.get(id(node))
    return isinstance(parent, ast.Yield) and parent.value is node


def _resolve_imports(module: Module, module_name: str) -> List[str]:
    """Dotted import targets, relative imports resolved against *module_name*.

    Each ``from M import a`` contributes both ``M`` and ``M.a`` so the
    import graph can match whether ``a`` is a submodule or a symbol.
    """
    targets: Set[str] = set()
    parts = module_name.split(".") if module_name else []
    is_package = module.path.replace("\\", "/").endswith("__init__.py")
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                targets.add(name.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # level=1 from a plain module strips the module's own name;
                # from a package __init__ it is the package itself.
                keep = len(parts) - node.level + (1 if is_package else 0)
                if keep < 0:
                    continue
                base_parts = parts[:keep]
                if node.module:
                    base_parts = base_parts + node.module.split(".")
                base = ".".join(base_parts)
            if base:
                targets.add(base)
            for name in node.names:
                if name.name != "*" and base:
                    targets.add(f"{base}.{name.name}")
    return sorted(targets)


def _is_event_mint(module: Module, value: ast.AST) -> bool:
    """``sim.event()`` (any recognized receiver) or a bare ``Event(...)``."""
    if not isinstance(value, ast.Call):
        return False
    if module.factory_of(value) == "event":
        return True
    return isinstance(value.func, ast.Name) and value.func.id == "Event"


class _ScopeChains:
    """Maps every node to the chain of enclosing function scopes."""

    def __init__(self, module: Module):
        self._module = module

    def chain_ids(self, node: ast.AST) -> FrozenSet[int]:
        ids: List[int] = []
        scope = self._module.scope_of(node)
        while scope is not None:
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                ids.append(id(scope))
            scope = self._module.scope_parent_of(scope)
        return frozenset(ids)


def _collect_event_facts(
    module: Module, parents: Dict[int, ast.AST],
) -> Tuple[List[Tuple[str, int]], List[Tuple[str, int, int]], Set[str],
           List[Tuple[str, int, int]]]:
    """Event mints/waits/settables (attr) and resolved local deadlocks."""
    chains = _ScopeChains(module)
    mint_target_ids: Set[int] = set()
    attr_mints: List[Tuple[str, int]] = []
    attr_waits: List[Tuple[str, int, int]] = []
    attr_settable: Set[str] = set()
    # local (Name-keyed) facts: scope-id of the minting function matters.
    local_mints: List[Tuple[int, str, FrozenSet[int]]] = []  # (line, key, chain)
    local_waits: List[Tuple[str, int, int, FrozenSet[int]]] = []
    local_set: List[Tuple[str, FrozenSet[int]]] = []
    local_escape: List[Tuple[str, FrozenSet[int]]] = []

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            for target, value in _assign_pairs(node):
                if not _is_event_mint(module, value):
                    continue
                if isinstance(target, ast.Attribute):
                    mint_target_ids.add(id(target))
                    attr_mints.append((target.attr, target.lineno))
                elif isinstance(target, ast.Name):
                    mint_target_ids.add(id(target))
                    local_mints.append((target.lineno, target.id,
                                        chains.chain_ids(target)))
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None and _is_event_mint(module, node.value):
                target = node.target
                if isinstance(target, ast.Attribute):
                    mint_target_ids.add(id(target))
                    attr_mints.append((target.attr, target.lineno))
                elif isinstance(target, ast.Name):
                    mint_target_ids.add(id(target))
                    local_mints.append((target.lineno, target.id,
                                        chains.chain_ids(target)))

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute):
            key = node.attr
            if isinstance(node.ctx, ast.Load):
                if _is_setter_use(node, parents):
                    attr_settable.add(key)
                elif _is_bare_yield(node, parents):
                    attr_waits.append((key, node.lineno, node.col_offset + 1))
                else:
                    attr_settable.add(key)          # escape: assume settable
            elif id(node) not in mint_target_ids:
                attr_settable.add(key)              # rebind/del: escape
        elif isinstance(node, ast.Name):
            key = node.id
            chain = chains.chain_ids(node)
            if isinstance(node.ctx, ast.Load):
                if _is_setter_use(node, parents):
                    local_set.append((key, chain))
                elif _is_bare_yield(node, parents):
                    local_waits.append((key, node.lineno,
                                        node.col_offset + 1, chain))
                else:
                    local_escape.append((key, chain))
            elif id(node) not in mint_target_ids:
                local_escape.append((key, chain))

    deadlocks: List[Tuple[str, int, int]] = []
    seen: Set[Tuple[str, int]] = set()
    for _mint_line, key, mint_chain in local_mints:
        if not mint_chain:
            continue  # module-level mint: out of scope for the local rule
        waits = [(line, col) for (name, line, col, chain) in local_waits
                 if name == key and mint_chain <= chain]
        if not waits:
            continue
        if any(name == key and mint_chain <= chain
               for name, chain in local_set):
            continue
        if any(name == key and mint_chain <= chain
               for name, chain in local_escape):
            continue
        line, col = min(waits)
        if (key, line) not in seen:
            seen.add((key, line))
            deadlocks.append((key, line, col))
    return attr_mints, attr_waits, attr_settable, sorted(deadlocks)


def _collect_functions(module: Module) -> List[FunctionInfo]:
    infos: List[FunctionInfo] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        scope = module.scope_of(node)
        class_name = scope.name if isinstance(scope, ast.ClassDef) else None
        params = [a.arg for a in (node.args.posonlyargs + node.args.args
                                  + node.args.kwonlyargs)]
        is_gen = (isinstance(node, ast.FunctionDef)
                  and Module._is_generator(node))
        bare_waits: List[Tuple[str, int, int]] = []
        if is_gen:
            for sub in Module._walk_same_function(node):
                if not isinstance(sub, ast.Yield):
                    continue
                value = sub.value
                if isinstance(value, ast.Name):
                    bare_waits.append((value.id, value.lineno,
                                       value.col_offset + 1))
                elif isinstance(value, ast.Attribute):
                    bare_waits.append((value.attr, value.lineno,
                                       value.col_offset + 1))
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        infos.append(FunctionInfo(
            name=node.name, qualname=qualname, class_name=class_name,
            params=params, is_generator=is_gen, lineno=node.lineno,
            bare_waits=bare_waits))
    return infos


def _function_local_names(fn: ast.AST) -> Set[str]:
    """Names bound inside *fn* itself: params, assignments, loop targets."""
    names: Set[str] = set()
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = fn.args
        names.update(a.arg for a in args.posonlyargs + args.args
                     + args.kwonlyargs)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
    for node in Module._walk_same_function(fn):  # type: ignore[arg-type]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            names.difference_update(node.names)
    return names


def _collect_mutable_globals(
    module: Module,
) -> Tuple[List[Tuple[str, int]], List[str]]:
    """Module-level mutable bindings and the ones mutated from functions."""
    bindings: List[Tuple[str, int]] = []
    for node in module.tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                     ast.ListComp, ast.DictComp, ast.SetComp))
        if not mutable and isinstance(value, ast.Call):
            func = value.func
            tail = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            mutable = tail in _MUTABLE_FACTORIES
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                bindings.append((target.id, target.lineno))

    bound = {name for name, _line in bindings}
    mutated: Set[str] = set()
    for fn in ast.walk(module.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = _function_local_names(fn)
        declared_global: Set[str] = set()
        for node in Module._walk_same_function(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        # One-level aliases of module globals (``pool = _EVENT_POOL``):
        # a mutator call through the alias mutates the global just as
        # surely as a direct call — the freelist hot loops in
        # repro.sim.core bind exactly this way for speed.
        alias_of: Dict[str, str] = {}
        for node in Module._walk_same_function(fn):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in bound
                    and node.value.id not in local):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        alias_of[target.id] = node.value.id
        for node in Module._walk_same_function(fn):
            name: Optional[str] = None
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATOR_METHODS
                        and isinstance(func.value, ast.Name)):
                    name = alias_of.get(func.value.id, func.value.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)):
                        name = alias_of.get(target.value.id,
                                            target.value.id)
                    elif (isinstance(target, ast.Name)
                            and target.id in declared_global):
                        name = target.id
            if name and name in bound and (name in declared_global
                                           or name not in local):
                mutated.add(name)
    return bindings, sorted(mutated)


#: call shapes that read inputs outside the cache fingerprint (SIM009).
_IO_READ_CALLS = {
    "open": "open()",
    "io.open": "io.open()",
    "os.getenv": "os.getenv()",
    "os.environ.get": "os.environ.get()",
    "os.environb.get": "os.environb.get()",
}
_IO_READ_METHODS = frozenset({"read_text", "read_bytes"})


def _open_is_write(call: ast.Call) -> bool:
    """True when an ``open(...)`` call's mode literal is write-only."""
    mode: Optional[ast.AST] = call.args[1] if len(call.args) > 1 else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    return (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and any(c in mode.value for c in "wax")
            and "+" not in mode.value)


def _collect_io_reads(module: Module) -> List[Tuple[str, int, int]]:
    reads: List[Tuple[str, int, int]] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            desc = None
            dotted = module.dotted_path(node.func)
            if dotted in _IO_READ_CALLS:
                if dotted in ("open", "io.open") and _open_is_write(node):
                    continue
                desc = _IO_READ_CALLS[dotted]
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _IO_READ_METHODS):
                desc = f".{node.func.attr}()"
            if desc:
                reads.append((desc, node.lineno, node.col_offset + 1))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if module.dotted_path(node.value) == "os.environ":
                reads.append(("os.environ[...]", node.lineno,
                              node.col_offset + 1))
    return reads


def _arg_tag(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return unit_tag(node.id)
    if isinstance(node, ast.Attribute):
        return unit_tag(node.attr)
    return None


def _collect_tagged_calls(module: Module) -> List[TaggedCall]:
    calls: List[TaggedCall] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            kind, callee = "name", func.id
        elif isinstance(func, ast.Attribute):
            kind, callee = "attr", func.attr
        else:
            continue
        arg_tags = [_arg_tag(a) for a in node.args]
        kwarg_tags = [(kw.arg, _arg_tag(kw.value))
                      for kw in node.keywords if kw.arg]
        if not any(arg_tags) and not any(tag for _n, tag in kwarg_tags):
            continue
        calls.append(TaggedCall(
            callee_kind=kind, callee=callee,
            factory=module.factory_of(node), arg_tags=arg_tags,
            kwarg_tags=kwarg_tags, line=node.lineno,
            col=node.col_offset + 1))
    return calls


def _is_job_root(module: Module, module_name: str) -> bool:
    if module_name.endswith("bench.jobs"):
        return True
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "POINT_FUNCTIONS"
                   for t in node.targets):
                return True
        elif isinstance(node, ast.AnnAssign):
            if (isinstance(node.target, ast.Name)
                    and node.target.id == "POINT_FUNCTIONS"):
                return True
    return False


def summarize(module: Module, module_name: Optional[str] = None) -> ModuleSummary:
    """Extract the whole-program facts of one parsed module."""
    name = module_name if module_name is not None else module_name_for(module.path)
    parents = _parent_map(module.tree)
    attr_mints, attr_waits, attr_settable, local_deadlocks = (
        _collect_event_facts(module, parents))
    mutable_globals, mutated_globals = _collect_mutable_globals(module)
    return ModuleSummary(
        path=module.path,
        module=name,
        imports=_resolve_imports(module, name),
        functions=_collect_functions(module),
        attr_mints=sorted(set(attr_mints)),
        attr_waits=sorted(set(attr_waits)),
        attr_settable=sorted(attr_settable),
        local_deadlocks=local_deadlocks,
        mutable_globals=mutable_globals,
        mutated_globals=mutated_globals,
        io_reads=_collect_io_reads(module),
        job_root=_is_job_root(module, name),
        tagged_calls=_collect_tagged_calls(module),
        line_suppress={line: (None if ids is None else sorted(ids))
                       for line, ids in module.line_suppressions.items()},
        file_suppress=(None if module.file_suppressions is None
                       else sorted(module.file_suppressions)),
        suppression_comments=module.suppression_comments,
    )


# ------------------------------------------------------------------ program
class Program:
    """The project-wide view: symbol table, import graph, event-flow sets.

    Built purely from :class:`ModuleSummary` records — cheap enough to
    rebuild on every run; the expensive part is the per-file extraction.
    """

    def __init__(self, summaries: Sequence[ModuleSummary]):
        self.summaries: List[ModuleSummary] = sorted(
            summaries, key=lambda s: s.path)
        self.by_module: Dict[str, ModuleSummary] = {
            s.module: s for s in self.summaries}
        self.by_path: Dict[str, ModuleSummary] = {
            s.path: s for s in self.summaries}
        self._edges: Dict[str, Set[str]] = {}
        known = sorted(self.by_module)
        for summary in self.summaries:
            edges: Set[str] = set()
            for target in summary.imports:
                for other in known:
                    if other == summary.module:
                        continue
                    if target == other or target.startswith(other + "."):
                        edges.add(other)
            self._edges[summary.module] = edges
        # event-flow sets (attribute keys are program-global by design)
        self.minted_attr_keys: Set[str] = set()
        self.settable_attr_keys: Set[str] = set()
        for summary in self.summaries:
            self.minted_attr_keys.update(key for key, _line in summary.attr_mints)
            self.settable_attr_keys.update(summary.attr_settable)
        self._functions_by_name: Dict[str, List[FunctionInfo]] = {}
        for summary in self.summaries:
            for info in summary.functions:
                self._functions_by_name.setdefault(info.name, []).append(info)

    # ------------------------------------------------------------- queries
    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        """Transitive import closure of *roots* (roots included)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.by_module]
        while stack:
            module = stack.pop()
            if module in seen:
                continue
            seen.add(module)
            stack.extend(self._edges.get(module, ()))
        return seen

    def job_roots(self) -> List[str]:
        """Modules that define spawn-safe bench jobs (POINT_FUNCTIONS)."""
        return [s.module for s in self.summaries if s.job_root]

    def functions_named(self, name: str) -> List[FunctionInfo]:
        """Every function/method in the program with bare name *name*."""
        return self._functions_by_name.get(name, [])

    def mint_sites(self, key: str) -> List[Tuple[str, int]]:
        """(path, line) of every mint of attribute-key *key*."""
        return [(s.path, line) for s in self.summaries
                for k, line in s.attr_mints if k == key]
