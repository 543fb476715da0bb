"""Whole-program layer: per-module summaries and the import graph.

The per-file rules (SIM001, SIM002, SIM004, SIM011) see one AST at a
time; the hazards that bite across modules — bench jobs silently sharing
a module-level dict across pool workers, job code reading inputs the
result cache never fingerprints — are only visible to a pass that sees
the *project*.

The design splits that pass in two so the per-file half fans out over
worker processes (``--jobs``):

``summarize``
    extracts a :class:`ModuleSummary` from one parsed
    :class:`~repro.analysis.engine.Module`.  A summary is a plain,
    picklable record of everything the whole-program rules need to know
    about the file — resolved imports, module-level mutable state, and
    IO-read sites.  Summaries depend only on the file's own text.

:class:`Program`
    combines the summaries of every analyzed file into the import graph
    (absolute *and* relative imports resolved against derived dotted
    module names) that the SIM008 and SIM009 rules query.  Building it
    from summaries is O(project) string work — no re-parsing.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import Module

__all__ = [
    "ModuleSummary",
    "Program",
    "summarize",
    "module_name_for",
]

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
class ModuleSummary:
    """Everything the whole-program rules need to know about one file.

    Plain data, so a worker process can hand it back to the driver.
    """

    path: str
    module: str
    imports: List[str]
    mutable_globals: List[Tuple[str, int]]     # module-level mutable bindings
    mutated_globals: List[str]                 # names mutated from functions
    io_reads: List[Tuple[str, int, int]]       # (description, line, col)
    job_root: bool
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
    mutable_globals, mutated_globals = _collect_mutable_globals(module)
    return ModuleSummary(
        path=module.path,
        module=name,
        imports=_resolve_imports(module, name),
        mutable_globals=mutable_globals,
        mutated_globals=mutated_globals,
        io_reads=_collect_io_reads(module),
        job_root=_is_job_root(module, name),
        line_suppress={line: (None if ids is None else sorted(ids))
                       for line, ids in module.line_suppressions.items()},
        file_suppress=(None if module.file_suppressions is None
                       else sorted(module.file_suppressions)),
        suppression_comments=module.suppression_comments,
    )


# ------------------------------------------------------------------ program
class Program:
    """The project-wide view: the import graph over every summary.

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
