"""snacclint engine: AST-based static analysis for simulation hazards.

The discrete-event kernel (:mod:`repro.sim.core`) has a correctness contract
that Python cannot enforce at definition time, and that the kernel itself
does not check at runtime (it does reject a float delay or ``until`` and a
process yielding a non-Event, so no rule duplicates those):

* every :class:`~repro.sim.core.Event` minted by a factory
  (``sim.timeout`` / ``sim.event`` / ``sim.process`` / ``sim.all_of`` /
  ``sim.any_of``) must be yielded, bound, or passed on — a discarded
  ``sim.timeout(...)`` still schedules, so the bug is silent;
* processes are generators registered via ``sim.process(...)`` — a bare
  generator call does nothing;
* runs must be deterministic — wall-clock reads and unseeded RNGs are
  forbidden inside the model.

This module provides the machinery shared by every rule: per-module AST
context (scope, alias, and import tracking), the rule registry, suppression
comments, reporters, and the path-walking driver.  The rules themselves live
in :mod:`repro.analysis.rules`.

Suppressions
------------
A comment on the *reported statement* disables rules for that statement::

    t0 = time.time()  # snacclint: disable=SIM004

``# snacclint: disable`` (no ``=RULE`` list) disables every rule for the
statement.  The comment may sit on any physical line of a multi-line
statement — it covers the whole logical line.  A standalone
``# snacclint: disable-file=SIM004`` comment anywhere in a file disables
the listed rules (or all, if bare) for the whole file.  Unknown rule ids
in a disable list are inert (they suppress nothing and harm nothing), so
suppressions survive rule renames without crashing the gate.

Whole-program rules
-------------------
Rules subclassing :class:`ProgramRule` run once per *analysis*, not once
per file: they receive a :class:`~repro.analysis.program.Program` built
from every analyzed module and can chase facts across imports (deadlocks,
spawn-safety, cache-soundness).  ``analyze_paths`` runs both passes;
``analyze_source`` stays per-file so single-snippet callers see exactly
the per-file rule set.

Exit codes (CLI): 0 — clean, 1 — findings, 2 — usage or parse errors.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import tokenize
from io import StringIO
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "Report",
    "Rule",
    "ProgramRule",
    "Module",
    "register",
    "register_program",
    "all_rules",
    "all_program_rules",
    "analyze_source",
    "analyze_sources",
    "analyze_paths",
    "iter_python_files",
    "render_text",
    "render_json",
    "SIM_FACTORIES",
    "SIM_RECEIVER_NAMES",
]

#: Simulator methods that mint events.
SIM_FACTORIES = frozenset({"timeout", "event", "process", "all_of", "any_of"})

#: Names (variable or attribute) treated as "a Simulator instance".
SIM_RECEIVER_NAMES = frozenset(
    {"sim", "_sim", "simulator", "_simulator", "env", "_env", "environment"})

#: Directory names skipped while *walking* (explicit file arguments are
#: always analyzed — this is how the deliberately-hazardous rule fixtures
#: under ``tests/analysis/fixtures/`` stay out of the self-gate).
DEFAULT_EXCLUDED_DIRS = frozenset({"fixtures", "__pycache__", ".git", ".venv", "build", "dist"})

_SUPPRESS_RE = re.compile(
    r"#\s*snacclint:\s*(?P<kind>disable(?:-file)?)"
    r"(?:\s*=\s*(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*))?")

_SCOPE_TYPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """``path:line:col: RULE message`` — the text-reporter line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-reporter shape."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


class Rule:
    """Base class for snacclint rules.

    Subclasses set :attr:`id` / :attr:`title` / :attr:`hazard` and implement
    :meth:`check`, yielding findings.  Suppression filtering happens in the
    engine — rules report everything they see.
    """

    id: str = ""
    title: str = ""
    #: one-line description of why the pattern breaks the simulation
    hazard: str = ""

    def check(self, module: "Module") -> Iterator[Finding]:
        """Yield every violation of this rule found in *module*."""
        raise NotImplementedError

    def finding(self, module: "Module", node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at *node*."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            message=message,
        )


class ProgramRule(Rule):
    """Base class for whole-program rules (SIM006+).

    Subclasses implement :meth:`check_program` against the
    :class:`~repro.analysis.program.Program` built from every analyzed
    module.  Suppression filtering still happens in the engine, using the
    suppression tables each module summary carries.
    """

    def check(self, module: "Module") -> Iterator[Finding]:  # pragma: no cover
        return iter(())

    def check_program(self, program) -> Iterator[Finding]:
        """Yield every violation of this rule found in *program*."""
        raise NotImplementedError

    def finding_at(self, path: str, line: int, col: int, message: str) -> Finding:
        """Build a finding at an explicit location (no AST node in hand)."""
        return Finding(path=path, line=line, col=col, rule_id=self.id,
                       message=message)


_REGISTRY: Dict[str, Rule] = {}
_PROGRAM_REGISTRY: Dict[str, ProgramRule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule (by its ``id``) to the global registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY or rule.id in _PROGRAM_REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def register_program(cls: Type[ProgramRule]) -> Type[ProgramRule]:
    """Class decorator adding a whole-program rule to the program registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY or rule.id in _PROGRAM_REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _PROGRAM_REGISTRY[rule.id] = rule
    return cls


def all_rules() -> Dict[str, Rule]:
    """The registered per-file rules, keyed by id (lazy rule-pack import)."""
    # Imported here so `engine` stays import-cycle free: rules import engine.
    from . import rules as _rules  # noqa: F401  (import populates registry)
    return dict(_REGISTRY)


def all_program_rules() -> Dict[str, ProgramRule]:
    """The registered whole-program rules, keyed by id."""
    from . import rules as _rules  # noqa: F401  (import populates registry)
    return dict(_PROGRAM_REGISTRY)


class Module:
    """Parsed source file plus the semantic context rules query.

    Construction raises :class:`SyntaxError` if the source does not parse;
    the driver turns that into an exit-code-2 error entry.
    """

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        #: line -> rule-ids suppressed there (None = all rules)
        self._line_suppress: Dict[int, Optional[Set[str]]] = {}
        #: file-wide suppressions (None = every rule)
        self._file_suppress: Optional[Set[str]] = set()
        #: how many ``snacclint: disable`` comments the file carries
        #: (the suppression-debt metric the baseline ratchet tracks)
        self.suppression_comments: int = 0
        self._collect_suppressions()

        #: id(node) -> enclosing scope node
        self._scope: Dict[int, ast.AST] = {}
        #: id(scope) -> its enclosing scope
        self._scope_parent: Dict[int, ast.AST] = {}
        #: id(scope) -> {alias name -> sim factory name}
        self._factory_aliases: Dict[int, Dict[str, str]] = {}
        #: id(scope) -> names bound to a Simulator instance
        self._sim_names: Dict[int, Set[str]] = {}
        #: local name -> dotted module/object path (import tracking)
        self._imports: Dict[str, str] = {}
        #: function/method name -> FunctionDef for every generator function
        self._generator_functions: Dict[str, ast.FunctionDef] = {}
        self._build_context()

    # -- construction ---------------------------------------------------------
    def _collect_suppressions(self) -> None:
        """Index suppression comments, mapped to whole *logical* lines.

        tokenize distinguishes ``NEWLINE`` (logical-line end) from ``NL``
        (blank/comment-only physical line, or a line break inside open
        brackets).  Tracking the first content token since the last
        ``NEWLINE`` gives the logical line's span, so a disable comment on
        any physical line of a multi-line statement suppresses the whole
        statement — findings anchor to the statement's first line while the
        comment often fits best on its last.
        """
        try:
            tokens = list(tokenize.generate_tokens(StringIO(self.source).readline))
        except tokenize.TokenizeError:  # pragma: no cover - parse already ok
            return
        _skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                 tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
                 tokenize.ENDMARKER)
        depth = 0
        logical_start: Optional[int] = None
        pending: List[Tuple[int, Optional[Set[str]]]] = []
        for tok in tokens:
            ttype = tok.type
            if ttype == tokenize.OP:
                if tok.string in "([{":
                    depth += 1
                elif tok.string in ")]}":
                    depth -= 1
            if ttype == tokenize.COMMENT:
                match = _SUPPRESS_RE.search(tok.string)
                if match is None:
                    continue
                self.suppression_comments += 1
                rules = match.group("rules")
                ids = {r.strip() for r in rules.split(",")} if rules else None
                if match.group("kind") == "disable-file":
                    if ids is None or self._file_suppress is None:
                        self._file_suppress = None
                    else:
                        self._file_suppress.update(ids)
                else:
                    pending.append((tok.start[0], ids))
            elif ttype == tokenize.NEWLINE:
                end = tok.start[0]
                start = logical_start if logical_start is not None else end
                for _line, ids in pending:
                    for line in range(start, end + 1):
                        self._suppress_line(line, ids)
                pending.clear()
                logical_start = None
            elif ttype == tokenize.NL:
                if depth == 0 and logical_start is None:
                    # standalone comment/blank line: applies to itself only
                    for line, ids in pending:
                        self._suppress_line(line, ids)
                    pending.clear()
            elif ttype not in _skip and logical_start is None:
                logical_start = tok.start[0]
        for line, ids in pending:  # trailing comment with no final NEWLINE
            self._suppress_line(line, ids)

    def _suppress_line(self, line: int, ids: Optional[Set[str]]) -> None:
        existing = self._line_suppress.get(line, set())
        if ids is None or existing is None:
            self._line_suppress[line] = None
        else:
            existing = set(existing)
            existing.update(ids)
            self._line_suppress[line] = existing

    def _build_context(self) -> None:
        self._index_scopes(self.tree, self.tree)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    self._imports[name.asname or name.name.split(".")[0]] = (
                        name.name if name.asname else name.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for name in node.names:
                    self._imports[name.asname or name.name] = f"{node.module}.{name.name}"
            elif isinstance(node, ast.FunctionDef) and self._is_generator(node):
                self._generator_functions.setdefault(node.name, node)
            elif isinstance(node, ast.Assign):
                self._record_assignment(node)

    def _index_scopes(self, node: ast.AST, scope: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._scope[id(child)] = scope
            if isinstance(child, _SCOPE_TYPES):
                self._scope_parent[id(child)] = scope
                self._index_scopes(child, child)
            else:
                self._index_scopes(child, scope)

    @staticmethod
    def _is_generator(fn: ast.FunctionDef) -> bool:
        """True if *fn* itself yields (nested defs don't count)."""
        return any(
            isinstance(n, (ast.Yield, ast.YieldFrom))
            for n in Module._walk_same_function(fn))

    @staticmethod
    def _walk_same_function(fn: ast.FunctionDef) -> Iterator[ast.AST]:
        """Walk *fn*'s body without descending into nested function defs."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _record_assignment(self, node: ast.Assign) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        name = node.targets[0].id
        scope = self._scope.get(id(node), self.tree)
        value = node.value
        # ``t = sim.timeout`` — factory alias.
        if (isinstance(value, ast.Attribute) and value.attr in SIM_FACTORIES
                and self.is_sim_expr(value.value, scope)):
            self._factory_aliases.setdefault(id(scope), {})[name] = value.attr
        # ``s = Simulator()`` or ``s = sim`` — simulator alias.
        elif self.is_sim_expr(value, scope):
            self._sim_names.setdefault(id(scope), set()).add(name)

    # -- queries ---------------------------------------------------------------
    @property
    def generator_functions(self) -> Dict[str, ast.FunctionDef]:
        """Every generator function/method defined in this module, by name."""
        return self._generator_functions

    @property
    def line_suppressions(self) -> Dict[int, Optional[Set[str]]]:
        """line -> suppressed rule ids (None = all); logical-line expanded."""
        return self._line_suppress

    @property
    def file_suppressions(self) -> Optional[Set[str]]:
        """File-wide suppressed rule ids (None = every rule suppressed)."""
        return self._file_suppress

    def scope_of(self, node: ast.AST) -> ast.AST:
        """The function/class/module scope enclosing *node*."""
        return self._scope.get(id(node), self.tree)

    def scope_parent_of(self, scope: ast.AST) -> Optional[ast.AST]:
        """The scope enclosing *scope* (None at module level)."""
        return self._scope_parent.get(id(scope))

    def _scope_chain(self, scope: ast.AST) -> Iterator[ast.AST]:
        current: Optional[ast.AST] = scope
        while current is not None:
            yield current
            current = self._scope_parent.get(id(current))

    def is_sim_expr(self, node: ast.AST, scope: Optional[ast.AST] = None) -> bool:
        """Heuristic: does *node* evaluate to a Simulator instance?"""
        if isinstance(node, ast.Name):
            if node.id in SIM_RECEIVER_NAMES:
                return True
            scope = scope if scope is not None else self.scope_of(node)
            return any(node.id in self._sim_names.get(id(s), ())
                       for s in self._scope_chain(scope))
        if isinstance(node, ast.Attribute):
            return node.attr in SIM_RECEIVER_NAMES
        if isinstance(node, ast.Call):
            func = node.func
            tail = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            return tail == "Simulator"
        return False

    def factory_of(self, call: ast.Call) -> Optional[str]:
        """Which sim event factory *call* invokes, if any.

        Resolves both direct calls (``sim.timeout(5)``, ``self.sim.process(g)``)
        and aliases recorded in the enclosing scopes (``t = sim.timeout; t(5)``).
        """
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in SIM_FACTORIES:
            if self.is_sim_expr(func.value, self.scope_of(call)):
                return func.attr
        if isinstance(func, ast.Name):
            for scope in self._scope_chain(self.scope_of(call)):
                factory = self._factory_aliases.get(id(scope), {}).get(func.id)
                if factory is not None:
                    return factory
        return None

    def dotted_path(self, node: ast.AST) -> Optional[str]:
        """Dotted path of a Name/Attribute chain, import aliases expanded.

        ``np.random.default_rng`` (after ``import numpy as np``) becomes
        ``numpy.random.default_rng``; ``from time import time`` makes a bare
        ``time(...)`` call resolve to ``time.time``.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self._imports.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def walk(self, *types: type) -> Iterator[ast.AST]:
        """All nodes of the given AST types."""
        for node in ast.walk(self.tree):
            if isinstance(node, types):
                yield node

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """True if findings of *rule_id* on *line* are suppressed."""
        if self._file_suppress is None or rule_id in (self._file_suppress or ()):
            return True
        ids = self._line_suppress.get(line, frozenset())
        return ids is None or rule_id in ids


# -- driver --------------------------------------------------------------------

@dataclasses.dataclass
class Report:
    """Everything one analysis run produced (the CLI/JSON-v2 payload)."""

    findings: List[Finding]
    errors: List[str]
    files_analyzed: int
    #: findings dropped by ``snacclint: disable`` comments (both passes)
    suppressed_findings: int = 0
    #: total ``snacclint: disable`` comments seen — the ratchet metric
    suppression_comments: int = 0


def _split_selection(
    select: Optional[Iterable[str]],
    ignore: Optional[Iterable[str]],
) -> Tuple[List[str], List[str]]:
    """Validated (per-file ids, program ids) for a select/ignore pair."""
    per_file = all_rules()
    program = all_program_rules()
    known = set(per_file) | set(program)
    selected = set(select) if select is not None else set(known)
    if ignore:
        selected -= set(ignore)
    unknown = selected - known
    if unknown:
        raise ValueError(f"unknown rule ids: {sorted(unknown)}")
    return (sorted(selected & set(per_file)),
            sorted(selected & set(program)))


def analyze_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the per-file rule pack over one source string (sorted findings).

    *select*/*ignore* restrict the rule set by id (whole-program ids are
    accepted but produce nothing here — a single snippet has no program).
    Raises :class:`SyntaxError` if the source does not parse.
    """
    per_file_ids, _program_ids = _split_selection(select, ignore)
    module = Module(path, source)
    kept, _suppressed = _run_file_rules(module, per_file_ids)
    return kept


def _run_file_rules(
    module: Module, per_file_ids: Sequence[str],
) -> Tuple[List[Finding], int]:
    """(kept findings, suppressed count) for the per-file pass."""
    rules = all_rules()
    raw = [f for rule_id in per_file_ids for f in rules[rule_id].check(module)]
    kept = sorted(f for f in raw
                  if not module.is_suppressed(f.line, f.rule_id))
    return kept, len(raw) - len(kept)


def _analyze_module(path: str, source: str, per_file_ids: Sequence[str]):
    """One file's full extraction: per-file findings + program summary."""
    from .program import summarize  # local import: program imports engine

    module = Module(path, source)
    kept, suppressed = _run_file_rules(module, per_file_ids)
    return kept, suppressed, summarize(module)


def _pool_worker(args: Tuple[str, Tuple[str, ...]]):
    """Process-pool entry point: analyze one file, return picklable results.

    Errors come back as strings so a parse failure in one worker doesn't
    poison the pool.
    """
    path, per_file_ids = args
    try:
        source = Path(path).read_text(encoding="utf-8")
        kept, suppressed, summary = _analyze_module(path, source, per_file_ids)
        return (kept, suppressed, summary, None)
    except SyntaxError as exc:
        return ([], 0, None, f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}")
    except OSError as exc:
        return ([], 0, None, f"{path}: {exc}")


def _run_program_rules(
    summaries: Sequence["object"], program_ids: Sequence[str],
) -> Tuple[List[Finding], int]:
    """(kept findings, suppressed count) for the whole-program pass."""
    from .program import Program

    program = Program(summaries)
    rules = all_program_rules()
    kept: List[Finding] = []
    suppressed = 0
    for rule_id in program_ids:
        for finding in rules[rule_id].check_program(program):
            summary = program.by_path.get(finding.path)
            if summary is not None and summary.is_suppressed(
                    finding.line, finding.rule_id):
                suppressed += 1
            else:
                kept.append(finding)
    return sorted(kept), suppressed


def analyze_sources(
    files: Dict[str, str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Analyze an in-memory multi-file project (both passes, no IO).

    *files* maps paths to source text.  This is the unit-test surface for
    the whole-program rules: cross-module fixtures stay inline with the
    test that explains them.
    """
    per_file_ids, program_ids = _split_selection(select, ignore)
    findings: List[Finding] = []
    summaries = []
    for path in sorted(files):
        kept, _suppressed, summary = _analyze_module(
            path, files[path], per_file_ids)
        findings.extend(kept)
        summaries.append(summary)
    prog_findings, _suppressed = _run_program_rules(summaries, program_ids)
    findings.extend(prog_findings)
    return sorted(findings)


def iter_python_files(
    paths: Sequence[str],
    excluded_dirs: FrozenSet[str] = DEFAULT_EXCLUDED_DIRS,
) -> Iterator[Path]:
    """Yield the ``.py`` files named by *paths* (files kept, dirs walked).

    Directory walks skip :data:`DEFAULT_EXCLUDED_DIRS` components; explicit
    file arguments are always yielded, which is how the hazard fixtures are
    analyzed on demand but never by the tree-wide gate.
    """
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path not in seen:
                seen.add(path)
                yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if any(part in excluded_dirs for part in sub.parts):
                    continue
                if sub not in seen:
                    seen.add(sub)
                    yield sub
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")


def analyze_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    jobs: int = 1,
) -> Report:
    """Full analysis of *paths*: per-file pass, then whole-program pass.

    *jobs* > 1 fans the per-file pass out over a process pool; results are
    merged in path order so the output is byte-identical to a serial run.
    Parse/IO failures land in ``Report.errors`` (CLI exit code 2).
    """
    per_file_ids, program_ids = _split_selection(select, ignore)
    try:
        files = [str(f) for f in iter_python_files(paths)]
    except FileNotFoundError as exc:
        return Report(findings=[], errors=[str(exc)], files_analyzed=0)

    work = [(path, tuple(per_file_ids)) for path in files]
    if jobs > 1 and len(files) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_pool_worker, work))
    else:
        results = [_pool_worker(item) for item in work]

    # pool.map keeps input order, so the merge is path-ordered either way.
    findings: List[Finding] = []
    errors: List[str] = []
    summaries = []
    suppressed = 0
    for kept, file_suppressed, summary, error in results:
        if error is not None:
            errors.append(error)
            continue
        findings.extend(kept)
        summaries.append(summary)
        suppressed += file_suppressed

    prog_findings, prog_suppressed = _run_program_rules(summaries, program_ids)
    findings.extend(prog_findings)
    return Report(
        findings=sorted(findings),
        errors=errors,
        files_analyzed=len(files),
        suppressed_findings=suppressed + prog_suppressed,
        suppression_comments=sum(s.suppression_comments for s in summaries),
    )


# -- reporters -------------------------------------------------------------------

def render_text(findings: Sequence[Finding], files_analyzed: int) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [f.format() for f in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"snacclint: {len(findings)} {noun} in {files_analyzed} files")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    files_analyzed: int,
    report: Optional[Report] = None,
) -> str:
    """Machine-readable report (stable shape, see README).

    Version 2 adds the suppression-debt counters (``suppressed_findings``,
    ``suppression_comments``) when a full :class:`Report` is available;
    the v1 keys are unchanged.
    """
    doc: Dict[str, object] = {
        "version": 2,
        "files_analyzed": files_analyzed,
        "count": len(findings),
        "findings": [f.as_dict() for f in findings],
    }
    if report is not None:
        doc["suppressed_findings"] = report.suppressed_findings
        doc["suppression_comments"] = report.suppression_comments
    return json.dumps(doc, indent=2)
