"""Cross-boundary unit-confusion rule: SIM010.

The kernel rejects a ``float`` reaching the integer-ns clock at runtime.
The units bugs that survive it cross a call boundary with the *right
type* and the *wrong unit*: a byte count handed to ``sim.timeout``, an
ns value passed where a function expects bytes.
The tree already encodes units in names (``_ns`` / ``_bytes`` /
``_cycles`` suffixes, ``nbytes`` — the convention ``repro.units``
documents), so the checker infers tagged ints from names and checks them
against callee signatures program-wide.

Two checks, in decreasing order of confidence:

* **keyword** — ``f(delay_ns=chunk_bytes)`` needs no symbol resolution at
  all: the keyword name and the argument name each carry a tag, and they
  disagree.
* **positional** — the callee is resolved through the program symbol
  table; the check only fires when *every* function of that name in the
  program agrees on the parameter's tag (plus intrinsics for the sim
  factories and ``repro.units`` helpers).  Ambiguity silences the rule:
  a false positive here would break the gate.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..engine import Finding, ProgramRule, register_program
from ..program import INTRINSIC_PARAM_TAGS, TaggedCall, unit_tag

__all__ = ["UnitConfusion"]


def _param_tag_vector(info, drop_self: bool) -> Tuple[Optional[str], ...]:
    params = list(info.params)
    if drop_self and params and params[0] in ("self", "cls"):
        params = params[1:]
    return tuple(unit_tag(p) for p in params)


def _resolved_param_tags(program, call: TaggedCall) -> Optional[
        Tuple[Tuple[Optional[str], ...], str]]:
    """(param tag vector, callee description) if resolvable unambiguously."""
    if call.factory == "timeout":
        return ("ns",), "sim.timeout"
    if call.factory is not None:
        return None  # other factories take events, not tagged ints
    intrinsic = INTRINSIC_PARAM_TAGS.get(call.callee)
    if intrinsic is not None:
        return intrinsic, call.callee
    candidates = program.functions_named(call.callee)
    if not candidates:
        return None
    vectors = {
        _param_tag_vector(info, drop_self=info.class_name is not None)
        for info in candidates
    }
    if len(vectors) != 1:
        return None  # ambiguous symbol — stay quiet
    return next(iter(vectors)), call.callee


@register_program
class UnitConfusion(ProgramRule):
    """SIM010: a tagged int crosses a call boundary into the wrong unit."""

    id = "SIM010"
    title = "unit confusion across a call boundary"
    hazard = ("bytes/ns/cycles are all ints; passing one where the callee "
              "expects another skews every derived figure with no crash")

    def check_program(self, program) -> Iterator[Finding]:
        for summary in program.summaries:
            for call in summary.tagged_calls:
                yield from self._check_call(program, summary.path, call)

    def _check_call(self, program, path: str,
                    call: TaggedCall) -> Iterator[Finding]:
        findings: List[Finding] = []
        for kw_name, value_tag in call.kwarg_tags:
            expected = unit_tag(kw_name)
            if expected and value_tag and expected != value_tag:
                findings.append(self.finding_at(
                    path, call.line, call.col,
                    f"keyword '{kw_name}' of {call.callee}() expects "
                    f"'{expected}' but the argument carries '{value_tag}'"))
        resolved = _resolved_param_tags(program, call)
        if resolved is not None:
            tags, desc = resolved
            for index, arg_tag in enumerate(call.arg_tags):
                expected = tags[index] if index < len(tags) else None
                if expected and arg_tag and expected != arg_tag:
                    findings.append(self.finding_at(
                        path, call.line, call.col,
                        f"argument {index + 1} of {desc}() expects "
                        f"'{expected}' but the argument carries "
                        f"'{arg_tag}'"))
        yield from findings
