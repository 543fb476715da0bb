"""Static analysis for the repro simulation codebase (*snacclint*).

The discrete-event kernel's correctness contract — integer-ns clock,
every minted event consumed, deterministic RNG, no hung waits, spawn-safe
job code, a result cache that fingerprints all its inputs — cannot be
expressed in Python's type system, so this package enforces it
mechanically.  Per-file rules (SIM001–SIM005) match one AST at a time;
whole-program rules (SIM006–SIM010) run on a project-wide pass built
from per-module summaries (:mod:`repro.analysis.program`), cached
incrementally by content hash (:mod:`repro.analysis.incremental`).
Run it as::

    python -m repro.analysis src tests examples scripts \
        [--format json] [--jobs N] [--baseline snacclint_baseline.json]

See :mod:`repro.analysis.engine` for the machinery and
:mod:`repro.analysis.rules` for the rule pack (SIM001–SIM010).
"""

from .engine import (
    Finding,
    Module,
    ProgramRule,
    Report,
    Rule,
    all_program_rules,
    all_rules,
    analyze_paths,
    analyze_paths_report,
    analyze_source,
    analyze_sources,
    iter_python_files,
    register,
    register_program,
    render_json,
    render_text,
)

__all__ = [
    "Finding",
    "Module",
    "ProgramRule",
    "Report",
    "Rule",
    "all_program_rules",
    "all_rules",
    "analyze_paths",
    "analyze_paths_report",
    "analyze_source",
    "analyze_sources",
    "iter_python_files",
    "register",
    "register_program",
    "render_json",
    "render_text",
]
