"""Static analysis for the repro simulation codebase (*snacclint*).

The discrete-event kernel's correctness contract — every minted event
consumed, every process registered, deterministic RNG, no hung waits,
spawn-safe job code, a result cache that fingerprints all its inputs, no
live threads or open files at a fork point — cannot be expressed in
Python's type system, and the kernel cannot check it at runtime, so this
package enforces it mechanically.  (The integer-ns clock and the
yield-an-Event rule are the kernel's own runtime checks.)  Per-file rules
(SIM001, SIM002, SIM004, SIM011) match one AST at a time; whole-program
rules (SIM006–SIM010) run on a project-wide pass built from per-module
summaries (:mod:`repro.analysis.program`).  Run it as::

    python -m repro.analysis src tests examples scripts \
        [--format json] [--jobs N] [--baseline snacclint_baseline.json]

See :mod:`repro.analysis.engine` for the machinery and
:mod:`repro.analysis.rules` for the rule pack.
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
    "analyze_source",
    "analyze_sources",
    "iter_python_files",
    "register",
    "register_program",
    "render_json",
    "render_text",
]
