"""Self-gate: the repo's own tree must be snacclint-clean.

Runs the analyzer in-process over the same paths CI uses
(``src tests examples scripts``) and asserts zero findings and
zero parse errors, so a plain ``pytest`` run enforces the gate without any
extra tooling.
"""

from pathlib import Path

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
GATED_PATHS = ["src", "tests", "examples", "scripts"]


def test_repo_tree_is_snacclint_clean():
    paths = [str(REPO_ROOT / p) for p in GATED_PATHS if (REPO_ROOT / p).exists()]
    assert paths, f"no gated paths found under {REPO_ROOT}"
    report = analyze_paths(paths)
    errors, findings = report.errors, report.findings
    assert errors == [], "analyzer failed to parse repo files:\n" + "\n".join(errors)
    pretty = "\n".join(f.format() for f in findings)
    assert findings == [], f"snacclint findings in repo tree:\n{pretty}"
    count = report.files_analyzed
    assert count > 100, f"suspiciously few files analyzed: {count}"
