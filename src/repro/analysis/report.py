"""Reporters for lint results: human text and machine JSON.

The JSON document is a stable, versioned schema (pinned by
``tests/analysis/test_report.py``) so CI can render findings into job
summaries and external tooling can diff runs::

    {"version": 2, "root": "...", "rules": [...],
     "summary": {"files": N, "findings": N, "suppressed": N},
     "findings": [{"rule", "path", "line", "col", "message",
                   "fingerprint"}, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.analysis.core import Finding

REPORT_VERSION = 2


@dataclass
class LintResult:
    """Outcome of one lint run."""

    root: str
    rules: list[str]
    findings: list[Finding]
    files: int
    suppressed: int = 0
    #: Allow comments honoured this run, for the text report's footer.
    suppressions_seen: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def sorted_findings(self) -> list[Finding]:
        return sorted(self.findings, key=Finding.sort_key)


def render_text(result: LintResult) -> str:
    """Grouped ``path:line:col: [rule] message`` listing plus a summary."""
    lines: list[str] = []
    for finding in result.sorted_findings():
        lines.append(finding.render())
    if lines:
        lines.append("")
    count = len(result.findings)
    noun = "finding" if count == 1 else "findings"
    summary = (
        f"{count} {noun} across {result.files} module(s); "
        f"{len(result.rules)} rule(s)"
    )
    if result.suppressed:
        summary += f" ({result.suppressed} suppressed by allows)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "version": REPORT_VERSION,
        "root": result.root,
        "rules": list(result.rules),
        "summary": {
            "files": result.files,
            "findings": len(result.findings),
            "suppressed": result.suppressed,
        },
        "findings": [finding.as_dict() for finding in result.sorted_findings()],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
