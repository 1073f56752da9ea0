"""Reporter tests: JSON schema pin and text summary shape."""

import json

from repro.analysis.core import Finding
from repro.analysis.report import (
    REPORT_VERSION,
    LintResult,
    render_json,
    render_text,
)


def _result(findings=(), **kw):
    base = dict(root="src/repro", rules=["determinism"], files=3,
                findings=list(findings))
    base.update(kw)
    return LintResult(**base)


def _finding(line=5):
    return Finding(rule="determinism", path="repro/sim/x.py",
                   line=line, col=2, message="boom")


class TestJsonReport:
    def test_schema(self):
        payload = json.loads(render_json(_result([_finding()], suppressed=1)))
        assert payload["version"] == REPORT_VERSION
        assert set(payload) == {"version", "root", "rules", "summary",
                                "findings"}
        assert payload["summary"] == {
            "files": 3, "findings": 1, "suppressed": 1,
        }
        [finding] = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message",
                                "fingerprint"}

    def test_findings_sorted_by_location(self):
        payload = json.loads(render_json(_result([_finding(9), _finding(2)])))
        assert [f["line"] for f in payload["findings"]] == [2, 9]


class TestTextReport:
    def test_clean_summary(self):
        text = render_text(_result())
        assert text == "0 findings across 3 module(s); 1 rule(s)"

    def test_findings_listed_before_summary(self):
        text = render_text(_result([_finding()], suppressed=2))
        lines = text.splitlines()
        assert lines[0] == "repro/sim/x.py:5:2: [determinism] boom"
        assert lines[-1].startswith("1 finding across 3 module(s)")
        assert lines[-1].endswith("(2 suppressed by allows)")

    def test_ok_property(self):
        assert _result().ok
        assert not _result([_finding()]).ok
