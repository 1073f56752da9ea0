"""Runner + CLI integration: suppressions end-to-end and the acceptance
gate that the committed tree lints clean."""

import json

from repro.analysis import run_lint
from repro.cli import main


def make_tree(tmp_path, body, relpath="repro/sim/bad.py"):
    """Materialise a throwaway package tree and return its root."""
    root = tmp_path / "repro"
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    current = tmp_path
    for part in target.parent.relative_to(tmp_path).parts:
        current = current / part
        init = current / "__init__.py"
        if not init.exists():
            init.write_text("")
    target.write_text(body)
    return root


VIOLATION = "import time\n\ndef tick():\n    return time.time()\n"


class TestCommittedTreeIsClean:
    def test_zero_findings(self):
        result = run_lint()
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )

    def test_cli_exit_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "0 findings" in capsys.readouterr().out


class TestSuppressions:
    def test_violation_fires(self, tmp_path):
        root = make_tree(tmp_path, VIOLATION)
        result = run_lint(root=root)
        assert [f.rule for f in result.findings] == ["determinism"]

    def test_inline_allow_suppresses(self, tmp_path):
        root = make_tree(
            tmp_path,
            "import time\n\ndef tick():\n"
            "    return time.time()  # repro: allow[determinism] test scaffold\n",
        )
        result = run_lint(root=root)
        assert result.findings == []
        assert result.suppressed == 1

    def test_standalone_allow_covers_next_line(self, tmp_path):
        root = make_tree(
            tmp_path,
            "import time\n\ndef tick():\n"
            "    # repro: allow[determinism] test scaffold\n"
            "    return time.time()\n",
        )
        result = run_lint(root=root)
        assert result.findings == []
        assert result.suppressed == 1

    def test_allow_without_reason_does_not_suppress(self, tmp_path):
        root = make_tree(
            tmp_path,
            "import time\n\ndef tick():\n"
            "    return time.time()  # repro: allow[determinism]\n",
        )
        result = run_lint(root=root)
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["determinism", "suppression"]
        assert any("no reason" in f.message for f in result.findings)

    def test_unknown_rule_id_reported(self, tmp_path):
        root = make_tree(
            tmp_path,
            "x = 1  # repro: allow[made-up-rule] because\n",
        )
        result = run_lint(root=root)
        assert [f.rule for f in result.findings] == ["suppression"]
        assert "unknown rule id" in result.findings[0].message

    def test_unused_allow_reported(self, tmp_path):
        root = make_tree(
            tmp_path,
            "x = 1  # repro: allow[determinism] nothing here anymore\n",
        )
        result = run_lint(root=root)
        assert [f.rule for f in result.findings] == ["suppression"]
        assert "unused allow" in result.findings[0].message

    def test_unused_allow_not_reported_on_partial_run(self, tmp_path):
        root = make_tree(
            tmp_path,
            "x = 1  # repro: allow[determinism] nothing here anymore\n",
        )
        result = run_lint(root=root, rule_ids=["async-hygiene"])
        assert result.findings == []

    def test_wrong_rule_allow_does_not_suppress(self, tmp_path):
        root = make_tree(
            tmp_path,
            "import time\n\ndef tick():\n"
            "    return time.time()  # repro: allow[async-hygiene] wrong id\n",
        )
        result = run_lint(root=root)
        assert "determinism" in [f.rule for f in result.findings]


class TestCli:
    def test_violation_exits_nonzero(self, tmp_path, capsys):
        root = make_tree(tmp_path, VIOLATION)
        assert main(["lint", "--root", str(root)]) == 1
        assert "[determinism]" in capsys.readouterr().out

    def test_json_output_parses(self, tmp_path, capsys):
        root = make_tree(tmp_path, VIOLATION)
        assert main(["lint", "--root", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["summary"]["findings"] == 1

    def test_rule_filter(self, tmp_path, capsys):
        root = make_tree(tmp_path, VIOLATION)
        assert main(["lint", "--root", str(root),
                     "--rule", "async-hygiene"]) == 0
        capsys.readouterr()

    def test_unknown_rule_flag(self, capsys):
        assert main(["lint", "--rule", "nope"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("determinism", "unit-discipline", "observer-purity",
                        "kernel-parity", "async-hygiene"):
            assert rule_id in out
