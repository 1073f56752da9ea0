"""Domain-aware static analysis for the reproduction's own sources.

``repro.analysis`` lints the simulator with rules that encode *this
project's* invariants — determinism of the tick kernel, unit-suffix
discipline, observer purity, scalar↔fleet kernel parity, and async
hygiene in the serve layer — none of which a generic linter can check.
Run it via ``repro lint``; see ``docs/analysis.md`` for the rule
catalogue and the suppression workflow.
"""

from repro.analysis.core import (
    Allow,
    Finding,
    ImportMap,
    ModuleSource,
    Project,
    Rule,
    parse_allows,
)
from repro.analysis.registry import (
    make_rule,
    make_rules,
    register_rule,
    rule_names,
)
from repro.analysis.report import LintResult, render_json, render_text
from repro.analysis.runner import build_project, default_root, run_lint

__all__ = [
    "Allow",
    "Finding",
    "ImportMap",
    "LintResult",
    "ModuleSource",
    "Project",
    "Rule",
    "build_project",
    "default_root",
    "make_rule",
    "make_rules",
    "parse_allows",
    "register_rule",
    "render_json",
    "render_text",
    "rule_names",
    "run_lint",
]
