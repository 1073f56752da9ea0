"""Lint driver: walk the source tree, run rules, apply suppressions.

The runner is the composition root of the analysis suite: it builds a
:class:`~repro.analysis.core.Project` from the installed ``repro``
package (or any directory handed to it), instantiates the requested
rules from the registry, folds inline ``# repro: allow[...]``
suppressions into the raw findings, and returns a
:class:`~repro.analysis.report.LintResult` for the reporters.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.analysis.core import (
    SUPPRESSION_RULE,
    Finding,
    ModuleSource,
    Project,
    Rule,
)
from repro.analysis.registry import make_rules, rule_names
from repro.analysis.report import LintResult


def default_root() -> Path:
    """The installed ``repro`` package directory (the default scan root)."""
    import repro

    return Path(repro.__file__).parent


def iter_sources(root: Path) -> list[ModuleSource]:
    """Load every ``.py`` file under ``root`` as a ModuleSource.

    Dotted module names are derived from the path relative to ``root``'s
    parent, so a checkout's ``src/repro`` scan yields ``repro.sim.engine``
    etc.  Display paths are likewise parent-relative, keeping findings
    stable across checkout locations.
    """
    root = Path(root).resolve()
    base = root.parent
    sources: list[ModuleSource] = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        relative = path.relative_to(base)
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        display = relative.as_posix()
        sources.append(ModuleSource.from_path(path, module, display))
    return sources


def build_project(root: Path | None = None) -> Project:
    return Project(iter_sources(root if root is not None else default_root()))


def lint_project(
    project: Project,
    rules: Sequence[Rule],
    all_rules_selected: bool = True,
) -> tuple[list[Finding], int]:
    """Run ``rules`` over ``project``; returns (findings, suppressed).

    Suppression resolution: a finding is dropped when an allow comment
    covering its rule sits on the finding's line (inline) or on the line
    directly above (standalone comment).  Afterwards, malformed and
    unused allows are reported under the ``suppression`` rule — unused
    ones only when the full rule set ran, since a partial ``--rule`` run
    cannot tell whether another rule still needs the allow.
    """
    raw: list[Finding] = []
    for rule in rules:
        for module in project:
            raw.extend(rule.check_module(module))
        raw.extend(rule.check_project(project))

    by_path: dict[str, ModuleSource] = {
        module.display_path: module for module in project
    }
    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        module = by_path.get(finding.path)
        allow = None
        if module is not None:
            candidate = module.allows.get(finding.line)
            if candidate is not None and candidate.covers(finding.rule):
                allow = candidate
            else:
                above = module.allows.get(finding.line - 1)
                if above is not None and above.standalone and above.covers(finding.rule):
                    allow = above
        if allow is not None and allow.reason:
            allow.used = True
            suppressed += 1
        else:
            kept.append(finding)

    known = set(rule_names()) | {"*", SUPPRESSION_RULE}
    ran = {rule.id for rule in rules}
    for module in project:
        for allow in module.allows.values():
            anchor = Finding(
                rule=SUPPRESSION_RULE, path=module.display_path,
                line=allow.line, col=1, message="",
            )
            if not allow.reason:
                kept.append(anchor.__class__(
                    rule=SUPPRESSION_RULE, path=module.display_path,
                    line=allow.line, col=1,
                    message=(
                        f"allow[{','.join(allow.rules)}] has no reason; "
                        f"suppressions must justify themselves"
                    ),
                ))
                continue
            unknown = [r for r in allow.rules if r not in known]
            if unknown:
                kept.append(anchor.__class__(
                    rule=SUPPRESSION_RULE, path=module.display_path,
                    line=allow.line, col=1,
                    message=f"allow names unknown rule id(s): {', '.join(unknown)}",
                ))
                continue
            covered_ran = ("*" in allow.rules) or any(r in ran for r in allow.rules)
            if all_rules_selected and covered_ran and not allow.used:
                kept.append(anchor.__class__(
                    rule=SUPPRESSION_RULE, path=module.display_path,
                    line=allow.line, col=1,
                    message=(
                        f"unused allow[{','.join(allow.rules)}]; the finding it "
                        f"waived is gone — delete the comment"
                    ),
                ))
    return kept, suppressed


def run_lint(
    root: Path | None = None,
    rule_ids: Sequence[str] | None = None,
) -> LintResult:
    """End-to-end lint run over a source tree."""
    scan_root = Path(root).resolve() if root is not None else default_root()
    project = build_project(scan_root)
    rules = make_rules(rule_ids)
    findings, suppressed = lint_project(
        project, rules, all_rules_selected=rule_ids is None
    )
    return LintResult(
        root=str(scan_root),
        rules=[rule.id for rule in rules],
        findings=sorted(findings, key=Finding.sort_key),
        files=len(project),
        suppressed=suppressed,
    )
