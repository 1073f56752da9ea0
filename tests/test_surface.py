"""No test-only surface: every definition in ``src/repro`` is reached.

A function or class that only its own body, ``tests/``, the docs or a
package ``__init__.py`` facade names is surface that nothing runs: no
figure, table, CLI command, served session, benchmark or CI step.  This
test parses ``src/repro`` and fails on each such definition unless
``KEEP`` gives the reason it stays.

A use is matched by name, not resolved.  In ``src/repro`` a use is an
AST ``Name``, an ``Attribute``, an import alias or a string constant
that is an identifier (``getattr`` targets, ``__all__``, forward
references); docstrings do not count, and neither do a facade's imports
and ``__all__``.  In ``benchmarks/``, ``examples/``, ``.github/`` and
``.claude/`` any identifier token counts.  Dunders and ``main`` are
exempt.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
TOKEN_DIRS = ("benchmarks", "examples", ".github", ".claude")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_RULE = "an analysis rule: @register_rule puts it in the rule registry"
_OBS_HOOK = "a documented hook (docs/observability.md)"
_POLICY_HOOK = "a documented hook (docs/policy.md's worked example)"
_CLIENT = "client API (repro.serve.client)"

#: Qualified name → why it stays although no run reaches it.
KEEP = {
    "repro.analysis.rules.asynchygiene.AsyncHygieneRule": _RULE,
    "repro.analysis.rules.determinism.DeterminismRule": _RULE,
    "repro.analysis.rules.parity.KernelParityRule": _RULE,
    "repro.analysis.rules.purity.ObserverPurityRule": _RULE,
    "repro.analysis.rules.units.UnitDisciplineRule": _RULE,
    "repro.battery.kibam.KiBaM.apply_current_exact":
        "test oracle: the closed form the Euler step is held to",
    "repro.power.modbus.encode_fixed":
        "test oracle: the register codec the inlined PLC scan is held to",
    "repro.obs.decisions.DecisionLog.from_jsonl": _OBS_HOOK,
    "repro.telemetry.analyzer.join_decisions": _OBS_HOOK,
    "repro.policy.registry.register_control": _POLICY_HOOK,
    "repro.policy.registry.register_signal": _POLICY_HOOK,
    "repro.policy.registry.register_governor_rule": _POLICY_HOOK,
    "repro.serve.client.ServeClient.list_sessions": _CLIENT,
    "repro.serve.client.ServeClient.session_metrics": _CLIENT,
    "repro.serve.client.ServeClient.wait_done": _CLIENT,
    "repro.serve.manager.SessionManager.step_once":
        "the tests drive the session scheduler one step at a time",
    "repro.solar.field.ConstantSource": "the fixed-power source the tests build systems on",
    "repro.validate.golden.compute_ledger_cell":
        "golden harness: the ledger goldens are recomputed through it",
    "repro.sim.fleet.validator.FleetValidator.validate_cells":
        "golden harness: the fleet goldens are checked through it",
}


def _modname(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(module: str, body: list[ast.stmt], prefix: str = ""):
    """Module-level and class-level functions and classes, recursively."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{prefix}{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(module, node.body, f"{prefix}{node.name}.")


def _docstrings(tree: ast.Module) -> set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ids.add(id(first.value))
    return ids


def _facade_nodes(path: Path, tree: ast.Module) -> set[int]:
    """A package ``__init__``'s imports and ``__all__``: not uses."""
    if path.name != "__init__.py":
        return set()
    skipped = set()
    for stmt in tree.body:
        is_all = isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        if is_all or isinstance(stmt, (ast.Import, ast.ImportFrom)):
            skipped.update(id(n) for n in ast.walk(stmt))
    return skipped


def _uses(tree: ast.Module, skipped: set[int]):
    """(name, line) for each use of a name in one parsed module."""
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def unreached() -> set[str]:
    """Qualified names of the definitions nothing outside tests reaches."""
    sites = defaultdict(list)   # name -> [(file, line)] of its uses
    definitions = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        skipped = _docstrings(tree) | _facade_nodes(path, tree)
        for name, line in _uses(tree, skipped):
            sites[name].append((path, line))
        definitions += [(qual, node, path)
                        for qual, node in _definitions(_modname(path), tree.body)]
    tokens = set()
    for top in TOKEN_DIRS:
        for path in (ROOT / top).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                tokens.update(IDENTIFIER.findall(path.read_text(errors="ignore")))
    flagged = set()
    for qual, node, path in definitions:
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or name == "main" or name in tokens:
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        outside = [(p, line) for p, line in sites[name]
                   if p != path or not first <= line <= node.end_lineno]
        if not outside:
            flagged.add(qual)
    return flagged


def test_every_definition_is_reached_or_kept():
    flagged = unreached()
    unexplained = sorted(flagged - KEEP.keys())
    assert not unexplained, (
        "reached only by tests, docs or a facade; delete it, or add it to KEEP "
        f"with the reason it stays: {unexplained}")
    stale = sorted(KEEP.keys() - flagged)
    assert not stale, f"KEEP names what a run now reaches, or what is gone: {stale}"
