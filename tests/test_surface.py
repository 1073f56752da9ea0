"""No test-only surface: every definition in ``src/repro`` is reached,
and every attribute it stores on ``self`` is read.

A function or class that only its own body, ``tests/``, the docs or a
package ``__init__.py`` facade names is surface that nothing runs: no
figure, table, CLI command, served session, benchmark or CI step.  An
attribute that ``src/repro`` assigns on ``self`` and nothing reads is
state that is written and never used.  This test parses ``src/repro``
and fails on each such definition or attribute unless ``KEEP`` gives the
reason it stays.

A use is matched by name, not resolved.  In ``src/repro`` a use of a
definition is an AST ``Name``, an ``Attribute``, an import alias or a
string constant that is an identifier (``getattr`` targets, ``__all__``,
forward references); a read of an attribute is an ``Attribute`` load or
such a string constant.  Docstrings do not count, and neither do a
facade's imports and ``__all__``.  In ``benchmarks/``, ``examples/``,
``.github/`` and ``.claude/`` any identifier token counts.  Dunders and
``main`` are exempt.  An attribute is named after the first class that
declares it in its body or assigns it on ``self``.
"""

from __future__ import annotations

import ast
import functools
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
    "repro.policy.governors.Governor.limit_range":
        "the output range each governor declares, which the policy "
        "conformance kit probes",
    "repro.core.plc_program.BatterySwitchProgram.lockout_refusals":
        "the PLC program's only record of a refused load-bus switch",
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


@functools.cache
def _parsed() -> list[tuple[Path, ast.Module, set[int]]]:
    """Every ``src/repro`` module with the nodes that are no uses."""
    parsed = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parsed.append((path, tree, _docstrings(tree) | _facade_nodes(path, tree)))
    return parsed


@functools.cache
def _tokens() -> frozenset[str]:
    tokens = set()
    for top in TOKEN_DIRS:
        for path in (ROOT / top).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                tokens.update(IDENTIFIER.findall(path.read_text(errors="ignore")))
    return frozenset(tokens)


def unreached() -> set[str]:
    """Qualified names of the definitions nothing outside tests reaches."""
    sites = defaultdict(list)   # name -> [(file, line)] of its uses
    definitions = []
    for path, tree, skipped in _parsed():
        for name, line in _uses(tree, skipped):
            sites[name].append((path, line))
        definitions += [(qual, node, path)
                        for qual, node in _definitions(_modname(path), tree.body)]
    tokens = _tokens()
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


def _declared(cls: ast.ClassDef) -> set[str]:
    """Names a class body assigns or annotates."""
    names = set()
    for stmt in cls.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else (
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _stored_on_self(cls: ast.ClassDef) -> set[str]:
    """Attributes the methods of a class assign on ``self``."""
    return {
        node.attr
        for method in cls.body if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def write_only() -> set[str]:
    """Qualified names of the attributes stored on ``self`` that nothing
    outside tests reads."""
    reads = set()
    stored = set()
    owner = {}   # attribute -> the first class naming it
    for path, tree, skipped in _parsed():
        module = _modname(path)
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                reads.add(node.value)
            elif isinstance(node, ast.ClassDef):
                on_self = _stored_on_self(node)
                stored |= on_self
                for name in sorted(on_self | _declared(node)):
                    owner.setdefault(name, f"{module}.{node.name}.{name}")
    tokens = _tokens()
    return {owner[name] for name in stored
            if name not in reads and name not in tokens
            and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_reached_or_kept():
    flagged = unreached()
    unexplained = sorted(flagged - KEEP.keys())
    assert not unexplained, (
        "reached only by tests, docs or a facade; delete it, or add it to KEEP "
        f"with the reason it stays: {unexplained}")
    stale = sorted(KEEP.keys() - flagged - write_only())
    assert not stale, f"KEEP names what a run now reaches, or what is gone: {stale}"


def test_every_stored_attribute_is_read_or_kept():
    unexplained = sorted(write_only() - KEEP.keys())
    assert not unexplained, (
        "stored on self and never read outside tests; delete it, or add it to "
        f"KEEP with the reason it stays: {unexplained}")
