"""Shared model for the domain-aware static analysis suite.

The suite parses the reproduction's own sources into ASTs and runs a set
of registered :class:`Rule` objects over them.  Everything downstream of
this module — rules, reporters, the ``repro lint`` CLI — works
in terms of three small types:

* :class:`ModuleSource` — one parsed source file (path, dotted module
  name, text, lazily-built AST, and its suppression comments);
* :class:`Project` — the set of modules under analysis, for rules that
  need a cross-module view (e.g. scalar↔fleet kernel parity);
* :class:`Finding` — one diagnostic, anchored to ``path:line:col`` with
  a stable fingerprint for diffing reports across runs.

Suppressions follow the ``# repro: allow[rule-id] reason`` convention:
an *inline* allow suppresses findings on its own line, a *standalone*
allow (a comment-only line) suppresses findings on the next line.  The
reason is mandatory — an allow without one never suppresses anything and
is itself reported (rule id ``suppression``), as are allows that no
longer match a finding, so stale exemptions cannot linger unreviewed.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

#: Rule id reserved for diagnostics about the suppression comments
#: themselves (missing reason, unknown rule id, unused allow).
SUPPRESSION_RULE = "suppression"

#: Matches ``repro: allow`` comments: the bracket list names the rule
#: ids being waived; everything after the bracket is the reason.
_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*?)\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def fingerprint(self) -> str:
        """Stable identity for matching a finding across runs.

        Line/column are deliberately excluded so unrelated edits above a
        finding do not change its identity; the (rule, path, message)
        triple identifies the finding.
        """
        blob = f"{self.rule}|{self.path}|{self.message}".encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


@dataclass
class Allow:
    """One parsed ``# repro: allow[...]`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str
    #: Whether the comment sits on a line of its own (then it covers the
    #: next line) or trails code (then it covers its own line).
    standalone: bool
    used: bool = field(default=False, compare=False)

    def covers(self, rule: str) -> bool:
        return "*" in self.rules or rule in self.rules


def parse_allows(text: str) -> dict[int, Allow]:
    """Extract allow comments, keyed by 1-based source line.

    Real tokenization (not a line regex) so allow syntax quoted inside a
    docstring or string literal is never mistaken for a suppression.
    """
    allows: dict[int, Allow] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return allows
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(token.string)
        if match is None:
            continue
        lineno = token.start[0]
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        allows[lineno] = Allow(
            line=lineno,
            rules=rules,
            reason=match.group("reason").strip(),
            standalone=token.line.lstrip().startswith("#"),
        )
    return allows


class ModuleSource:
    """One source file under analysis.

    The AST and the allow table are built lazily: most rules scope to a
    package subset, so the common case touches only a module's name.
    """

    def __init__(self, path: Path, module: str, text: str, display_path: str | None = None) -> None:
        self.path = Path(path)
        self.module = module
        self.text = text
        #: Path string used in findings (repo-relative where possible).
        self.display_path = display_path if display_path is not None else self.path.as_posix()
        self._tree: ast.Module | None = None
        self._allows: dict[int, Allow] | None = None

    @classmethod
    def from_path(cls, path: Path, module: str, display_path: str | None = None) -> "ModuleSource":
        return cls(path, module, Path(path).read_text(encoding="utf-8"), display_path)

    @property
    def tree(self) -> ast.Module:
        if self._tree is None:
            self._tree = ast.parse(self.text, filename=str(self.path))
        return self._tree

    @property
    def allows(self) -> dict[int, Allow]:
        if self._allows is None:
            self._allows = parse_allows(self.text)
        return self._allows

    def in_package(self, *packages: str) -> bool:
        """Whether this module lives in (or is) one of ``packages``."""
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )

    def finding(self, rule: str, node: ast.AST | None, message: str) -> Finding:
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(rule=rule, path=self.display_path, line=line,
                       col=col + 1, message=message)


class Project:
    """All modules under analysis, addressable by dotted name."""

    def __init__(self, modules: list[ModuleSource]) -> None:
        self.modules = list(modules)
        self._by_name = {mod.module: mod for mod in self.modules}

    def get(self, module: str) -> ModuleSource | None:
        return self._by_name.get(module)

    def members(self, *packages: str) -> list[ModuleSource]:
        return [mod for mod in self.modules if mod.in_package(*packages)]

    def __iter__(self):
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)


class Rule:
    """Base class for analysis rules.

    Subclasses set ``id``/``description`` and implement either (or both)
    granularities: :meth:`check_module` runs once per source file,
    :meth:`check_project` once per tree (for cross-module rules).
    Registration mirrors :mod:`repro.policy.registry` — decorate with
    :func:`repro.analysis.registry.register_rule`.
    """

    id: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def check_module(self, module: ModuleSource) -> list[Finding]:
        return []

    def check_project(self, project: Project) -> list[Finding]:
        return []


# ----------------------------------------------------------------------
# Import resolution shared by rules that match dotted call chains
# ----------------------------------------------------------------------
class ImportMap:
    """Resolve local names to the dotted module paths they import.

    Built once per module from its ``import``/``from`` statements, then
    used to expand a call chain such as ``np.random.rand`` into
    ``numpy.random.rand`` regardless of aliasing.
    """

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> dotted module path ("np" -> "numpy").
        self.modules: dict[str, str] = {}
        #: local name -> (module, attr) for ``from module import attr``.
        self.names: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    self.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = (node.module, alias.name)

    def resolve_call(self, func: ast.AST) -> str | None:
        """Dotted path of a call target, or None if it cannot be traced.

        ``np.random.rand`` -> ``numpy.random.rand``;
        ``randint`` (after ``from random import randint``) ->
        ``random.randint``; unknown roots return None.
        """
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        root = node.id
        if root in self.modules:
            return ".".join([self.modules[root], *parts])
        if root in self.names:
            module, attr = self.names[root]
            return ".".join([module, attr, *parts])
        return None


def attribute_root(node: ast.AST) -> ast.AST:
    """Innermost value of an attribute/subscript chain (often a Name)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


