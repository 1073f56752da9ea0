"""Per-rule fixture tests: each rule fires on its fixture and accepts
its clean twin — plus registry semantics."""

from pathlib import Path

import pytest

from repro.analysis.core import ModuleSource, Project, Rule
from repro.analysis.registry import make_rule, make_rules, register_rule, rule_names
from repro.analysis.rules.parity import KernelParityRule
from repro.analysis.runner import lint_project

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(filename, module):
    """Load a fixture under an arbitrary dotted module name (the name
    controls which package scopes the rules apply)."""
    path = FIXTURES / filename
    return ModuleSource(path, module, path.read_text(encoding="utf-8"),
                        display_path=filename)


def run_rule(rule, *modules):
    project = Project(list(modules))
    findings = []
    for mod in modules:
        findings.extend(rule.check_module(mod))
    findings.extend(rule.check_project(project))
    return findings


class TestRegistry:
    def test_builtin_rules_registered(self):
        assert rule_names() == [
            "async-hygiene",
            "determinism",
            "kernel-parity",
            "observer-purity",
            "unit-discipline",
        ]

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            make_rule("nope")

    def test_duplicate_registration_raises(self):
        class Clone(Rule):
            id = "determinism"

        with pytest.raises(ValueError, match="already registered"):
            register_rule(Clone)

    def test_unnamed_rule_raises(self):
        class Nameless(Rule):
            pass

        with pytest.raises(ValueError, match="has no id"):
            register_rule(Nameless)

    def test_make_rules_default_is_all(self):
        assert [r.id for r in make_rules()] == rule_names()


class TestDeterminismRule:
    def test_fires(self):
        mod = load_fixture("determinism_fires.py", "repro.sim.fixture")
        findings = run_rule(make_rule("determinism"), mod)
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "time.time" in messages
        assert "random.random" in messages
        assert "default_rng" in messages
        assert "unordered set" in messages

    def test_clean(self):
        mod = load_fixture("determinism_clean.py", "repro.sim.fixture")
        assert run_rule(make_rule("determinism"), mod) == []

    def test_out_of_scope_package_ignored(self):
        mod = load_fixture("determinism_fires.py", "repro.serve.fixture")
        assert run_rule(make_rule("determinism"), mod) == []


class TestUnitDisciplineRule:
    def test_fires(self):
        mod = load_fixture("units_fires.py", "repro.core.fixture")
        findings = run_rule(make_rule("unit-discipline"), mod)
        assert len(findings) == 5
        messages = " ".join(f.message for f in findings)
        assert "Wh vs Ah" in messages
        assert "Wh vs W" in messages
        assert "Ah vs W" in messages
        assert "min() over mixed units" in messages

    def test_clean(self):
        mod = load_fixture("units_clean.py", "repro.core.fixture")
        assert run_rule(make_rule("unit-discipline"), mod) == []


class TestObserverPurityRule:
    def test_fires(self):
        mod = load_fixture("purity_fires.py", "repro.obs.fixture")
        findings = run_rule(make_rule("observer-purity"), mod)
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "assigns to external state" in messages
        assert "reset()" in messages
        assert "set_duty()" in messages

    def test_clean(self):
        mod = load_fixture("purity_clean.py", "repro.obs.fixture")
        assert run_rule(make_rule("observer-purity"), mod) == []

    def test_out_of_scope_package_ignored(self):
        mod = load_fixture("purity_fires.py", "repro.policy.fixture")
        assert run_rule(make_rule("observer-purity"), mod) == []


class TestAsyncHygieneRule:
    def test_fires(self):
        mod = load_fixture("async_fires.py", "repro.serve.fixture")
        findings = run_rule(make_rule("async-hygiene"), mod)
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "time.sleep" in messages
        assert "subprocess.run" in messages
        assert "open()" in messages
        assert "read_text" in messages

    def test_clean(self):
        mod = load_fixture("async_clean.py", "repro.serve.fixture")
        assert run_rule(make_rule("async-hygiene"), mod) == []


class TestKernelParityRule:
    def _rule(self, field_map, not_ported=None, law_map=None):
        return KernelParityRule(
            scalar_modules=("fix.scalar",),
            fleet_modules=("fix.fleet",),
            field_map=field_map,
            not_ported=not_ported or {},
            law_map=law_map or {},
        )

    def _modules(self):
        return (
            load_fixture("parity_scalar.py", "fix.scalar"),
            load_fixture("parity_fleet.py", "fix.fleet"),
        )

    def test_unmapped_mutation_fires(self):
        rule = self._rule({"Tank.level_wh": ("level",)})
        findings = run_rule(rule, *self._modules())
        assert len(findings) == 1
        assert "Tank.overflow_wh" in findings[0].message
        assert findings[0].path == "parity_scalar.py"

    def test_clean_with_not_ported(self):
        rule = self._rule(
            {"Tank.level_wh": ("level",)},
            {"Tank.overflow_wh": "obs-only accumulator"},
        )
        assert run_rule(rule, *self._modules()) == []

    def test_missing_fleet_array_fires(self):
        rule = self._rule(
            {"Tank.level_wh": ("level",), "Tank.overflow_wh": ("spill",)},
        )
        findings = run_rule(rule, *self._modules())
        assert len(findings) == 1
        assert "spill" in findings[0].message

    def test_stale_entries_fire(self):
        rule = self._rule(
            {"Tank.level_wh": ("level",), "Tank.ghost": ("level",)},
            {"Tank.overflow_wh": "obs-only", "Tank.phantom": "gone"},
        )
        findings = run_rule(rule, *self._modules())
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "stale FIELD_MAP entry Tank.ghost" in messages
        assert "stale NOT_PORTED entry Tank.phantom" in messages

    def test_stale_law_entries_fire(self):
        rule = self._rule(
            {"Tank.level_wh": ("level",)},
            {"Tank.overflow_wh": "obs-only"},
            {"TankBatch.step": "fix.scalar:Tank.step",
             "TankBatch.drain": "fix.scalar:Tank.step",
             "TankBatch.__init__": "fix.scalar:Tank.drain"},
        )
        findings = run_rule(rule, *self._modules())
        assert sorted(f.message for f in findings) == [
            "stale LAW_MAP entry TankBatch.__init__: "
            "fix.scalar:Tank.drain does not exist",
            "stale LAW_MAP entry TankBatch.drain: "
            "no fleet module defines TankBatch.drain",
        ]

    def test_wiring_methods_exempt(self):
        # bind() writes Tank.sink; it must not need a mapping.
        rule = self._rule(
            {"Tank.level_wh": ("level",)},
            {"Tank.overflow_wh": "obs-only"},
        )
        findings = run_rule(rule, *self._modules())
        assert all("Tank.sink" not in f.message for f in findings)

    def test_copied_literals_fire(self):
        rule = self._rule({})
        mod = load_fixture("parity_literals.py", "fix.fleet")
        findings, suppressed = lint_project(
            Project([mod]), [rule], all_rules_selected=False
        )
        assert sorted((f.line, f.message.split()[2]) for f in findings) == [
            (7, "35.0"), (8, "0.85"), (8, "4.0"), (20, "1e-09"),
        ]
        assert suppressed == 1

    def test_literals_outside_fleet_modules_ignored(self):
        mod = load_fixture("parity_literals.py", "fix.scalar")
        assert self._rule({}).check_module(mod) == []

    def test_real_tables_are_consistent(self):
        """The committed FIELD_MAP/NOT_PORTED pass against the real tree."""
        from repro.analysis.runner import build_project

        findings = KernelParityRule().check_project(build_project())
        assert findings == []
