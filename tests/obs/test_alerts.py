"""Alert engine: rule units (synthetic systems), hysteresis, integration."""

import json
from types import SimpleNamespace

import pytest

from repro.core.system import build_system
from repro.obs.alerts import (
    AlertEngine,
    CheckpointStormRule,
    DischargeCapNearMissRule,
    LvdProximityRule,
    SocDroopRule,
    SustainedCurtailmentRule,
    WearImbalanceRule,
    default_rules,
)
from repro.obs.decisions import KNOWN_KINDS, DecisionLog
from repro.obs.hub import Observability
from repro.obs.registry import MetricsRegistry
from repro.solar.traces import make_day_trace
from repro.workloads import SeismicAnalysis


def _unit(name="battery-1", soc=0.5, voltage=24.0, current=0.0,
          discharge_ah=0.0, v_cutoff=23.3):
    return SimpleNamespace(
        name=name, soc=soc, terminal_voltage=voltage, last_current=current,
        wear=SimpleNamespace(discharge_ah=discharge_ah),
        params=SimpleNamespace(voltage=SimpleNamespace(v_cutoff=v_cutoff)),
    )


class _FakeBank(list):
    """Iterable of fake units with the mean_soc the droop rule reads."""

    def __init__(self, units, mean_soc):
        super().__init__(units)
        self.mean_soc = mean_soc


def _system(units=None, mean_soc=0.5, cap=None, checkpoint_stops=0,
            curtailed_w=0.0):
    units = units if units is not None else [_unit()]
    bank = _FakeBank(units, mean_soc)
    return SimpleNamespace(
        bank=bank,
        controller=SimpleNamespace(discharge_cap_amps=cap,
                                   checkpoint_stops=checkpoint_stops),
        plant=SimpleNamespace(
            last_report=SimpleNamespace(curtailed_w=curtailed_w)),
    )


class TestSocDroopRule:
    def test_fires_on_fast_drop_and_rearms(self):
        rule = SocDroopRule(max_drop_per_hour=0.1, window_s=600.0)
        # 0.2/h drop: 0.0333 SoC over 600 s.
        fired = []
        soc = 0.9
        for i in range(13):
            t = i * 60.0
            system = _system(mean_soc=soc)
            fired.append(rule.evaluate(t, system))
            soc -= 0.2 / 60.0  # 0.2 SoC per hour, sampled each minute
        hits = [f for f in fired if f is not None]
        assert len(hits) == 1  # edge-triggered, not once per sample
        message, data = hits[0]
        assert "dropping" in message
        assert data["rate_per_hour"] > 0.1

    def test_quiet_on_stable_soc(self):
        rule = SocDroopRule(max_drop_per_hour=0.1, window_s=600.0)
        for i in range(13):
            assert rule.evaluate(i * 60.0, _system(mean_soc=0.8)) is None


class TestWearImbalanceRule:
    def test_fires_once_on_spread(self):
        rule = WearImbalanceRule(max_imbalance_ah=5.0)
        units = [_unit("b1", discharge_ah=12.0), _unit("b2", discharge_ah=2.0)]
        first = rule.evaluate(0.0, _system(units=units))
        again = rule.evaluate(60.0, _system(units=units))
        assert first is not None and again is None
        message, data = first
        assert data["spread_ah"] == pytest.approx(10.0)

    def test_rearms_below_hysteresis_band(self):
        rule = WearImbalanceRule(max_imbalance_ah=5.0)
        bad = [_unit("b1", discharge_ah=12.0), _unit("b2", discharge_ah=2.0)]
        good = [_unit("b1", discharge_ah=3.0), _unit("b2", discharge_ah=2.0)]
        assert rule.evaluate(0.0, _system(units=bad)) is not None
        assert rule.evaluate(1.0, _system(units=good)) is None  # re-arm
        assert rule.evaluate(2.0, _system(units=bad)) is not None


class TestDischargeCapNearMissRule:
    def test_inert_without_a_cap(self):
        rule = DischargeCapNearMissRule()
        units = [_unit(current=100.0)]
        assert rule.evaluate(0.0, _system(units=units, cap=None)) is None

    def test_fires_near_cap(self):
        rule = DischargeCapNearMissRule(fraction=0.9)
        units = [_unit("b1", current=10.0), _unit("b2", current=9.0)]
        fired = rule.evaluate(0.0, _system(units=units, cap=20.0))
        assert fired is not None
        message, data = fired
        assert data["total_amps"] == pytest.approx(19.0)
        # below the re-arm fraction the rule resets
        calm = [_unit("b1", current=5.0)]
        assert rule.evaluate(1.0, _system(units=calm, cap=20.0)) is None
        assert rule.evaluate(2.0, _system(units=units, cap=20.0)) is not None

    def test_charging_current_not_counted(self):
        rule = DischargeCapNearMissRule(fraction=0.9)
        units = [_unit("b1", current=-50.0), _unit("b2", current=1.0)]
        assert rule.evaluate(0.0, _system(units=units, cap=20.0)) is None


class TestLvdProximityRule:
    def test_fires_per_unit_when_discharging_near_cutoff(self):
        rule = LvdProximityRule(margin_v=0.25)
        near = [_unit("b1", voltage=23.4, current=2.0)]
        fired = rule.evaluate(0.0, _system(units=near))
        assert fired is not None
        assert fired[1]["unit"] == "b1"
        # armed per unit: stays quiet until the unit leaves the band
        assert rule.evaluate(1.0, _system(units=near)) is None

    def test_quiet_when_not_discharging(self):
        rule = LvdProximityRule(margin_v=0.25)
        idle = [_unit("b1", voltage=23.4, current=0.0)]
        assert rule.evaluate(0.0, _system(units=idle)) is None


class TestCheckpointStormRule:
    def test_fires_on_repeated_stops_in_window(self):
        rule = CheckpointStormRule(count=2, window_s=3600.0)
        assert rule.evaluate(0.0, _system(checkpoint_stops=1)) is None
        fired = rule.evaluate(600.0, _system(checkpoint_stops=2))
        assert fired is not None
        assert fired[1]["stops_in_window"] == 2
        # the window cleared on fire: one more stop is not yet a storm
        assert rule.evaluate(700.0, _system(checkpoint_stops=3)) is None

    def test_stops_outside_window_do_not_accumulate(self):
        rule = CheckpointStormRule(count=2, window_s=600.0)
        assert rule.evaluate(0.0, _system(checkpoint_stops=1)) is None
        assert rule.evaluate(3600.0, _system(checkpoint_stops=2)) is None


class TestSustainedCurtailmentRule:
    def test_fires_after_sustained_episode_only(self):
        rule = SustainedCurtailmentRule(floor_w=100.0, duration_s=600.0)
        assert rule.evaluate(0.0, _system(curtailed_w=300.0)) is None
        assert rule.evaluate(300.0, _system(curtailed_w=250.0)) is None
        fired = rule.evaluate(650.0, _system(curtailed_w=200.0))
        assert fired is not None
        # one alert per episode
        assert rule.evaluate(700.0, _system(curtailed_w=200.0)) is None
        # episode ends, new episode can fire again
        assert rule.evaluate(800.0, _system(curtailed_w=0.0)) is None
        assert rule.evaluate(900.0, _system(curtailed_w=200.0)) is None
        assert rule.evaluate(1600.0, _system(curtailed_w=200.0)) is not None


#: The keys of each default rule's data payload, by rule name.
RULE_DATA_KEYS = {
    "soc_droop": {"rate_per_hour", "mean_soc"},
    "wear_imbalance": {"spread_ah", "discharge_ah"},
    "discharge_cap_near_miss": {"total_amps", "cap_amps"},
    "lvd_proximity": {"unit", "voltage", "cutoff"},
    "checkpoint_storm": {"stops_in_window", "window_s"},
    "sustained_curtailment": {"curtailed_w", "sustained_s"},
}


def _fire_wear_imbalance(t):
    """Fire one wear_imbalance alert into a fresh counted log; returns
    the engine and the log's registry."""
    registry = MetricsRegistry()
    engine = AlertEngine(DecisionLog(registry=registry),
                         rules=[WearImbalanceRule(max_imbalance_ah=1.0)],
                         stride=1)
    units = [_unit("b1", discharge_ah=9.0), _unit("b2")]
    engine.attach(_system(units=units), observe=False)
    engine(SimpleNamespace(step_index=0, t=t))
    return engine, registry


class TestAlertEngine:
    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError, match="stride"):
            AlertEngine(DecisionLog(), stride=0)

    def test_emit_records_decision_and_counter(self):
        # One record per alert: the decision, with the rule's data, and
        # the decision log's own counter.
        engine, registry = _fire_wear_imbalance(120.0)
        (decision,) = list(engine.decisions)
        assert decision.kind == "alert.wear_imbalance"
        assert decision.t == 120.0 and decision.source == "alerts"
        assert decision.data["severity"] == "warning"
        assert "spread" in decision.data["message"]
        assert decision.data["spread_ah"] == pytest.approx(9.0)
        assert decision.data["discharge_ah"] == {"b1": 9.0, "b2": 0.0}
        assert engine.counts() == {"wear_imbalance": 1}
        counter = registry.get("decisions_total", kind="alert.wear_imbalance")
        assert counter is not None and counter.value == 1
        assert [m.name for m in registry] == ["decisions_total"]

    def test_all_alert_kinds_are_known_decision_kinds(self):
        for rule in default_rules():
            assert f"alert.{rule.name}" in KNOWN_KINDS
        assert set(RULE_DATA_KEYS) == {rule.name for rule in default_rules()}

    def test_jsonl_lines_parse(self):
        # An alerts.jsonl line is its decision's line with ``rule`` for
        # ``kind`` and ``source``.
        engine, _ = _fire_wear_imbalance(60.0)
        (line,) = engine.to_jsonl().splitlines()
        payload = json.loads(line)
        assert payload.pop("rule") == "wear_imbalance"
        (decision,) = engine.decisions.of_kind("alert")
        decision_line = json.loads(decision.to_json())
        del decision_line["kind"], decision_line["source"]
        assert payload == decision_line
        assert payload["severity"] == "warning"


class TestIntegration:
    def test_full_system_run_streams_alerts_into_decisions(self):
        trace = make_day_trace("cloudy", dt_seconds=5.0, seed=1,
                               target_mean_w=800.0)
        obs = Observability()
        system = build_system(trace, SeismicAnalysis(), controller="insure",
                              seed=1, initial_soc=0.55, dt=5.0,
                              observability=obs)
        system.run(3 * 3600.0)
        fired = obs.decisions.of_kind("alert")
        assert fired
        for decision in fired:
            rule = decision.kind.removeprefix("alert.")
            assert decision.source == "alerts"
            assert set(decision.data) == {"severity", "message"} \
                | RULE_DATA_KEYS[rule]
        # The engine's counts are the log's alert kinds, and the decision
        # counters count them: there is no second alert counter.
        counts = obs.alerts.counts()
        assert counts == {kind.removeprefix("alert."): n
                          for kind, n in obs.decisions.counts().items()
                          if kind.startswith("alert.")}
        assert sum(counts.values()) == len(fired)
        for rule, n in counts.items():
            series = obs.registry.get("decisions_total", kind=f"alert.{rule}")
            assert series.value == n
        assert "alerts_total" not in obs.registry.to_prometheus()
        assert len(obs.alerts.to_jsonl().splitlines()) == len(fired)
