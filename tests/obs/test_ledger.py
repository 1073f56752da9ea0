"""Energy-flow ledger: closure, edge identities, read-only guarantee."""

import json

import pytest

from repro.core.system import build_system
from repro.obs.hub import Observability
from repro.obs.ledger import EDGE_NAMES, SIGNED_EDGES, EnergyLedger
from repro.solar.traces import make_day_trace
from repro.validate.invariants import bus_closure, bus_integrals
from repro.workloads import SeismicAnalysis

SHORT_S = 2 * 3600.0


def _run(obs, controller="insure", seed=11, duration_s=SHORT_S):
    trace = make_day_trace("cloudy", dt_seconds=5.0, seed=seed,
                           target_mean_w=850.0)
    system = build_system(trace, SeismicAnalysis(), controller=controller,
                          seed=seed, initial_soc=0.55, dt=5.0,
                          observability=obs)
    system.run(duration_s)
    return system


class TestClosure:
    @pytest.mark.parametrize("controller", ["insure", "baseline"])
    def test_closure_holds_on_short_runs(self, controller):
        obs = Observability()
        _run(obs, controller=controller)
        closure = obs.ledger.closure()
        assert closure.ok, str(closure)
        assert closure.hours == pytest.approx(SHORT_S / 3600.0)
        assert abs(closure.residual_solar_wh) <= closure.tolerance_wh
        assert abs(closure.residual_load_wh) <= closure.tolerance_wh

    def test_closure_is_the_invariant_checkers_account(self):
        # One energy account: the ledger closes the same bus integrals,
        # through the same function, as the checker's bus.accumulated.
        obs = Observability()
        system = _run(obs)
        closure = obs.ledger.closure()
        assert (closure.residual_solar_wh, closure.residual_load_wh,
                closure.tolerance_wh) == bus_closure(
            bus_integrals(system.plant.bus), SHORT_S / 3600.0)

    def test_closure_str_mentions_verdict(self):
        obs = Observability()
        _run(obs)
        text = str(obs.ledger.closure())
        assert "ledger closure ok" in text
        assert "ungated" in text


class TestEdges:
    def test_catalogue_complete_and_ordered(self):
        obs = Observability()
        _run(obs)
        edges = obs.ledger.edges()
        assert tuple(edges) == EDGE_NAMES

    def test_flow_edges_non_negative(self):
        obs = Observability()
        _run(obs)
        for name, wh in obs.ledger.edges().items():
            if name not in SIGNED_EDGES:
                assert wh >= -1e-9, f"{name} = {wh}"

    def test_bus_identities_integrate_exactly(self):
        obs = Observability()
        _run(obs)
        e = obs.ledger.edges()
        tol = obs.ledger.closure().tolerance_wh
        assert e["pv.harvest"] == pytest.approx(
            e["bus.solar_to_load"] + e["bus.to_charger"] + e["bus.curtailed"],
            abs=tol)
        assert e["charger.to_batteries"] + e["charger.loss"] == pytest.approx(
            e["bus.to_charger"], abs=tol)
        # Load-side decomposition of what the servers drew at the wall.
        assert e["servers.load"] == pytest.approx(
            e["servers.effective"] + e["servers.checkpoint_overhead"]
            + e["servers.idle_overhead"], abs=1e-6)

    def test_attach_snapshots_a_baseline(self):
        # Attaching mid-run must account only the energy moved *after*
        # the attach point.
        system = _run(None, duration_s=SHORT_S)
        late = EnergyLedger().attach(system)
        assert all(abs(wh) < 1e-9 for wh in late.edges().values())

    def test_unattached_ledger_raises(self):
        ledger = EnergyLedger()
        with pytest.raises(RuntimeError, match="not attached"):
            ledger.edges()
        with pytest.raises(RuntimeError, match="not attached"):
            ledger.closure()


class TestInstrumentation:
    def test_gauges_registered_and_live(self):
        obs = Observability()
        _run(obs)
        harvest = obs.registry.get("ledger.edge_wh", edge="pv.harvest")
        assert harvest is not None
        assert harvest.value == pytest.approx(
            obs.ledger.edges()["pv.harvest"])
        ok = obs.registry.get("ledger.closure_ok")
        assert ok is not None and ok.value == 1.0

    def test_json_export_round_trips(self):
        obs = Observability()
        _run(obs)
        payload = json.loads(obs.ledger.to_json())
        assert set(payload) == {"edges", "closure"}
        assert set(payload["edges"]) == set(EDGE_NAMES)
        assert payload["closure"]["ok"] is True
