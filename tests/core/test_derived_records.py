"""The rack record and the relay bus tuples equal a fresh derivation.

Both are caches.  ``ServerRack.record`` is rebuilt from the servers only
after a server mutator drops it, and ``SwitchNetwork.on_bus`` rescans the
contacts only after ``attach`` moves one.  Each day below is stepped one
tick at a time.  After every tick the cached values must equal a fresh
build; they are then left cached, so a change the next tick makes
without dropping them shows up at its end.
"""

from __future__ import annotations

import pytest

from repro.core.faults import StuckRelayFault
from repro.core.system import build_day_system
from repro.validate.golden import INITIAL_SOC, TARGET_MEAN_W, parse_cell_id, resolve_cell

HORIZON_S = 7200.0


def _day(controller, workload, weather="sunny", *, mean_w=TARGET_MEAN_W, seed=3,
         initial_soc=INITIAL_SOC, **options):
    return build_day_system(controller, workload, weather, mean_w=mean_w, seed=seed,
                            initial_soc=initial_soc, **options)


def _scenario_day(name):
    cell = resolve_cell(**parse_cell_id(f"scenario-{name}"))
    return _day(cell.controller, cell.workload, cell.weather, seed=cell.seed,
                policies=cell.policies())


def _on_off_cycles(system) -> int:
    return system.rack.total_on_off_cycles()


def _duty_changes(system) -> int:
    return len(system.decisions.of_kind("dvfs.duty"))


def _crashes(system) -> int:
    return sum(server.crashes for server in system.rack.servers)


def _switch_operations(system) -> int:
    return system.switchnet.switch_operations


#: day -> (its system factory, a count of the actuation the day must make)
DAYS = {
    "insure-video": (lambda: _day("insure", "video"), _on_off_cycles),
    "insure-seismic": (lambda: _day("insure", "seismic"), _on_off_cycles),
    "baseline-video": (lambda: _day("baseline", "video"), _on_off_cycles),
    "baseline-seismic": (lambda: _day("baseline", "seismic"), _on_off_cycles),
    # The duty caps move server duty every few minutes.
    "carbon-chasing": (lambda: _scenario_day("carbon-chasing"), _duty_changes),
    "price-arbitrage": (lambda: _scenario_day("price-arbitrage"), _on_off_cycles),
    "grid-hybrid": (lambda: _scenario_day("grid-hybrid"), _duty_changes),
    "shedding": (lambda: _day("insure", "video", "cloudy", mean_w=1400.0, seed=1,
                              initial_soc=0.1), _crashes),
    "stuck-relay": (lambda: _day("insure", "video",
                                 faults=[StuckRelayFault("battery-1", "load")]),
                    _switch_operations),
    "plc-interlocks": (lambda: _day("insure", "video", plc_interlocks=True),
                       _switch_operations),
}


def _assert_fresh(system) -> None:
    rack, switchnet, bus = system.rack, system.switchnet, system.plant.bus
    if rack._record is not None:
        assert rack._record == rack._build_record()
    if switchnet._buses is not None:
        assert switchnet._buses == switchnet._scan_buses()
    for name in ("load", "charge"):
        assert tuple(u.name for u in bus._units_on(name)) == switchnet.on_bus(name)
    rack.record  # keep the record cached into the next tick


@pytest.mark.parametrize("day", sorted(DAYS))
def test_records_equal_a_fresh_build_after_every_tick(day):
    build, actuations = DAYS[day]
    system = build()
    system.begin_run(HORIZON_S)
    _assert_fresh(system)
    while system.remaining_steps:
        system.advance(1)
        _assert_fresh(system)
    system.finalize()
    assert actuations(system) > 0
    if day == "stuck-relay":
        assert system.switchnet.state_of("battery-1") == "load"
