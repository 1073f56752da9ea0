"""Every law the fleet kernel restates, checked against its scalar twin.

:data:`repro.analysis.rules.parity.LAW_MAP` pairs each fleet law with the
scalar function it ports; ``kernel-parity`` fails on an entry whose
either side is gone.  This module holds one check per entry and walks
the table.  Each check draws inputs that reach every clamp branch of
both sides and compares the pair elementwise:

* bit for bit where the law uses only + - * / and comparisons, since
  IEEE arithmetic is deterministic elementwise;
* within :data:`POW_EXP_ULPS` units in the last place where it calls
  ``**`` or ``exp`` (``_emf``, ``_acceptance_max_current``): numpy's
  vectorized ``power`` and ``exp`` may round differently from libm.

A law whose inputs include the output of another (the EMF a terminal
voltage starts from, the acceptance ceiling the effective current is
clipped to) is fed the scalar twin's value of that input, so each check
isolates one law.
"""

from __future__ import annotations

import importlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rules.parity import LAW_MAP
from repro.battery.acceptance import ChargeAcceptance
from repro.battery.kibam import KiBaM
from repro.battery.unit import BatteryUnit
from repro.battery.voltage import VoltageModel
from repro.battery.wear import WearModel
from repro.cluster.profiles import XEON_DL380
from repro.cluster.server import Server, ServerState
from repro.cluster.vm import VirtualMachine
from repro.policy.controls import DUTY_STEPS
from repro.power.converters import DCDCConverter
from repro.sim.fleet.kernel import _BOOTING, _OFF, _ON, _SAVING, SiteSpec, _FleetBatch

#: Ulps the ``**`` and ``exp`` laws may differ by.
POW_EXP_ULPS = 2
#: Ticks of 5 s as the golden days run, and of an hour, long enough for
#: the KiBaM diffusion to push the bound well past its clamps.
DTS = (5.0, 3600.0)
_STATES = {_OFF: ServerState.OFF, _BOOTING: ServerState.BOOTING,
           _ON: ServerState.ON, _SAVING: ServerState.SAVING}


@lru_cache(maxsize=None)
def _batch(dt_s: float) -> _FleetBatch:
    spec = SiteSpec("insure", "video", seed=1, initial_soc=0.5,
                    trace_power_w=(0.0,) * 4, trace_dt_s=dt_s, dt_s=dt_s)
    return _FleetBatch([spec])


def _twin(law: str, obj):
    """The scalar twin of ``law`` on ``obj``, an instance of the class the
    table names: a bound method, or the value of a property."""
    module, _, qualname = LAW_MAP[law].partition(":")
    cls_name, name = qualname.split(".")
    assert type(obj) is getattr(importlib.import_module(module), cls_name)
    return getattr(obj, name)


def _fleet(law: str, batch: _FleetBatch):
    return getattr(batch, law.split(".")[1])


def _floats(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False,
                     allow_infinity=False)


def _column(data, *strategies):
    """A list of 1-12 drawn tuples, one per element, as arrays by field."""
    rows = data.draw(st.lists(st.tuples(*strategies), min_size=1, max_size=12))
    return [np.array(field, dtype=np.float64) for field in zip(*rows)]


def _assert_ulps(fleet: np.ndarray, scalar: list[float], ulps: int) -> None:
    want = np.array(scalar, dtype=np.float64)
    assert np.all(np.abs(fleet - want) <= ulps * np.spacing(np.abs(want))), (
        fleet, want)


# ----------------------------------------------------------------------
# One check per LAW_MAP entry
# ----------------------------------------------------------------------
def check_kibam_step(law, data):
    dt = data.draw(st.sampled_from(DTS))
    batch = _batch(dt)
    p = batch.battery
    y1, y2, amps = _column(data, _floats(0.0, batch.y1_cap),
                           _floats(0.0, batch.y2_cap), _floats(-400.0, 400.0))
    batch.y1, batch.y2 = y1, y2
    y1n, y2n, moved = _fleet(law, batch)(amps, batch._diffusion())
    for i in range(len(amps)):
        kibam = KiBaM(p.capacity_ah, p.kibam, soc=1.0)
        kibam.y1, kibam.y2 = float(y1[i]), float(y2[i])
        assert _twin(law, kibam)(float(amps[i]), dt) == moved[i]
        assert (kibam.y1, kibam.y2) == (y1n[i], y2n[i])


def check_emf(law, data):
    batch = _batch(DTS[0])
    (y1,) = _column(data, _floats(-2.0, batch.y1_cap + 2.0))
    model = VoltageModel(batch.battery.voltage)
    scalar = [_twin(law, model)(float(v) / batch.y1_cap) for v in y1]
    _assert_ulps(_fleet(law, batch)(y1), scalar, POW_EXP_ULPS)


def check_terminal_voltage(law, data):
    batch = _batch(DTS[0])
    head, amps = _column(data, _floats(-0.1, 1.1), _floats(-400.0, 400.0))
    model = VoltageModel(batch.battery.voltage)
    emf = np.array([model.emf(float(h)) for h in head])
    scalar = [_twin(law, model)(float(h), float(a)) for h, a in zip(head, amps)]
    assert _fleet(law, batch)(emf, amps).tolist() == scalar


def check_max_discharge_current(law, data):
    dt = data.draw(st.sampled_from(DTS))
    batch = _batch(dt)
    y1, y2 = _column(data, _floats(0.0, batch.y1_cap), _floats(0.0, batch.y2_cap))
    units = []
    for a, b in zip(y1, y2):
        unit = BatteryUnit("battery-1", batch.battery)
        unit.kibam.y1, unit.kibam.y2 = float(a), float(b)
        units.append(unit)
    batch.y1, batch.y2 = y1, y2
    batch._tick_emf = np.array([u.open_circuit_voltage for u in units])
    scalar = [_twin(law, unit)(dt) for unit in units]
    assert _fleet(law, batch)(batch._diffusion()).tolist() == scalar


def check_acceptance_max_current(law, data):
    batch = _batch(DTS[0])
    (soc,) = _column(data, _floats(-0.2, 1.2))
    acceptance = ChargeAcceptance(batch.battery.capacity_ah, batch.battery.acceptance)
    scalar = [_twin(law, acceptance)(float(s)) for s in soc]
    _assert_ulps(_fleet(law, batch)(soc), scalar, POW_EXP_ULPS)


def check_acceptance_effective(law, data):
    batch = _batch(DTS[0])
    applied, soc = _column(data, _floats(-2.0, 12.0), _floats(-0.1, 1.2))
    acceptance = ChargeAcceptance(batch.battery.capacity_ah, batch.battery.acceptance)
    ceiling = np.array([acceptance.max_current(float(s)) for s in soc])
    scalar = [_twin(law, acceptance)(float(a), float(s)) for a, s in zip(applied, soc)]
    assert _fleet(law, batch)(applied, soc, ceiling).tolist() == scalar


def check_record_discharge_wear(law, data):
    dt = data.draw(st.sampled_from(DTS))
    batch = _batch(dt)
    amps, soc, dis, wt = _column(data, _floats(-40.0, 40.0), _floats(0.0, 1.0),
                                 _floats(0.0, 100.0), _floats(0.0, 100.0))
    batch.wear_dis, batch.wear_wt = dis.copy(), wt.copy()
    # The bus records only the cells it discharged, as record() does.
    _fleet(law, batch)(amps > 0.0, amps, soc)
    for i in range(len(amps)):
        wear = WearModel(batch.battery.capacity_ah, batch.battery.wear)
        wear.discharge_ah, wear.weighted_ah = float(dis[i]), float(wt[i])
        _twin(law, wear)(float(amps[i]), float(soc[i]), dt)
        assert (wear.discharge_ah, wear.weighted_ah) == (
            batch.wear_dis[i], batch.wear_wt[i])


def check_converter_input(law, data):
    batch = _batch(DTS[0])
    # A rack draws nothing or at least one idle server; PowerBus asks the
    # converter only for a positive demand.
    (demand,) = _column(data, st.just(0.0) | _floats(1e-6, 20000.0))
    converter = DCDCConverter()
    scalar = [_twin(law, converter)(float(d)) if d > 0 else 0.0 for d in demand]
    assert _fleet(law, batch)(demand).tolist() == scalar


def check_server_power(law, data):
    batch = _batch(DTS[0])
    share = data.draw(_floats(0.01, 1.0))
    rows = data.draw(st.lists(st.tuples(
        st.sampled_from(sorted(_STATES)),
        st.integers(0, XEON_DL380.vm_slots),
        st.integers(1, DUTY_STEPS),
    ), min_size=1, max_size=12))
    sstate, placed, deci = (np.array(field) for field in zip(*rows))
    scalar = []
    for code, vms, duty_deci in rows:
        server = Server("server-1", XEON_DL380)
        server.state = _STATES[code]
        for j in range(vms):
            vm = VirtualMachine(f"vm-{j}", cpu_share=share)
            if code == _ON:
                vm.start()
            server.place_vm(vm)
        server.set_duty(duty_deci / DUTY_STEPS)
        scalar.append(_twin(law, server))
    batch.cpu_share = share
    assert _fleet(law, batch)(sstate, placed, deci / DUTY_STEPS).tolist() == scalar


CHECKS = {
    "_FleetBatch._kibam_step": check_kibam_step,
    "_FleetBatch._emf": check_emf,
    "_FleetBatch._terminal_voltage": check_terminal_voltage,
    "_FleetBatch._max_discharge_current": check_max_discharge_current,
    "_FleetBatch._acceptance_max_current": check_acceptance_max_current,
    "_FleetBatch._acceptance_effective": check_acceptance_effective,
    "_FleetBatch._record_discharge_wear": check_record_discharge_wear,
    "_FleetBatch._converter_input": check_converter_input,
    "_FleetBatch._server_power": check_server_power,
}


def test_every_law_has_one_check():
    assert sorted(CHECKS) == sorted(LAW_MAP)


@pytest.mark.parametrize("law", sorted(LAW_MAP))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_law_matches_its_scalar_twin(law, data):
    CHECKS[law](law, data)
