"""Relay-network safety under randomised PLC command sequences.

The paper's hierarchy lets a (possibly buggy) coordinator write arbitrary
bus requests into the PLC's holding registers; the scan-cycle program and
the relay pair are the last line of defence.  Hypothesis drives that
surface: for *any* interleaving of requests, sensed voltages and scan
cycles — even with a mechanically stuck contact — no cabinet may ever
bridge the charge and load buses.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plc_program import BatterySwitchProgram
from repro.power.modbus import encode_fixed
from repro.power.plc import ProgrammableLogicController
from repro.power.relays import SwitchNetwork
from repro.sim.clock import Clock

NAMES = ["battery-1", "battery-2", "battery-3"]
BUSES = ("offline", "charge", "load")
V_CUTOFF = 23.3

commands = st.lists(
    st.tuples(
        st.integers(0, len(NAMES) - 1),          # cabinet
        st.sampled_from(BUSES),                  # requested bus
        st.floats(18.0, 28.0),                   # sensed terminal voltage
    ),
    min_size=1,
    max_size=40,
)


def make_plant():
    switchnet = SwitchNetwork(list(NAMES))
    plc = ProgrammableLogicController()
    program = BatterySwitchProgram(switchnet, list(NAMES), v_cutoff=V_CUTOFF)
    return switchnet, plc, program


def set_voltage(plc, index, voltage):
    plc.slave.input[index * 2] = encode_fixed(voltage)


def scan(program, plc, clock):
    program(clock, plc)
    clock.t += clock.dt
    clock.step_index += 1


def assert_never_bridged(switchnet):
    for name, pair in switchnet.pairs.items():
        assert not (pair.charge.closed and pair.discharge.closed), (
            f"{name}: charge and discharge contacts closed together"
        )


@given(commands=commands)
@settings(max_examples=120, deadline=None)
def test_no_command_sequence_bridges_a_cabinet(commands):
    switchnet, plc, program = make_plant()
    clock = Clock(dt=5.0)
    for index in range(len(NAMES)):
        set_voltage(plc, index, 25.5)
    for cabinet, bus, voltage in commands:
        set_voltage(plc, cabinet, voltage)
        program.request(plc, NAMES[cabinet], bus)
        scan(program, plc, clock)
        assert_never_bridged(switchnet)
    # Drain any pending break-before-make sequences.
    for _ in range(3):
        scan(program, plc, clock)
        assert_never_bridged(switchnet)


@given(commands=commands, stuck_cabinet=st.integers(0, len(NAMES) - 1),
       stuck_bus=st.sampled_from(BUSES))
@settings(max_examples=120, deadline=None)
def test_stuck_contact_never_lets_a_cabinet_bridge(commands, stuck_cabinet,
                                                   stuck_bus):
    """A mechanically stuck pair must freeze, not bridge: the scan program
    only closes a contact from the fully open state, so whatever position
    the fault froze, no request sequence can close the opposite contact."""
    switchnet, plc, program = make_plant()
    clock = Clock(dt=5.0)
    for index in range(len(NAMES)):
        set_voltage(plc, index, 25.5)
    name = NAMES[stuck_cabinet]
    switchnet.attach(name, stuck_bus)
    pair = switchnet.pairs[name]
    pair.charge.force_stick()
    pair.discharge.force_stick()
    frozen = pair.state

    for cabinet, bus, voltage in commands:
        set_voltage(plc, cabinet, voltage)
        program.request(plc, NAMES[cabinet], bus)
        scan(program, plc, clock)
        assert_never_bridged(switchnet)
        assert pair.state == frozen


@given(
    requests=st.lists(st.sampled_from(BUSES), min_size=1, max_size=10),
    voltage=st.floats(18.0, 23.3),
)
@settings(max_examples=60, deadline=None)
def test_low_voltage_lockout_keeps_cabinet_off_load_bus(requests, voltage):
    """At or below the LVD threshold, no request lands a cabinet on load."""
    switchnet, plc, program = make_plant()
    clock = Clock(dt=5.0)
    for index in range(len(NAMES)):
        set_voltage(plc, index, voltage)
    for bus in requests:
        program.request(plc, NAMES[0], bus)
        scan(program, plc, clock)
        assert switchnet.state_of(NAMES[0]) != "load"
    if "load" in requests:
        assert program.lockout_refusals > 0


@given(
    finals=st.lists(st.sampled_from(BUSES), min_size=len(NAMES),
                    max_size=len(NAMES)),
    churn=commands,
)
@settings(max_examples=60, deadline=None)
def test_healthy_requests_converge_after_break_before_make(finals, churn):
    """With healthy voltages the network settles on the last request per
    cabinet within two scans (one for the break-before-make open step)."""
    switchnet, plc, program = make_plant()
    clock = Clock(dt=5.0)
    for index in range(len(NAMES)):
        set_voltage(plc, index, 25.5)
    for cabinet, bus, _ in churn:
        program.request(plc, NAMES[cabinet], bus)
        scan(program, plc, clock)
    for name, bus in zip(NAMES, finals, strict=True):
        program.request(plc, name, bus)
    for _ in range(2):
        scan(program, plc, clock)
    state_to_bus = {"charging": "charge", "load": "load", "offline": "offline"}
    for name, bus in zip(NAMES, finals, strict=True):
        assert state_to_bus[switchnet.state_of(name)] == bus
        assert_never_bridged(switchnet)
