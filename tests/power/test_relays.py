"""Relays and the reconfigurable switch network."""

import pytest

from repro.power.relays import Relay, RelayError, RelayPair, SwitchNetwork


class TestRelay:
    def test_actuation_counts_cycles(self):
        relay = Relay("r")
        assert relay.set(True) is True
        assert relay.set(True) is False  # no change, no cycle
        assert relay.set(False) is True
        assert relay.cycles == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Relay("r", switching_time_s=-1.0)
        with pytest.raises(ValueError):
            Relay("r", rated_cycles=0)


class TestRelayPair:
    def test_never_both_closed(self):
        pair = RelayPair("b1")
        pair.to_charging()
        assert pair.state == "charging"
        pair.to_load()
        assert pair.state == "load"
        pair.validate()  # must not raise

    def test_offline_opens_both(self):
        pair = RelayPair("b1")
        pair.to_charging()
        pair.to_offline()
        assert pair.state == "offline"
        assert not pair.charge.closed and not pair.discharge.closed

    def test_actuation_counting(self):
        pair = RelayPair("b1")
        assert pair.to_charging() == 1
        assert pair.to_load() == 2  # open charge, close discharge
        assert pair.to_load() == 0


class TestSwitchNetwork:
    def test_attach_and_query(self):
        net = SwitchNetwork(["b1", "b2"])
        net.attach("b1", "charge")
        net.attach("b2", "load")
        assert net.on_bus("charge") == ("b1",)
        assert net.on_bus("load") == ("b2",)
        assert net.on_bus("offline") == ()
        assert net.state_of("b1") == "charging"

    def test_bus_tuples_follow_every_move(self):
        net = SwitchNetwork(["b1", "b2"])
        offline = net.on_bus("offline")
        assert offline == ("b1", "b2")
        net.attach("b1", "offline")  # moves no contact: the scan stays
        assert net.on_bus("offline") is offline
        net.attach("b1", "load")
        assert net.on_bus("load") == ("b1",)
        assert net.on_bus("offline") == ("b2",)

    def test_refused_bridge_still_moves_the_free_contact(self):
        net = SwitchNetwork(["b1"])
        net.attach("b1", "load")
        assert net.on_bus("load") == ("b1",)
        net.pairs["b1"].discharge.force_stick()
        with pytest.raises(RelayError):
            net.attach("b1", "charge")
        # The charge contact closed before the bridge was refused.
        assert net.on_bus("charge") == ("b1",)
        assert net.on_bus("load") == ()

    def test_switch_operations_counted_per_mode_change(self):
        net = SwitchNetwork(["b1"])
        net.attach("b1", "charge")
        net.attach("b1", "load")
        net.attach("b1", "load")  # no-op
        assert net.switch_operations == 2
        assert net.total_actuations == 3

    def test_unknown_battery(self):
        net = SwitchNetwork(["b1"])
        with pytest.raises(KeyError):
            net.attach("nope", "charge")

    def test_unknown_bus(self):
        net = SwitchNetwork(["b1"])
        with pytest.raises(ValueError):
            net.attach("b1", "sideways")
        with pytest.raises(ValueError):
            net.on_bus("sideways")

    def test_requires_batteries(self):
        with pytest.raises(ValueError):
            SwitchNetwork([])
