"""Terminal voltage model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.params import VoltageParams
from repro.battery.voltage import VoltageModel


@pytest.fixture
def model():
    return VoltageModel(VoltageParams())


class TestEMF:
    def test_full_and_empty_bounds(self, model):
        assert model.emf(1.0) == pytest.approx(model.params.emf_full)
        assert model.emf(0.0) == pytest.approx(model.params.emf_empty)

    def test_monotonic_in_head(self, model):
        values = [model.emf(h / 10.0) for h in range(11)]
        assert values == sorted(values)

    def test_clamps_out_of_range(self, model):
        assert model.emf(1.5) == model.emf(1.0)
        assert model.emf(-0.5) == model.emf(0.0)


class TestTerminal:
    def test_discharge_sags(self, model):
        assert model.terminal(0.8, 10.0) < model.emf(0.8)

    def test_charge_rises(self, model):
        assert model.terminal(0.8, -5.0) > model.emf(0.8)

    def test_charge_clamped_at_absorption(self, model):
        v = model.terminal(1.0, -200.0)
        assert v == pytest.approx(model.params.v_charge_max)

    def test_sag_proportional_to_current(self, model):
        sag1 = model.emf(0.7) - model.terminal(0.7, 5.0)
        sag2 = model.emf(0.7) - model.terminal(0.7, 10.0)
        assert sag2 == pytest.approx(2.0 * sag1)


class TestCutoff:
    def test_below_cutoff_detection(self, model):
        # Near empty under load the terminal sags past the LVD; a full
        # cabinet at a moderate current stays above it.
        assert model.terminal(0.02, 10.0) < model.params.v_cutoff
        assert model.terminal(0.9, 5.0) >= model.params.v_cutoff

    def test_max_discharge_for_cutoff_boundary(self, model):
        head = 0.5
        limit = model.max_discharge_for_cutoff(head)
        assert model.terminal(head, limit) == pytest.approx(model.params.v_cutoff)

    @given(head=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_max_discharge_never_negative(self, head):
        model = VoltageModel(VoltageParams())
        assert model.max_discharge_for_cutoff(head) >= 0.0


class TestValidation:
    def test_bad_emf_order(self):
        with pytest.raises(ValueError):
            VoltageParams(emf_empty=26.0, emf_full=25.0).validate()

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            VoltageParams(v_cutoff=30.0).validate()

    def test_bad_resistance(self):
        with pytest.raises(ValueError):
            VoltageParams(r_internal_ohm=0.0).validate()
