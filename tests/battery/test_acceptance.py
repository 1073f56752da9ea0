"""Charge acceptance and charging losses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.acceptance import ChargeAcceptance
from repro.battery.params import AcceptanceParams


@pytest.fixture
def acceptance():
    return ChargeAcceptance(35.0, AcceptanceParams())


class TestCeiling:
    def test_bulk_plateau(self, acceptance):
        bulk = acceptance.params.bulk_c_rate * 35.0
        assert acceptance.max_current(0.0) == pytest.approx(bulk)
        assert acceptance.max_current(0.5) == pytest.approx(bulk)

    def test_taper_above_knee(self, acceptance):
        knee = acceptance.params.taper_start_soc
        assert acceptance.max_current(knee + 0.05) < acceptance.max_current(knee)

    def test_floor_at_full(self, acceptance):
        floor = acceptance.params.float_c_rate * 35.0
        assert acceptance.max_current(1.0) >= floor

    def test_monotonically_nonincreasing(self, acceptance):
        values = [acceptance.max_current(s / 20.0) for s in range(21)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:], strict=False))


class TestEffectiveCurrent:
    def test_zero_applied_zero_effective(self, acceptance):
        assert acceptance.effective_current(0.0, 0.5) == 0.0

    def test_parasitic_deduction(self, acceptance):
        applied = 5.0
        effective = acceptance.effective_current(applied, 0.3)
        assert effective == pytest.approx(applied - acceptance.params.parasitic_amps)

    def test_tiny_current_fully_lost(self, acceptance):
        assert acceptance.effective_current(0.3, 0.3) == 0.0

    def test_gassing_loss_near_full(self, acceptance):
        lo = acceptance.effective_current(2.0, 0.5)
        hi = acceptance.effective_current(2.0, 0.99)
        assert hi < lo

    def test_ceiling_applies_before_losses(self, acceptance):
        bulk = acceptance.params.bulk_c_rate * 35.0
        effective = acceptance.effective_current(100.0, 0.2)
        assert effective <= bulk

    @given(applied=st.floats(0.0, 30.0), soc=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_effective_bounded_by_applied(self, applied, soc):
        acceptance = ChargeAcceptance(35.0, AcceptanceParams())
        effective = acceptance.effective_current(applied, soc)
        assert 0.0 <= effective <= applied + 1e-12


class TestEfficiency:
    """Coulombic efficiency: the landed share of the applied current."""

    def test_efficiency_in_unit_interval(self, acceptance):
        for soc in (0.1, 0.5, 0.9, 1.0):
            eta = acceptance.effective_current(6.0, soc) / 6.0
            assert 0.0 <= eta <= 1.0

    def test_efficiency_higher_at_high_current(self, acceptance):
        """Fixed parasitic losses hurt small currents disproportionately."""
        assert (acceptance.effective_current(8.0, 0.3) / 8.0
                > acceptance.effective_current(1.5, 0.3) / 1.5)


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            AcceptanceParams(bulk_c_rate=0.0).validate()
        with pytest.raises(ValueError):
            AcceptanceParams(taper_start_soc=1.5).validate()
        with pytest.raises(ValueError):
            AcceptanceParams(gassing_fraction=1.5).validate()
        with pytest.raises(ValueError):
            ChargeAcceptance(0.0, AcceptanceParams())
