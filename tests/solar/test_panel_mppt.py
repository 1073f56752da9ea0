"""PV panel curve and P&O MPPT tracking."""

import numpy as np
import pytest

from repro.solar.mppt import PerturbObserveMPPT
from repro.solar.panel import PVPanel


@pytest.fixture
def panel():
    return PVPanel()


class TestPanel:
    def test_max_power_scales_with_irradiance(self, panel):
        assert panel.max_power(500.0) == pytest.approx(0.5 * panel.max_power(1000.0))

    def test_dark_panel_produces_nothing(self, panel):
        assert panel.max_power(0.0) == 0.0
        assert panel.power_at(30.0, 0.0) == 0.0

    def test_power_zero_at_voltage_extremes(self, panel):
        v_oc = panel.v_oc(1000.0)
        assert panel.power_at(0.0, 1000.0) == 0.0
        assert panel.power_at(v_oc, 1000.0) == 0.0

    def test_curve_peaks_at_v_mpp(self, panel):
        # A fine voltage sweep of the P-V curve peaks at max_power, inside
        # the curve, not at either end.
        volts = np.linspace(0.0, panel.v_oc(1000.0), 20001)
        powers = [panel.power_at(v, 1000.0) for v in volts]
        peak = int(np.argmax(powers))
        assert 0 < peak < len(volts) - 1
        assert powers[peak] == pytest.approx(panel.max_power(1000.0), rel=1e-6)
        assert max(powers) <= panel.max_power(1000.0) * (1.0 + 1e-12)

    def test_voc_shrinks_in_low_light(self, panel):
        assert panel.v_oc(100.0) < panel.v_oc(1000.0)

    def test_rejects_bad_rating(self):
        with pytest.raises(ValueError):
            PVPanel(rated_w=0.0)
        with pytest.raises(ValueError):
            PVPanel(derate=1.5)

    def test_derate_applied(self):
        lossless = PVPanel(derate=1.0)
        lossy = PVPanel(derate=0.8)
        assert lossy.max_power(1000.0) == pytest.approx(
            0.8 * lossless.max_power(1000.0)
        )


class TestMPPT:
    def test_settles_near_mpp(self, panel):
        mppt = PerturbObserveMPPT(panel)
        outputs = [mppt.step(800.0, 5.0) for _ in range(600)]
        settled = np.mean(outputs[300:])
        assert settled > 0.97 * panel.max_power(800.0)

    def test_reacquires_after_irradiance_step(self, panel):
        mppt = PerturbObserveMPPT(panel)
        for _ in range(300):
            mppt.step(900.0, 5.0)
        outputs = [mppt.step(300.0, 5.0) for _ in range(300)]
        assert np.mean(outputs[150:]) > 0.95 * panel.max_power(300.0)

    def test_oscillates_around_knee(self, panel):
        """P&O never sits still: its probing creates output ripple."""
        mppt = PerturbObserveMPPT(panel)
        outputs = [mppt.step(800.0, 5.0) for _ in range(400)]
        assert np.std(outputs[200:]) > 0.0

    def test_tracking_efficiency_bounded(self, panel):
        mppt = PerturbObserveMPPT(panel)
        for _ in range(100):
            mppt.step(700.0, 5.0)
        assert 0.0 < panel.power_at(mppt.v_op, 700.0) <= panel.max_power(700.0)

    def test_rejects_bad_params(self, panel):
        with pytest.raises(ValueError):
            PerturbObserveMPPT(panel, step_fraction=0.0)
        with pytest.raises(ValueError):
            PerturbObserveMPPT(panel, period_s=0.0)
        mppt = PerturbObserveMPPT(panel)
        with pytest.raises(ValueError):
            mppt.step(800.0, 0.0)
