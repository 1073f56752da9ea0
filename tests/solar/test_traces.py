"""Calibrated day traces (Figure 15, Table 6)."""

import math
import sys

import numpy as np
import pytest

from repro.solar.traces import (
    DAY_ENERGY_KWH,
    HIGH_TRACE_MEAN_W,
    LOW_TRACE_MEAN_W,
    DayTrace,
    make_day_trace,
    paper_high_trace,
    paper_low_trace,
    scale_to_mean_power,
    table6_trace,
)


class TestCalibration:
    def test_high_trace_mean(self):
        assert paper_high_trace().mean_power_w == pytest.approx(HIGH_TRACE_MEAN_W)

    def test_low_trace_mean(self):
        assert paper_low_trace().mean_power_w == pytest.approx(LOW_TRACE_MEAN_W)

    @pytest.mark.parametrize("day", ["sunny", "cloudy", "rainy"])
    def test_table6_energies(self, day):
        assert table6_trace(day).energy_kwh == pytest.approx(DAY_ENERGY_KWH[day])

    def test_sunny_more_energy_than_rainy(self):
        sunny = make_day_trace("sunny", seed=1)
        rainy = make_day_trace("rainy", seed=1)
        assert sunny.energy_kwh > rainy.energy_kwh


class TestDeterminism:
    def test_same_seed_identical(self):
        a = make_day_trace("cloudy", seed=5)
        b = make_day_trace("cloudy", seed=5)
        assert np.array_equal(a.power_w, b.power_w)

    def test_different_seed_differs(self):
        a = make_day_trace("cloudy", seed=5)
        b = make_day_trace("cloudy", seed=6)
        assert not np.array_equal(a.power_w, b.power_w)


class TestAccessors:
    def test_at_indexing(self):
        trace = make_day_trace("sunny", dt_seconds=10.0)
        assert trace.at(0.0) == trace.power_w[0]
        assert trace.at(25.0) == trace.power_w[2]

    def test_at_past_end_zero(self):
        trace = make_day_trace("sunny")
        assert trace.at(trace.duration_s + 100.0) == 0.0

    def test_at_negative_rejected(self):
        trace = make_day_trace("sunny")
        with pytest.raises(ValueError):
            trace.at(-1.0)

    def test_duration(self):
        trace = make_day_trace("sunny", dt_seconds=5.0)
        assert trace.duration_s == pytest.approx(13 * 3600.0, rel=0.01)


class TestValidation:
    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            make_day_trace("hurricane")

    def test_both_targets_rejected(self):
        with pytest.raises(ValueError):
            make_day_trace("sunny", target_energy_kwh=5.0, target_mean_w=400.0)

    def test_scale_to_mean_power(self):
        trace = make_day_trace("sunny", seed=2)
        scaled = scale_to_mean_power(trace, 500.0)
        assert scaled.mean_power_w == pytest.approx(500.0)
        # Shape preserved: correlation is exactly 1.
        corr = np.corrcoef(trace.power_w, scaled.power_w)[0, 1]
        assert corr == pytest.approx(1.0)

    def test_scale_rejects_negative(self):
        trace = make_day_trace("sunny")
        with pytest.raises(ValueError):
            scale_to_mean_power(trace, -10.0)

    # Any trace whose peak exceeds its mean overflows at the largest float.
    @pytest.mark.parametrize("target", [sys.float_info.max, math.inf, math.nan])
    def test_scaling_to_a_non_finite_trace_rejected(self, target):
        with pytest.raises(ValueError, match="non-finite"):
            make_day_trace("sunny", seed=3, target_mean_w=target)
        with pytest.raises(ValueError, match="non-finite"):
            make_day_trace("sunny", seed=3, target_energy_kwh=target)
        with pytest.raises(ValueError, match="non-finite"):
            scale_to_mean_power(make_day_trace("sunny", seed=3), target)

    def test_empty_trace_mean(self):
        empty = DayTrace(start_hour=7.0, dt_seconds=5.0, power_w=np.array([]))
        assert empty.mean_power_w == 0.0
