"""Solar geometry."""

import math

import pytest

from repro.solar.geometry import cos_zenith, declination_rad, hour_angle_rad


class TestDeclination:
    def test_solstices(self):
        assert declination_rad(172) == pytest.approx(math.radians(23.45), abs=0.01)
        assert declination_rad(355) == pytest.approx(math.radians(-23.45), abs=0.01)

    def test_equinox_near_zero(self):
        assert abs(declination_rad(81)) < math.radians(1.0)

    def test_rejects_bad_day(self):
        with pytest.raises(ValueError):
            declination_rad(0)
        with pytest.raises(ValueError):
            declination_rad(367)


class TestHourAngle:
    def test_zero_at_noon(self):
        assert hour_angle_rad(12.0) == 0.0

    def test_fifteen_degrees_per_hour(self):
        assert hour_angle_rad(13.0) == pytest.approx(math.radians(15.0))
        assert hour_angle_rad(11.0) == pytest.approx(math.radians(-15.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hour_angle_rad(24.0)


class TestZenith:
    def test_peak_at_noon(self):
        values = [cos_zenith(h) for h in (8.0, 10.0, 12.0, 14.0, 16.0)]
        assert max(values) == values[2]

    def test_zero_at_night(self):
        assert cos_zenith(1.0) == 0.0
        assert cos_zenith(23.0) == 0.0

    def test_symmetric_about_noon(self):
        assert cos_zenith(10.0) == pytest.approx(cos_zenith(14.0), rel=1e-9)

    def test_winter_lower_than_summer(self):
        assert cos_zenith(12.0, day_of_year=355) < cos_zenith(12.0, day_of_year=172)
