"""Clock behaviour."""

import pytest

from repro.sim.clock import SECONDS_PER_HOUR, Clock


class TestConstruction:
    def test_defaults(self):
        clock = Clock()
        assert clock.t == 0.0
        assert clock.step_index == 0
        assert clock.dt == 1.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            Clock(dt=0.0)
        with pytest.raises(ValueError):
            Clock(dt=-1.0)

    def test_rejects_bad_start_hour(self):
        with pytest.raises(ValueError):
            Clock(start_hour=24.0)
        with pytest.raises(ValueError):
            Clock(start_hour=-0.1)


class TestAdvance:
    def test_advance_moves_time_by_dt(self):
        clock = Clock(dt=5.0)
        clock.advance()
        assert clock.t == 5.0
        assert clock.step_index == 1

    def test_no_floating_point_drift(self):
        clock = Clock(dt=0.1)
        for _ in range(100_000):
            clock.advance()
        assert clock.t == pytest.approx(10_000.0, abs=1e-6)

    def test_hours_property(self):
        clock = Clock(dt=SECONDS_PER_HOUR)
        clock.advance()
        assert clock.hours == pytest.approx(1.0)


class TestTimeOfDay:
    def test_start_hour_respected(self):
        clock = Clock(start_hour=7.0)
        assert clock.hour_of_day == pytest.approx(7.0)

    def test_wraps_midnight(self):
        clock = Clock(dt=SECONDS_PER_HOUR, start_hour=23.0)
        clock.advance()
        clock.advance()
        assert clock.hour_of_day == pytest.approx(1.0)
