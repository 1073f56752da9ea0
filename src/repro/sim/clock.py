"""Fixed-step simulation clock.

All models in the reproduction advance in lock-step.  The clock tracks
absolute simulated seconds since the start of the run plus a configurable
time-of-day origin so solar geometry and the paper's operating schedule
(first PM on at 8:30 AM, all off after 6:30 PM) can be expressed naturally.
"""

from __future__ import annotations

SECONDS_PER_HOUR = 3600


class Clock:
    """Monotonic fixed-step clock.

    Parameters
    ----------
    dt:
        Step size in seconds.  Must be positive.
    start_hour:
        Time-of-day at ``t == 0`` expressed in hours (e.g. ``7.0`` for
        7:00 AM).  The paper's day-long traces start around 7 AM.
    """

    def __init__(self, dt: float = 1.0, start_hour: float = 7.0) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if not 0.0 <= start_hour < 24.0:
            raise ValueError(f"start_hour must be in [0, 24), got {start_hour}")
        self.dt = float(dt)
        self.start_hour = float(start_hour)
        self.t = 0.0
        self.step_index = 0

    def advance(self) -> None:
        """Move the clock forward by one step."""
        self.step_index += 1
        # Recompute from the step index to avoid floating-point drift over
        # long runs (a day at dt=1 is 86 400 accumulations).
        self.t = self.step_index * self.dt

    @property
    def hours(self) -> float:
        """Simulated hours elapsed since the start of the run."""
        return self.t / SECONDS_PER_HOUR

    @property
    def hour_of_day(self) -> float:
        """Wall-clock hour of day in [0, 24)."""
        return (self.start_hour + self.hours) % 24.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Clock(t={self.t:.1f}s, step={self.step_index}, "
            f"hour_of_day={self.hour_of_day:.2f})"
        )
