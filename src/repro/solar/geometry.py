"""Solar position geometry.

Standard textbook formulas (Cooper declination, hour angle) sufficient for
daily irradiance envelopes.  The prototype was deployed in Gainesville, FL
(latitude ~29.65° N), which is the default site.
"""

from __future__ import annotations

import math

GAINESVILLE_LATITUDE_DEG = 29.65


def declination_rad(day_of_year: int) -> float:
    """Solar declination (radians) via Cooper's formula."""
    if not 1 <= day_of_year <= 366:
        raise ValueError(f"day_of_year must be in [1, 366], got {day_of_year}")
    return math.radians(23.45) * math.sin(2.0 * math.pi * (284 + day_of_year) / 365.0)


def hour_angle_rad(hour_of_day: float) -> float:
    """Hour angle (radians): zero at solar noon, 15°/hour."""
    if not 0.0 <= hour_of_day < 24.0:
        raise ValueError(f"hour_of_day must be in [0, 24), got {hour_of_day}")
    return math.radians(15.0 * (hour_of_day - 12.0))


def cos_zenith(
    hour_of_day: float,
    day_of_year: int = 172,
    latitude_deg: float = GAINESVILLE_LATITUDE_DEG,
) -> float:
    """Cosine of the solar zenith angle, clamped at zero below the horizon.

    Defaults to the summer solstice at the prototype's site.
    """
    lat = math.radians(latitude_deg)
    dec = declination_rad(day_of_year)
    ha = hour_angle_rad(hour_of_day)
    value = math.sin(lat) * math.sin(dec) + math.cos(lat) * math.cos(dec) * math.cos(ha)
    return max(0.0, value)
