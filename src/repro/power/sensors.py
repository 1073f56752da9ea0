"""Voltage and current transducers.

The prototype instrumented every battery with a CR Magnetics CR5310
voltage transducer (input 0-50 V DC) and an HCS 20-10 current transducer,
sampled by the PLC's analog input modules.  We model the measurement chain
as: range clipping → multiplicative gain error → additive Gaussian noise →
ADC quantisation.  Controllers therefore act on *sensed* values, never the
true plant state.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

#: Standard normals drawn per refill of a transducer's noise buffer.
NOISE_BLOCK = 256


class Transducer:
    """Generic measurement channel.

    Parameters
    ----------
    source:
        Callable returning the true physical value.
    lo, hi:
        Input measurement range; values outside are clipped.
    gain_error:
        Fixed per-device relative gain error, drawn at build time in
        calibrated hardware; pass 0 for an ideal sensor.
    noise_std:
        Standard deviation of additive noise, in engineering units.
    resolution_bits:
        ADC resolution of the PLC analog module over [lo, hi].
    rng:
        Random generator for noise; None disables noise.
    """

    def __init__(
        self,
        source: Callable[[], float],
        lo: float,
        hi: float,
        gain_error: float = 0.0,
        noise_std: float = 0.0,
        resolution_bits: int = 12,
        rng: np.random.Generator | None = None,
    ) -> None:
        if hi <= lo:
            raise ValueError("hi must exceed lo")
        if resolution_bits < 1 or resolution_bits > 24:
            raise ValueError("resolution_bits must be in [1, 24]")
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        self.source = source
        self.lo = lo
        self.hi = hi
        self.gain = 1.0 + gain_error
        self.noise_std = noise_std
        self.levels = 2**resolution_bits - 1
        self.rng = rng
        # Noise draws come from a pre-drawn block of standard normals,
        # scaled by noise_std at read time.  ``normal(0, s)`` is bitwise
        # ``s * standard_normal()`` and batch draws consume the generator
        # identically to scalar ones, so the sample stream is unchanged.
        self._noise_buf: list[float] = []
        self._noise_pos = 0

    def read(self) -> float:
        """One sample through the full measurement chain."""
        value = self.source() * self.gain
        if self.rng is not None and self.noise_std > 0.0:
            pos = self._noise_pos
            buf = self._noise_buf
            if pos >= len(buf):
                buf = self._noise_buf = self.rng.standard_normal(NOISE_BLOCK).tolist()
                pos = 0
            self._noise_pos = pos + 1
            value += self.noise_std * buf[pos]
        lo = self.lo
        hi = self.hi
        if value < lo:
            value = lo
        elif value > hi:
            value = hi
        span = hi - lo
        levels = self.levels
        code = round((value - lo) / span * levels)
        return lo + code * span / levels


class VoltageTransducer(Transducer):
    """CR5310-style DC voltage channel: 0-50 V input range."""

    def __init__(
        self,
        source: Callable[[], float],
        noise_std: float = 0.03,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(source, lo=0.0, hi=50.0, noise_std=noise_std, rng=rng)


class CurrentTransducer(Transducer):
    """HCS-style DC current channel: +/-25 A input range."""

    def __init__(
        self,
        source: Callable[[], float],
        noise_std: float = 0.05,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(source, lo=-25.0, hi=25.0, noise_std=noise_std, rng=rng)
