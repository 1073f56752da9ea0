"""Discrete-time simulation kernel used by every InSURE subsystem.

The kernel is intentionally small: a fixed-step :class:`~repro.sim.clock.Clock`,
a :class:`~repro.sim.component.Component` protocol, an
:class:`~repro.sim.engine.Engine` that steps registered components in a
deterministic order, a seeded random-stream factory, and trace recording.
Everything in the reproduction (battery kinetics, solar generation, PLC
control, server cluster) is built as components stepped by a single engine
so experiments are reproducible end to end.
"""

from repro.sim.clock import Clock, SECONDS_PER_HOUR
from repro.sim.component import Component
from repro.sim.engine import Engine, SimulationError
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder

__all__ = [
    "Clock",
    "Component",
    "Engine",
    "RandomStreams",
    "SECONDS_PER_HOUR",
    "SimulationError",
    "TraceRecorder",
]
