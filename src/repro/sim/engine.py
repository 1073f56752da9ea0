"""Fixed-step simulation engine.

The engine owns the clock and a registry of components.  Each tick it steps
every component in registration order, then fires any per-tick observers
(used by the trace recorder).  Every run executes exactly the ticks that
cover its duration.

There is one tick loop: component ``step`` methods and observers are
pre-bound into a flat list once per call and the clock is advanced inline.
A day-long full-system run executes ~17k ticks, so the per-tick dispatch
overhead matters for every experiment.

An observer registered with ``every=N`` is fired on the ticks whose index
is a multiple of N only, so a decimated observer (the trace recorder, the
alert engine) costs nothing on the ticks it skips.

When a span tracer is attached (``engine.tracer``, see
:mod:`repro.obs.spans`), the ticks on its sampling stride run every
component and every fired observer inside its span; the other ticks take
the untraced path and ask the tracer nothing.  The tracer only *observes*
— with it attached or not, same-seed runs take the identical sequence of
component steps and produce bit-identical traces.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.sim.clock import Clock
from repro.sim.component import Component


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Engine:
    """Steps registered components against a shared clock.

    Parameters
    ----------
    dt:
        Step size in seconds.
    start_hour:
        Wall-clock hour of day at ``t == 0``.
    """

    def __init__(self, dt: float = 1.0, start_hour: float = 7.0) -> None:
        self.clock = Clock(dt=dt, start_hour=start_hour)
        #: Optional span tracer (duck-typed, see repro.obs.spans).  None
        #: samples no tick.
        self.tracer = None
        self._components: list[Component] = []
        self._by_name: dict[str, Component] = {}
        self._observers: list[tuple[str, Callable[[Clock], None], int]] = []
        self._started = False
        self._finished = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register a component; returns it for fluent assembly."""
        if self._started:
            raise SimulationError("cannot add components after the run started")
        if component.name in self._by_name:
            raise SimulationError(f"duplicate component name: {component.name!r}")
        self._components.append(component)
        self._by_name[component.name] = component
        return component

    def get(self, name: str) -> Component:
        """Look up a registered component by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SimulationError(f"no component named {name!r}") from None

    def observe(self, callback: Callable[[Clock], None],
                name: str | None = None, every: int = 1) -> None:
        """Register an observer fired after all components step, on the
        ticks whose index is a multiple of ``every``.

        ``name`` labels the observer's span on traced ticks (so the
        profile attributes recorder/checker/alert cost individually);
        unnamed observers are labelled after their class.
        """
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if name is None:
            name = type(callback).__name__.lower()
        self._observers.append((f"obs.{name}", callback, int(every)))

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components)

    @property
    def observers(self) -> tuple[tuple[str, Callable[[Clock], None], int], ...]:
        """(span name, callback, every) of each observer, in firing order."""
        return tuple(self._observers)

    @property
    def finished(self) -> bool:
        """Whether component ``finish`` hooks have fired."""
        return self._finished

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration: float) -> Clock:
        """Run for ``duration`` simulated seconds; returns the clock.

        ``run`` may be called again to extend a run (e.g. multi-day
        operation); ``start`` and ``finish`` hooks each fire exactly once,
        the first time the engine starts and finishes respectively.
        """
        steps = self.begin(duration)
        self._run_kernel(steps)
        self.end()
        return self.clock

    def begin(self, duration: float) -> int:
        """Open a (possibly sliced) run: fire ``start`` hooks, size the run.

        Returns the tick count covering ``duration``.  Together with
        :meth:`advance` and :meth:`end` this is the non-blocking face of
        the engine: a host may interleave many engines on one thread by
        advancing each a bounded slice of ticks at a time.  ``run`` is
        exactly ``begin`` + one full-length ``advance`` + ``end``, so
        sliced stepping takes the identical sequence of component steps
        and produces bit-identical traces.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if not self._components:
            raise SimulationError("no components registered")
        clock = self.clock
        if not self._started:
            self._started = True
            for component in self._components:
                component.start(clock)
        return max(1, round(duration / clock.dt))

    def advance(self, ticks: int) -> int:
        """Step ``ticks`` ticks; returns the count executed (0 if ``ticks``
        is not positive).  Requires a prior :meth:`begin` (or :meth:`run`).
        """
        if ticks <= 0:
            return 0
        if not self._started:
            raise SimulationError("advance() before begin()")
        ticks = int(ticks)
        self._run_kernel(ticks)
        return ticks

    def end(self) -> None:
        """Close the run: fire ``finish`` hooks (exactly once)."""
        if not self._finished:
            self._finished = True
            for component in self._components:
                component.finish(self.clock)

    def _run_kernel(self, steps: int) -> None:
        """The tick loop: pre-bound dispatch, inline clock advance, and
        per-component spans on the ticks an attached tracer samples."""
        clock = self.clock
        dt = clock.dt
        tracer = self.tracer
        stride = tracer.stride if tracer is not None else 0
        calls = [(component.name, component.step) for component in self._components]
        fns = [fn for _, fn in calls]
        observers = self._observers
        index = clock.step_index
        sampled = 0
        for _ in range(steps):
            if stride and not index % stride:
                sampled += 1
                tracer.begin_tick(index, clock.t)
                for name, fn in calls:
                    tracer.push(name)
                    fn(clock)
                    tracer.pop()
                for name, fn, every in observers:
                    if not index % every:
                        tracer.push(name)
                        fn(clock)
                        tracer.pop()
                tracer.end_tick()
            else:
                for fn in fns:
                    fn(clock)
                for _, fn, every in observers:
                    if not index % every:
                        fn(clock)
            index += 1
            clock.step_index = index
            clock.t = index * dt
        if tracer is not None:
            tracer.skip_ticks(steps - sampled)
