"""Engine stepping, ordering, observers and multi-run lifecycle."""

import pytest

from repro.sim.component import Component
from repro.sim.engine import Engine, SimulationError


class Recorder(Component):
    """Records the order and times at which it is stepped."""

    def __init__(self, name, log):
        super().__init__(name)
        self.log = log
        self.started = False
        self.finished = False

    def start(self, clock):
        self.started = True

    def step(self, clock):
        self.log.append((self.name, clock.t))

    def finish(self, clock):
        self.finished = True


class TestRegistration:
    def test_duplicate_names_rejected(self):
        engine = Engine()
        engine.add(Recorder("a", []))
        with pytest.raises(SimulationError):
            engine.add(Recorder("a", []))

    def test_get_by_name(self):
        engine = Engine()
        comp = engine.add(Recorder("a", []))
        assert engine.get("a") is comp

    def test_get_unknown_raises(self):
        engine = Engine()
        engine.add(Recorder("a", []))
        with pytest.raises(SimulationError):
            engine.get("nope")

    def test_run_without_components_raises(self):
        with pytest.raises(SimulationError):
            Engine().run(10.0)

    def test_add_after_start_rejected(self):
        engine = Engine()
        engine.add(Recorder("a", []))
        engine.run(1.0)
        with pytest.raises(SimulationError):
            engine.add(Recorder("b", []))


class TestExecution:
    def test_components_step_in_registration_order(self):
        log = []
        engine = Engine(dt=1.0)
        engine.add(Recorder("first", log))
        engine.add(Recorder("second", log))
        engine.run(2.0)
        assert [name for name, _ in log] == ["first", "second", "first", "second"]

    def test_run_duration_step_count(self):
        log = []
        engine = Engine(dt=5.0)
        engine.add(Recorder("a", log))
        engine.run(60.0)
        assert len(log) == 12

    def test_lifecycle_hooks_called(self):
        comp = Recorder("a", [])
        engine = Engine()
        engine.add(comp)
        engine.run(1.0)
        assert comp.started and comp.finished

    def test_start_called_once_across_runs(self):
        starts = []

        class Once(Component):
            def start(self, clock):
                starts.append(clock.t)

            def step(self, clock):
                pass

        engine = Engine()
        engine.add(Once("o"))
        engine.run(2.0)
        engine.run(2.0)
        assert len(starts) == 1

    def test_invalid_duration(self):
        engine = Engine()
        engine.add(Recorder("a", []))
        with pytest.raises(ValueError):
            engine.run(0.0)


class TestObserversAndStops:
    def test_observer_fires_each_tick(self):
        ticks = []
        engine = Engine(dt=1.0)
        engine.add(Recorder("a", []))
        engine.observe(lambda clock: ticks.append(clock.t))
        engine.run(3.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_observer_every_fires_on_multiples_only(self):
        ticks = []
        engine = Engine(dt=1.0)
        engine.add(Recorder("a", []))
        engine.observe(lambda clock: ticks.append(clock.step_index), every=3)
        engine.run(4.0)
        engine.advance(4)  # sliced ticks keep the phase
        assert ticks == [0, 3, 6]
        with pytest.raises(ValueError, match="every"):
            engine.observe(lambda clock: None, every=0)

    def test_observer_runs_after_components(self):
        order = []

        class Noter(Component):
            def step(self, clock):
                order.append("component")

        engine = Engine()
        engine.add(Noter("n"))
        engine.observe(lambda clock: order.append("observer"))
        engine.run(1.0)
        assert order == ["component", "observer"]


class TestMultiRun:
    def test_finish_called_once_across_runs(self):
        """Extending a run (multi-day operation) must not re-finalise."""
        finishes = []

        class Once(Component):
            def step(self, clock):
                pass

            def finish(self, clock):
                finishes.append(clock.t)

        engine = Engine(dt=1.0)
        engine.add(Once("o"))
        engine.run(2.0)
        assert engine.finished
        engine.run(2.0)
        engine.run(2.0)
        assert len(finishes) == 1
        assert engine.clock.t == pytest.approx(6.0)

    def test_second_run_continues_the_clock(self):
        log = []
        engine = Engine(dt=1.0)
        engine.add(Recorder("a", log))
        engine.run(2.0)
        engine.run(2.0)
        assert [t for _, t in log] == [0.0, 1.0, 2.0, 3.0]
