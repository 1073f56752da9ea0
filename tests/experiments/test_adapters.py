"""Fleet backend routing of site cells, cell-id failure naming, Monte
Carlo stats."""

import os

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.fullsystem import run_single
from repro.experiments.montecarlo import (
    PERCENTILES,
    format_monte_carlo,
    monte_carlo_cells,
)
from repro.experiments.provisioning import run_provisioning_cell
from repro.experiments.runner import (
    BACKENDS,
    CellExecutionError,
    _cell_label,
    run_cells,
)
from repro.experiments.scenarios import run_scenario_cell
from repro.experiments.table6 import run_table6_cell
from repro.sim.fleet import FleetUnsupported


def _double(x):
    """Module-level (picklable) cell function that describes no site."""
    return x * 2


def _pid(x):
    return os.getpid()


def _explode_on_two(x):
    if x == 2:
        raise ValueError(f"cell {x} blew up")
    return x


#: One cell of each site cell.
SITE_CELLS = [
    (run_single, dict(controller="insure", workload_kind="video",
                      profile="sunny", solar_mean_w=800.0, seed=5)),
    (run_table6_cell, dict(day="cloudy", controller="insure", seed=2)),
    (run_provisioning_cell, dict(battery_count=3, solar_scale=1.0, seed=4)),
    (run_scenario_cell, dict(scenario="carbon-chasing")),
]


class TestSiteCells:
    """A site cell is written once: the pool builds the site it
    describes, and the fleet backend batches the same site."""

    @pytest.mark.parametrize(("fn", "cell"), SITE_CELLS,
                             ids=[fn.__name__ for fn, _ in SITE_CELLS])
    def test_fleet_batches_the_site_the_cell_describes(self, fn, cell, monkeypatch):
        class Captured(Exception):
            pass

        batches = []

        def capture(specs):
            batches.append(specs)
            raise Captured

        monkeypatch.setattr("repro.sim.fleet.simulate_fleet", capture)
        with pytest.raises(Captured):
            runner._run_fleet(fn, [dict(cell, use_cache=False)])
        [[spec]] = batches
        want = fn.site(**fn.bind(**cell)[0])
        for field, value in vars(want).items():
            if field != "trace_power_w":
                assert getattr(spec, field) == value, field
        # A tuple of np.float64 objects costs about 40 B a sample against
        # 8 in an array: every site cell hands the kernel DayTrace.power_w.
        trace = spec.trace_power_w
        assert isinstance(trace, np.ndarray)
        assert trace.dtype == np.float64 and trace.ndim == 1
        assert np.array_equal(trace, want.trace_power_w)

    @pytest.mark.parametrize(("fn", "cell"), [
        (run_single, dict(controller="baseline", workload_kind="seismic",
                          profile="cloudy", solar_mean_w=500.0, seed=3, dt=60.0)),
        (run_table6_cell, dict(day="rainy", controller="insure", dt=60.0)),
        (run_scenario_cell, dict(scenario="grid-hybrid", dt=60.0)),
    ], ids=["run_single", "run_table6_cell", "run_scenario_cell"])
    def test_scalar_run_is_the_site_built_and_run(self, fn, cell):
        # The coarse step keeps the scalar days cheap.
        params, _ = fn.bind(**cell)
        assert vars(fn(**cell, use_cache=False)) == vars(
            fn.site(**params).build().run())

    def test_functions_describing_no_site_fall_back(self):
        from repro.experiments.extensions import run_storage_cell

        # A cached experiment cell that is no site cell falls back too.
        for fn, cell in ((run_storage_cell, dict(controller="insure")),
                         (_double, dict(x=1))):
            with pytest.raises(FleetUnsupported, match="describes no site"):
                runner._run_fleet(fn, [cell])

    def test_unbound_arguments_and_unknown_scenarios_raise_their_own_error(self):
        with pytest.raises(TypeError):
            run_cells(run_single, [dict(controller="insure")], backend="fleet")
        with pytest.raises(ValueError, match="unknown scenario"):
            run_cells(run_scenario_cell, [dict(scenario="nope", use_cache=False)],
                      backend="fleet")


class TestFleetCacheSeparation:
    """Scalar and fleet results of one cell live in separate cache entries:
    the fleet kernel is only tolerance-equal to the scalar reference."""

    #: One run_single cell; the coarse step keeps the scalar day cheap.
    CELL = dict(controller="insure", workload_kind="video", profile="sunny",
                solar_mean_w=800.0, seed=5, dt=60.0)

    def test_neither_backend_replays_the_other(self, monkeypatch, tmp_path):
        import dataclasses

        from repro.sim.cache import RunCache, summary_to_payload

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        scalar = run_single(**self.CELL)
        assert RunCache(tmp_path).entry_count() == 1

        fleet_summary = dataclasses.replace(scalar, processed_gb=-1.0)
        batches = []

        def fake_simulate_fleet(specs):
            batches.append(len(specs))
            return [summary_to_payload(fleet_summary) for _ in specs]

        monkeypatch.setattr("repro.sim.fleet.simulate_fleet", fake_simulate_fleet)

        assert run_cells(run_single, [self.CELL], backend="fleet") == [
            fleet_summary]
        assert batches == [1]
        assert RunCache(tmp_path).entry_count() == 2

        assert run_single(**self.CELL) == scalar
        assert run_cells(run_single, [self.CELL], backend="fleet") == [
            fleet_summary]
        assert batches == [1]
        assert RunCache(tmp_path).entry_count() == 2


class TestBackendSelection:
    def test_backend_names_are_pinned(self):
        assert BACKENDS == ("fleet", "pool")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_cells(_double, [dict(x=1)], backend="gpu")

    def test_env_var_backend_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError, match="unknown backend"):
            run_cells(_double, [dict(x=1)])

    def test_fleet_degrades_to_pool_serial_for_unadapted_fn(self):
        cells = [dict(x=i) for i in range(4)]
        with pytest.warns(RuntimeWarning, match="fleet backend unavailable"):
            results = run_cells(_double, cells, backend="fleet", max_workers=1)
        assert results == [0, 2, 4, 6]

    def test_serial_backend_forces_in_process_loop(self):
        # One worker runs the cells in this process, pool or no pool.
        assert run_cells(_pid, [dict(x=i) for i in range(3)],
                         max_workers=1) == [os.getpid()] * 3


class TestCellFailureNaming:
    def test_label_includes_index_and_leading_kwargs(self):
        label = _cell_label(7, dict(controller="insure", seed=3,
                                    trace=[1, 2, 3]))
        assert label == "cell #7 (controller=insure, seed=3)"

    def test_pool_failure_names_the_cell(self):
        cells = [dict(x=i) for i in range(4)]
        with pytest.raises(CellExecutionError, match=r"cell #2 \(x=2\)") as info:
            run_cells(_explode_on_two, cells, max_workers=2, backend="pool")
        assert info.value.index == 2
        assert info.value.cell == dict(x=2)
        assert isinstance(info.value.__cause__, ValueError)

    def test_is_not_a_runtime_error(self):
        # The pool-infrastructure fallback catches RuntimeError; a named
        # cell failure must propagate, not trigger a serial re-run.
        assert not issubclass(CellExecutionError, RuntimeError)


class TestMonteCarloCells:
    def test_grid_order_and_distinct_seeds(self):
        cells = monte_carlo_cells((2, 4), 1.0, 3, base_seed=7,
                                  mean_w=900.0, use_cache=False)
        assert len(cells) == 6
        assert [c["battery_count"] for c in cells] == [2, 2, 2, 4, 4, 4]
        seeds = {c["seed"] for c in cells}
        assert len(seeds) == 6  # sha256-derived, all distinct

    def test_seeds_are_reproducible(self):
        first = monte_carlo_cells((3,), 1.0, 4, 7, 900.0, True)
        again = monte_carlo_cells((3,), 1.0, 4, 7, 900.0, True)
        assert first == again

    def test_format_renders_one_row_per_point(self):
        from repro.experiments.montecarlo import MonteCarloPoint

        point = MonteCarloPoint(
            battery_count=3, solar_scale=1.0, samples=8,
            uptime_pct={p: 0.9 for p in PERCENTILES},
            processed_pct={p: 12.0 for p in PERCENTILES},
            min_voltage_pct={p: 11.5 for p in PERCENTILES},
        )
        table = format_monte_carlo([point])
        lines = table.splitlines()
        assert "Cabinets" in lines[0]
        assert lines[-1].lstrip().startswith("3")
