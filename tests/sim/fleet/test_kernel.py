"""Fleet kernel unit tests: specs, routing, grouping, short lockstep,
cached views."""

import dataclasses

import numpy as np
import pytest

from repro.sim.fleet import (
    FleetUnsupported,
    SiteSpec,
    simulate_fleet,
)
from repro.validate.golden import cell_site


def _spec(**overrides) -> SiteSpec:
    base = dict(
        controller="insure",
        workload="video",
        seed=11,
        initial_soc=0.55,
        trace_power_w=tuple(800.0 for _ in range(120)),
        trace_dt_s=5.0,
    )
    base.update(overrides)
    return SiteSpec(**base)


class TestSiteSpec:
    def test_duration_defaults_to_trace_length(self):
        assert _spec().resolved_duration_s() == 120 * 5.0

    def test_explicit_duration_wins(self):
        assert _spec(duration_s=60.0).resolved_duration_s() == 60.0

    def test_steps_rounds_like_the_engine(self):
        # Engine.run computes steps = max(1, round(duration / dt)).
        assert _spec(duration_s=12.4).steps() == 2
        assert _spec(duration_s=1.0).steps() == 1

    def test_unknown_controller_rejected(self):
        with pytest.raises(FleetUnsupported, match="controller"):
            simulate_fleet([_spec(controller="mppt")])

    def test_unknown_workload_rejected(self):
        with pytest.raises(FleetUnsupported, match="workload"):
            simulate_fleet([_spec(workload="batch")])

    def test_degenerate_bank_rejected(self):
        with pytest.raises(FleetUnsupported, match="degenerate"):
            simulate_fleet([_spec(battery_count=0)])

    @pytest.mark.parametrize("soc", [1.2, -0.1, float("nan")])
    def test_initial_soc_outside_unit_interval_rejected(self, soc):
        # The same error the scalar build raises (KiBaM's own check).
        with pytest.raises(ValueError, match=r"initial soc must be in \[0,1\]"):
            simulate_fleet([_spec(initial_soc=soc)])

    @pytest.mark.parametrize("bad", [-5.0, float("nan"), float("inf")])
    def test_bad_solar_sample_rejected_before_any_batch_runs(self, bad, monkeypatch):
        # DayTrace's rule, which the scalar build applies: the site whose
        # trace holds a negative, NaN or infinite sample is named, and no
        # batch runs, not even the good sites' own.
        from repro.sim.fleet import kernel

        def no_batch(specs):
            pytest.fail("a batch was built before every trace was checked")

        monkeypatch.setattr(kernel, "_FleetBatch", no_batch)
        trace = [800.0] * 120
        trace[7] = bad
        with pytest.raises(ValueError, match=r"site 2: power sample 7 is"):
            simulate_fleet([_spec(), _spec(controller="baseline"),
                            _spec(trace_power_w=tuple(trace))])

    @pytest.mark.parametrize("scenario", ["carbon-chasing", "grid-hybrid"])
    def test_duty_cap_on_baseline_rejected_by_both_kernels(self, scenario):
        # The baseline controller has no DVFS duty knob: the scalar build
        # refuses the duty_cap policy, and the kernel raises the same error.
        from repro.core.system import day_site

        site = day_site("baseline", "seismic", "sunny", mean_w=800.0, seed=3,
                        initial_soc=0.9, scenario=scenario)
        with pytest.raises(ValueError, match="duty knob"):
            site.build()
        with pytest.raises(ValueError, match="duty knob"):
            simulate_fleet([site])

    def test_rack_too_small_for_the_workload_rejected_by_both_kernels(self):
        # Three 2-slot servers cannot host video's 8 VMs: the scalar
        # allocator would raise at the first scale-up mid-run, so the
        # scalar build refuses the rack, and the kernel the same site.
        from repro.core.system import day_site

        site = dataclasses.replace(
            day_site("insure", "video", "sunny", mean_w=1400.0, seed=5,
                     initial_soc=0.55),
            server_count=3)
        with pytest.raises(ValueError, match="3 servers of 2 VM slots"):
            site.build()
        with pytest.raises(ValueError, match="3 servers of 2 VM slots"):
            simulate_fleet([site])


class TestTrace:
    @staticmethod
    def _batch(traces, duration_s):
        from repro.sim.fleet.kernel import _FleetBatch

        return _FleetBatch([_spec(trace_power_w=trace, duration_s=duration_s)
                            for trace in traces])

    def test_shared_and_short_traces_fill_their_rows(self):
        # Each tick's solar row holds every site's own sample: zero past
        # the end of a trace shorter than the horizon, the same samples
        # for sites sharing one trace object.
        from repro.sim.fleet import controllers

        shared = tuple(float(i) for i in range(200))
        short = np.arange(50, 100, dtype=np.float64)
        batch = self._batch((shared, short, shared), 600.0)
        controllers.start(batch)
        for k in range(batch.steps):
            batch.step_tick(k)
            want = [shared[k], short[k] if k < len(short) else 0.0, shared[k]]
            assert batch._solar_row.tolist() == want, k

    def test_sites_sharing_a_trace_share_one_stored_copy(self):
        shared = tuple(float(i) for i in range(200))
        twin = tuple(float(i) for i in range(200))  # equal, not the same object
        batch = self._batch((shared, twin, shared, shared), 600.0)
        col = batch._trace_col.tolist()
        assert col[0] == col[2] == col[3] != col[1]
        assert batch._trace.shape[1] == 2

    def test_batch_memory_grows_with_distinct_traces_not_site_ticks(self):
        # 48 sites over 3 day-long traces, built for 1 h and for 24 h:
        # what the batch holds may grow with the horizon by at most the
        # distinct traces' samples plus the per-tick arrival schedule,
        # never by sites x ticks.
        day = 17280
        traces = [np.full(day, 300.0 * (j + 1)) for j in range(3)]

        def held_and_schedule(duration_s):
            batch = self._batch([traces[i % 3] for i in range(48)], duration_s)
            roots = {}
            for value in vars(batch).values():
                while isinstance(value, np.ndarray) and value.base is not None:
                    value = value.base
                if isinstance(value, np.ndarray):
                    roots[id(value)] = value.nbytes
            schedule = sum(a.nbytes for a in (batch.n_by_tick, batch.arr_t, batch.arr_dl))
            return sum(roots.values()), schedule

        hour, _ = held_and_schedule(3600.0)
        full_day, schedule = held_and_schedule(86400.0)
        samples = sum(trace.nbytes for trace in traces)
        assert full_day - hour <= samples + schedule


class TestGrouping:
    def test_mixed_groups_return_in_input_order(self):
        # Two heterogeneous specs (different controllers) form two batch
        # groups; the scatter must restore input order exactly.
        a = _spec(controller="insure", seed=3)
        b = _spec(controller="baseline", seed=4)
        mixed = simulate_fleet([a, b, a])
        alone = [simulate_fleet([s])[0] for s in (a, b, a)]
        assert mixed == alone

    def test_identical_specs_are_deterministic(self):
        spec = _spec(seed=9)
        first = simulate_fleet([spec, spec])
        again = simulate_fleet([spec, spec])
        assert first == again
        assert first[0] == first[1]

    def test_distinct_seeds_get_distinct_noise_streams(self):
        # Summaries can coincide over short runs (ADC quantisation absorbs
        # small noise deltas), so assert at the RNG layer: each site's
        # sensor-noise stream is seeded from its own spec seed.
        from repro.sim.fleet.kernel import _FleetBatch

        spec = cell_site("insure", "video", "sunny")
        other = dataclasses.replace(spec, seed=spec.seed + 1)
        batch = _FleetBatch([spec, other])
        batch._refill_noise()  # blocks are lazily filled on tick 0
        assert not np.array_equal(batch._blk_v[..., 0], batch._blk_v[..., 1])
        # Same seed twice must reproduce the identical stream.
        twin = _FleetBatch([spec, spec])
        twin._refill_noise()
        assert np.array_equal(twin._blk_v[..., 0], twin._blk_v[..., 1])

    @pytest.mark.parametrize("battery_count", [3, 5])
    def test_a_site_does_not_depend_on_its_batch_mates(self, battery_count):
        # One site alone and the same site first in a two-site batch: every
        # summary field must match exactly.  The voltage sigma averages
        # 120 samples, which numpy would sum pairwise for one site but row
        # by row for two.
        spec = dataclasses.replace(
            cell_site("insure", "video", "sunny", duration_s=2 * 3600.0),
            battery_count=battery_count)
        mate = dataclasses.replace(spec, seed=spec.seed + 1)
        assert simulate_fleet([spec]) == simulate_fleet([spec, mate])[:1]

    def test_summary_has_the_run_summary_fields(self):
        from repro.telemetry.metrics import RunSummary

        summary = simulate_fleet([_spec()])[0]
        run = RunSummary(**summary)  # field names must match exactly
        assert run.elapsed_s == pytest.approx(120 * 5.0)


class TestLockstep:
    def test_tracks_scalar_engine_for_an_hour(self):
        # 720 ticks of the golden insure/video/sunny cell; every visible
        # state variable must match the scalar engine each tick (ints and
        # modes exactly, floats to ulp-level 1e-9).
        from repro.sim.fleet.debug import run_lockstep

        divergence = run_lockstep("insure", "video", "sunny",
                                  max_ticks=720, atol=1e-9, verbose=False)
        assert divergence is None, f"diverged: {divergence}"

    def test_baseline_controller_tracks_scalar(self):
        from repro.sim.fleet.debug import run_lockstep

        divergence = run_lockstep("baseline", "seismic", "cloudy",
                                  max_ticks=720, atol=1e-9, verbose=False)
        assert divergence is None, f"diverged: {divergence}"


def _view_site(controller, workload, weather, *, seed, soc, mean_w=800.0,
               scenario=None) -> SiteSpec:
    from repro.solar.traces import make_day_trace

    trace = make_day_trace(weather, dt_seconds=5.0, seed=seed,
                           target_mean_w=mean_w)
    return SiteSpec(controller, workload, seed, soc, tuple(trace.power_w),
                    5.0, duration_s=2 * 3600.0, scenario=scenario)


def _view_batches() -> list[tuple]:
    """(controller, workload, scenario) of every batch the views test."""
    from repro.experiments.scenarios import get_scenario, scenario_names

    batches = [(c, w, None) for c in ("insure", "baseline")
               for w in ("video", "seismic")]
    for name in scenario_names():
        spec = get_scenario(name)
        batches.append((spec.controller, spec.workload, name))
    return batches


class TestViews:
    """The cached rack and bank views never go stale, and the rows of
    stacked state stay rows."""

    #: Stacked state -> the names its rows go by.  Each is written only
    #: in place: a rebound name stops following its stack.
    STACKED_ROWS = {
        "_ema": ("ema", "ema_slow"),
        "_source": ("_tick_tv", "last_i"),
        "_integrals": ("uptime_s", "stored_int", "load_wh", "eff_wh",
                       "solar_wh", "used_wh", "curt_wh"),
        "_rows": ("_up_row", "_stored_row", "_metrics_demand", "_eff_row",
                  "_solar_row", "_used_row", "_rep_curtailed"),
    }

    @staticmethod
    def _assert_fresh(cached, fresh, tick):
        for name, held, derived in zip(cached._fields, cached, fresh):
            if not isinstance(held, np.ndarray):
                assert held == derived, f"tick {tick}: {name} is stale"
                continue
            assert held.dtype == derived.dtype and np.array_equal(
                held, derived
            ), f"tick {tick}: {name} is stale"
            try:
                held[...] = derived
            except ValueError:
                continue
            pytest.fail(f"tick {tick}: {name} is writable")

    @pytest.mark.parametrize(
        "controller,workload,scenario", _view_batches(),
        ids=lambda axis: axis or "bare",
    )
    def test_views_match_a_fresh_derivation_every_tick(
        self, controller, workload, scenario
    ):
        # Two ordinary sites per batch; the bare insure/video batch adds a
        # dim rainy day on a nearly empty bank, a site that sheds load.
        from repro.sim.fleet import controllers
        from repro.sim.fleet.kernel import _FleetBatch

        sites = [
            _view_site(controller, workload, weather, seed=5 + i,
                       soc=0.55 + 0.25 * i, scenario=scenario)
            for i, weather in enumerate(("sunny", "cloudy"))
        ]
        sheds = (controller, workload, scenario) == ("insure", "video", None)
        if sheds:
            sites.append(_view_site(controller, workload, "rainy", seed=3,
                                    soc=0.1, mean_w=300.0))
        batch = _FleetBatch(sites)
        controllers.start(batch)
        for k in range(batch.steps):
            batch.step_tick(k)
            self._assert_fresh(batch._rack_view(), batch._build_rack_view(), k)
            self._assert_fresh(batch._bank_view(), batch._build_bank_view(), k)
        assert batch.steps == 1440
        if sheds:
            assert batch.crash_count[-1] > 0
        for stack, rows in self.STACKED_ROWS.items():
            for row, name in zip(getattr(batch, stack), rows):
                assert np.shares_memory(getattr(batch, name), row), (
                    f"{name} was rebound and no longer a row of {stack}"
                )

