"""Randomized differential lockstep: scalar engine vs a 1-site batch.

The pinned cells cover one seed, one SoC and the default plant each.
Here hypothesis draws the site — controller, workload, weather, seed,
initial SoC, solar mean, bank and rack size, policy scenario — builds
both kernels from one day trace and steps them an hour in lockstep.  The
trace starts at 07:00, so that hour reaches the discharge, charge and
float branches.  Policies write the rack off the controller cadence, so
at least one drawn site must have a policy lower its duty or VM target.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.system import build_system  # noqa: E402
from repro.experiments.scenarios import build_policies  # noqa: E402
from repro.sim.fleet.debug import step_lockstep  # noqa: E402
from repro.sim.fleet.kernel import SiteSpec, _FleetBatch  # noqa: E402
from repro.solar.traces import make_day_trace  # noqa: E402
from repro.workloads import make_workload  # noqa: E402

DT_S = 5.0
TICKS = 720
#: Scenarios whose controls the baseline controller can take: it has no
#: duty knob, so both kernels reject a duty_cap policy at build time.
BASELINE_SCENARIOS = (None, "price-arbitrage")


def _spy_policy_cuts(batch: _FleetBatch) -> list[bool]:
    """Record, per policy firing, whether it lowered a duty or VM target."""
    cuts: list[bool] = []
    step = batch._policy_step

    def spied(k: int) -> None:
        duty, vms = batch.duty_deci.copy(), batch.vm_target.copy()
        step(k)
        cuts.append(bool((batch.duty_deci < duty).any()
                         or (batch.vm_target < vms).any()))

    batch._policy_step = spied
    return cuts


def test_random_site_tracks_scalar():
    policy_cut = []

    @given(
        controller=st.sampled_from(["insure", "baseline"]),
        workload=st.sampled_from(["video", "seismic"]),
        weather=st.sampled_from(["sunny", "cloudy", "rainy"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        initial_soc=st.floats(min_value=0.05, max_value=1.0),
        mean_w=st.sampled_from([400.0, 700.0, 1000.0, 1400.0]),
        battery_count=st.integers(min_value=1, max_value=5),
        server_count=st.integers(min_value=4, max_value=6),
        scenario=st.sampled_from(
            [None, "carbon-chasing", "grid-hybrid", "price-arbitrage"]
        ),
    )
    @settings(max_examples=12, derandomize=True, deadline=None)
    def tracks(controller, workload, weather, seed, initial_soc, mean_w,
               battery_count, server_count, scenario):
        assume(controller == "insure" or scenario in BASELINE_SCENARIOS)
        trace = make_day_trace(weather, dt_seconds=DT_S, seed=seed,
                               target_mean_w=mean_w)
        policies = build_policies(scenario, seed) if scenario else None
        system = build_system(trace, make_workload(workload),
                              controller=controller,
                              battery_count=battery_count,
                              server_count=server_count,
                              initial_soc=initial_soc, seed=seed, dt=DT_S,
                              policies=policies)
        batch = _FleetBatch([SiteSpec(
            controller, workload, seed, initial_soc, tuple(trace.power_w),
            DT_S, battery_count=battery_count, server_count=server_count,
            duration_s=TICKS * DT_S, scenario=scenario,
        )])
        cuts = _spy_policy_cuts(batch)
        divergence = step_lockstep(system, batch, max_ticks=TICKS, atol=1e-9,
                                   verbose=False)
        assert divergence is None, f"diverged: {divergence}"
        policy_cut.append(any(cuts))

    tracks()
    assert any(policy_cut), "no drawn site had a policy lower duty or VMs"
