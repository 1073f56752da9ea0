"""Policy scenario cells: sustainability overlays on the golden plant.

Each scenario pins one (controller, workload, weather) plant configuration
and attaches a set of :class:`repro.policy.policy.Policy` overlays — the
signal × governor × control-method compositions of :mod:`repro.policy` —
turning the paper's solar-only installation into a grid-aware one:

* ``carbon-chasing`` — a step governor over the synthetic grid carbon
  intensity caps the rack DVFS duty cycle when the grid runs dirty, so
  compute concentrates in the low-carbon midday window.
* ``price-arbitrage`` — a linear governor over the synthetic day-ahead
  energy price ramps the VM target down as the price climbs through the
  morning and evening demand peaks.
* ``grid-hybrid`` — a carbon zone table caps duty *and* a price staircase
  caps the solar charge current (high-price surplus is exported rather
  than stored), the grid-assisted hybrid of the two.

Scenarios are deterministic cells exactly like the golden matrix: the
seed derives from the scenario name, the synthetic signals are pure
functions of (seed, t), and ``repro validate`` pins their trace digests
alongside the 12 matrix cells.  :func:`run_scenario_cell` is the
picklable experiment entry point, a site cell that the fleet backend
batches as well (see :func:`repro.experiments.runner.site_cell`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import SiteSpec, day_site
from repro.experiments.runner import derive_seed, site_cell
from repro.policy.policy import Policy
from repro.policy.registry import PolicyDef, build_policy

# Scenario cells share the golden matrix's run configuration.
from repro.validate.golden import (
    BASE_SEED,
    DT_SECONDS,
    INITIAL_SOC,
    TARGET_MEAN_W,
)


@dataclass(frozen=True)
class ScenarioSpec:
    """A pinned plant configuration plus its policy overlays."""

    name: str
    controller: str
    workload: str
    weather: str
    policies: tuple[PolicyDef, ...]
    description: str


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="carbon-chasing",
            controller="insure",
            workload="seismic",
            weather="sunny",
            policies=(
                PolicyDef(
                    name="carbon-duty",
                    signal="carbon",
                    governor="step:420=80%:560=60%",
                    control="duty_cap",
                ),
            ),
            description=(
                "Cap the DVFS duty cycle when grid carbon intensity runs "
                "above its daily mean; batch compute chases the clean "
                "midday window."
            ),
        ),
        ScenarioSpec(
            name="price-arbitrage",
            controller="insure",
            workload="video",
            weather="sunny",
            policies=(
                PolicyDef(
                    name="price-vms",
                    signal="price",
                    governor="linear:20:48:max:40%",
                    control="vm_retarget",
                ),
            ),
            description=(
                "Ramp the VM target down as the day-ahead energy price "
                "climbs through the morning and evening demand peaks."
            ),
        ),
        ScenarioSpec(
            name="grid-hybrid",
            controller="insure",
            workload="seismic",
            weather="cloudy",
            policies=(
                PolicyDef(
                    name="carbon-duty",
                    signal="carbon",
                    governor="list:green=max:yellow=90%:red=70%:black=50%",
                    control="duty_cap",
                ),
                PolicyDef(
                    name="price-charge",
                    signal="price",
                    governor="step:30=70%:45=40%",
                    control="charge_current_cap",
                    interval_s=900.0,
                ),
            ),
            description=(
                "Grid-assisted hybrid: carbon zones cap compute duty while "
                "expensive-hour solar surplus is exported instead of "
                "stored (charge-current cap)."
            ),
        ),
    )
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None


def scenario_seed(name: str) -> int:
    """The pinned per-scenario seed (golden cells and fleet use the same)."""
    get_scenario(name)
    return derive_seed(BASE_SEED, "scenario", name)


def build_policies(name: str, seed: int) -> list[Policy]:
    """Instantiate every policy of scenario ``name`` for ``seed``."""
    return [build_policy(pdef, seed) for pdef in get_scenario(name).policies]


@site_cell("scenarios.run_scenario_cell")
def run_scenario_cell(
    scenario: str,
    seed: int | None = None,
    initial_soc: float = INITIAL_SOC,
    dt: float = DT_SECONDS,
    target_mean_w: float = TARGET_MEAN_W,
) -> SiteSpec:
    """One deterministic scenario run, memoised in the run cache.

    Module-level and picklable, so the runner can fan scenario sweeps out
    across processes; the fleet backend caches its own results under
    ``fleet.scenarios.run_scenario_cell``.  ``seed`` defaults to the
    scenario's pinned seed.
    """
    spec = get_scenario(scenario)
    if seed is None:
        seed = scenario_seed(scenario)
    return day_site(spec.controller, spec.workload, spec.weather,
                    mean_w=target_mean_w, seed=seed, initial_soc=initial_soc,
                    dt=dt, scenario=scenario)
