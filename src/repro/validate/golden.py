"""Golden-trace regression harness.

Every cell of the controller × workload × weather experiment matrix is a
deterministic function of its configuration, so its simulation traces and
run summary can be *content-hashed* and pinned.  A golden record stores,
per cell:

* the exact configuration that produced it,
* a SHA-256 digest of every trace channel's raw float64 samples (any
  bit-level drift in the same-seed trajectory changes the digest),
* the :class:`~repro.telemetry.metrics.RunSummary` scalars rounded to a
  coarse tolerance (6 significant digits — figure-level resolution, so a
  digest diff always comes with human-readable "what moved" context),
* the invariant-checker verdict for the run.

Records live under ``tests/golden/`` (one JSON file per cell, sorted keys,
indented — reviewable in a diff).  ``pytest -m golden`` and the
``repro validate`` CLI subcommand recompute the matrix and compare;
``repro validate --refresh`` re-seeds the records after an *intentional*
behaviour change.

Cells are computed by a module-level picklable function so the matrix can
fan out through :func:`repro.experiments.runner.run_cells`; digests are
identical across worker counts by construction (each cell is seeded
independently via :func:`repro.experiments.runner.derive_seed`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Mapping, Sequence
from typing import Any

from repro.core.system import build_day_system
from repro.experiments.runner import derive_seed, run_cells
from repro.telemetry.metrics import RunSummary
from repro.workloads import make_workload

#: The pinned experiment matrix.
CONTROLLERS = ("insure", "baseline")
WORKLOADS = ("video", "seismic")
WEATHERS = ("sunny", "cloudy", "rainy")

#: Fixed run configuration for every golden cell.
BASE_SEED = 1
TARGET_MEAN_W = 800.0
INITIAL_SOC = 0.55
DT_SECONDS = 5.0
#: One full simulated day: 17 280 ticks at dt=5 (the solar trace covers
#: the daylight window; the tail exercises night-time battery operation).
DURATION_S = 24 * 3600.0
#: Invariant-check stride used for golden runs.
CHECK_STRIDE = 12
#: Significant digits kept of each RunSummary scalar.  Far coarser than
#: float64 so incidental last-ulp wobble in derived statistics can never
#: flake the suite, yet well inside figure-level resolution.
SUMMARY_SIG_DIGITS = 6

#: Default location of the stored records (repository checkout layout).
DEFAULT_GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"


def cell_name(controller: str, workload: str, weather: str) -> str:
    return f"{controller}-{workload}-{weather}"


def scenario_cell_name(scenario: str) -> str:
    return f"scenario-{scenario}"


def matrix_cells() -> list[dict[str, str]]:
    """Keyword-argument cells for :func:`compute_cell`, in matrix order."""
    return [
        {"controller": controller, "workload": workload, "weather": weather}
        for controller in CONTROLLERS
        for workload in WORKLOADS
        for weather in WEATHERS
    ]


def scenario_cells() -> list[dict[str, str]]:
    """Keyword-argument cells for the policy scenario overlays."""
    from repro.experiments.scenarios import scenario_names

    return [{"scenario": name} for name in scenario_names()]


def all_cells() -> list[dict[str, str]]:
    """The full pinned set: the 12-cell matrix plus every scenario cell."""
    return matrix_cells() + scenario_cells()


def available_cell_ids() -> list[str]:
    """Every pinned cell id, in the CLI/manifest grammar: matrix cells as
    ``controller:workload:weather``, scenario cells as ``scenario-<name>``;
    in :func:`all_cells` order."""
    return [
        scenario_cell_name(cell["scenario"]) if "scenario" in cell
        else f"{cell['controller']}:{cell['workload']}:{cell['weather']}"
        for cell in all_cells()
    ]


def parse_cell_id(cell_id: str) -> dict[str, str]:
    """The :func:`compute_cell` keyword arguments of one pinned cell id.

    Raises ``ValueError`` listing every available id when ``cell_id``
    names no pinned cell.
    """
    ids = available_cell_ids()
    if cell_id not in ids:
        listing = "\n  ".join(ids)
        raise ValueError(
            f"unknown cell {cell_id!r}; available cells:\n  {listing}")
    return all_cells()[ids.index(cell_id)]


#: Former private name of :func:`repro.workloads.make_workload`.
_make_workload = make_workload


def summary_fingerprint(summary: RunSummary | Mapping[str, Any]) -> dict[str, Any]:
    """RunSummary scalars at coarse tolerance (stable across platforms).

    Takes a RunSummary or its plain-dict form (fleet and served
    summaries arrive as dicts).
    """
    values = summary if isinstance(summary, Mapping) else vars(summary)
    out: dict[str, Any] = {}
    for field, value in sorted(values.items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out[field] = value
        elif isinstance(value, int):
            out[field] = value
        else:
            out[field] = float(f"{value:.{SUMMARY_SIG_DIGITS}g}")
    return out


def trace_digests(recorder) -> dict[str, str]:
    """SHA-256 of each channel's raw float64 samples (time axis included)."""
    arrays = recorder.as_dict()
    return {
        name: hashlib.sha256(arrays[name].tobytes()).hexdigest()
        for name in sorted(arrays)
    }


@dataclass(frozen=True)
class PinnedCell:
    """A matrix or scenario cell resolved to its plant axes and seed."""

    name: str
    controller: str
    workload: str
    weather: str
    seed: int
    scenario: str | None = None

    def policies(self) -> list | None:
        """The scenario's policy overlays for this seed (None for matrix
        cells); fresh objects on every call."""
        if self.scenario is None:
            return None
        from repro.experiments.scenarios import build_policies

        return build_policies(self.scenario, self.seed)


def resolve_cell(
    controller: str | None = None,
    workload: str | None = None,
    weather: str | None = None,
    scenario: str | None = None,
) -> PinnedCell:
    """Resolve :func:`compute_cell` keyword arguments to a pinned cell.

    Matrix cells derive their seed from the three axes.  Scenario cells
    take their axes from the
    :data:`~repro.experiments.scenarios.SCENARIOS` spec and derive their
    seed from the scenario name.
    """
    if scenario is None:
        return PinnedCell(cell_name(controller, workload, weather),
                          controller, workload, weather,
                          derive_seed(BASE_SEED, controller, workload, weather))
    from repro.experiments.scenarios import get_scenario, scenario_seed

    spec = get_scenario(scenario)
    return PinnedCell(scenario_cell_name(scenario), spec.controller,
                      spec.workload, spec.weather, scenario_seed(scenario),
                      scenario)


def compute_cell(
    controller: str | None = None,
    workload: str | None = None,
    weather: str | None = None,
    stride: int = CHECK_STRIDE,
    duration_s: float = DURATION_S,
    scenario: str | None = None,
) -> dict[str, Any]:
    """Run one golden cell and return its comparable record.

    Module-level and returning plain JSON-compatible data, so it can cross
    the :func:`~repro.experiments.runner.run_cells` process boundary.  The
    run cache is deliberately *not* consulted: digests cover full traces,
    which only a fresh simulation produces, and the checker must see every
    tick.  (Checker state also never feeds any cache key — see
    ``tests/validate/test_golden.py``.)

    Give either the three matrix axes or ``scenario=`` (a name from
    :mod:`repro.experiments.scenarios`), whose record is pinned under
    ``scenario-<name>.json``.
    """
    cell = resolve_cell(controller, workload, weather, scenario)
    system = build_day_system(
        cell.controller, cell.workload, cell.weather, mean_w=TARGET_MEAN_W,
        seed=cell.seed, initial_soc=INITIAL_SOC, dt=DT_SECONDS,
        policies=cell.policies(), invariants=True, invariant_stride=stride,
    )
    summary = system.run(duration_s)
    config: dict[str, Any] = {
        "controller": cell.controller,
        "workload": cell.workload,
        "weather": cell.weather,
        "seed": cell.seed,
        "target_mean_w": TARGET_MEAN_W,
        "initial_soc": INITIAL_SOC,
        "dt": DT_SECONDS,
        "duration_s": duration_s,
    }
    if cell.scenario is not None:
        config["scenario"] = cell.scenario
    checker = system.checker
    return {
        "cell": cell.name,
        "config": config,
        "signals": trace_digests(system.recorder),
        "summary": summary_fingerprint(summary),
        "invariants": {
            "checks_run": checker.checks_run,
            "stride": stride,
            "violations": len(checker.violations),
            "first_violations": [str(v) for v in checker.violations[:10]],
        },
    }


def compute_ledger_cell(
    controller: str | None = None,
    workload: str | None = None,
    weather: str | None = None,
    duration_s: float = DURATION_S,
    scenario: str | None = None,
) -> dict[str, Any]:
    """Run one golden cell with full observability and account its energy.

    Returns the cell's trace digests (so callers can prove the ledger and
    alert engine never perturbed the trajectory), the summary energy
    scalars, every ledger flow edge, the closure verdict, and the alert
    counts read from the decision log.  Module-level and JSON-compatible
    so the matrix fans out via :func:`~repro.experiments.runner.run_cells`.
    """
    from dataclasses import asdict

    from repro.obs.hub import Observability

    cell = resolve_cell(controller, workload, weather, scenario)
    obs = Observability()
    system = build_day_system(
        cell.controller, cell.workload, cell.weather, mean_w=TARGET_MEAN_W,
        seed=cell.seed, initial_soc=INITIAL_SOC, dt=DT_SECONDS,
        policies=cell.policies(), observability=obs,
    )
    summary = system.run(duration_s)
    return {
        "cell": cell.name,
        "signals": trace_digests(system.recorder),
        "summary_energy": {
            "solar_energy_kwh": summary.solar_energy_kwh,
            "solar_used_kwh": summary.solar_used_kwh,
            "curtailed_kwh": summary.curtailed_kwh,
            "load_energy_kwh": summary.load_energy_kwh,
            "effective_energy_kwh": summary.effective_energy_kwh,
        },
        "ledger_edges": obs.ledger.edges(),
        "closure": asdict(obs.ledger.closure()),
        "alert_counts": obs.alerts.counts(),
    }


def compute_matrix(
    cells: Sequence[Mapping[str, str]] | None = None,
    max_workers: int | None = None,
) -> dict[str, dict[str, Any]]:
    """Compute records for ``cells`` (default: the full matrix plus the
    scenario cells), keyed by cell name.  Fans out across processes via
    ``run_cells``."""
    cells = list(cells) if cells is not None else all_cells()
    records = run_cells(compute_cell, cells, max_workers=max_workers)
    return {record["cell"]: record for record in records}


# ----------------------------------------------------------------------
# Storage and comparison
# ----------------------------------------------------------------------
def record_path(name: str, golden_dir: Path | str = DEFAULT_GOLDEN_DIR) -> Path:
    return Path(golden_dir) / f"{name}.json"


def store_record(record: Mapping[str, Any],
                 golden_dir: Path | str = DEFAULT_GOLDEN_DIR) -> Path:
    """Write one golden record (stable formatting for reviewable diffs)."""
    path = record_path(record["cell"], golden_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_record(name: str,
                golden_dir: Path | str = DEFAULT_GOLDEN_DIR) -> dict[str, Any]:
    path = record_path(name, golden_dir)
    if not path.is_file():
        raise FileNotFoundError(
            f"no golden record {path}; seed it with `repro validate --refresh`"
        )
    return json.loads(path.read_text(encoding="utf-8"))


def diff_records(golden: Mapping[str, Any],
                 fresh: Mapping[str, Any]) -> list[str]:
    """Per-signal / per-metric differences, empty when the cell matches.

    Signal digests are opaque, so each mismatch is paired with the summary
    scalars that moved — the human-readable account of *what* changed.
    """
    diffs: list[str] = []
    golden_signals = golden.get("signals", {})
    fresh_signals = fresh.get("signals", {})
    for name in sorted(set(golden_signals) | set(fresh_signals)):
        expected = golden_signals.get(name)
        observed = fresh_signals.get(name)
        if expected != observed:
            diffs.append(
                f"signal {name}: digest {_short(expected)} -> {_short(observed)}"
            )
    golden_summary = golden.get("summary", {})
    fresh_summary = fresh.get("summary", {})
    for field in sorted(set(golden_summary) | set(fresh_summary)):
        expected = golden_summary.get(field)
        observed = fresh_summary.get(field)
        if expected != observed:
            diffs.append(f"summary {field}: {expected} -> {observed}")
    if golden.get("config") != fresh.get("config"):
        diffs.append(
            f"config: {golden.get('config')} -> {fresh.get('config')}"
        )
    return diffs


def _short(digest: str | None) -> str:
    return digest[:12] if digest else "<missing>"


def check_matrix(
    golden_dir: Path | str = DEFAULT_GOLDEN_DIR,
    cells: Sequence[Mapping[str, str]] | None = None,
    max_workers: int | None = None,
) -> dict[str, list[str]]:
    """Recompute ``cells`` and compare against stored records.

    Returns a mapping of cell name to its diff lines (including invariant
    violations reported as diffs); empty diff lists mean the cell matches.
    """
    results = compute_matrix(cells, max_workers=max_workers)
    report: dict[str, list[str]] = {}
    for name, fresh in sorted(results.items()):
        diffs: list[str] = []
        try:
            golden = load_record(name, golden_dir)
        except FileNotFoundError as exc:
            diffs.append(str(exc))
        else:
            diffs.extend(diff_records(golden, fresh))
        violations = fresh.get("invariants", {}).get("violations", 0)
        if violations:
            diffs.append(f"{violations} invariant violation(s): "
                         + "; ".join(fresh["invariants"]["first_violations"][:3]))
        report[name] = diffs
    return report


def invariant_sweep(
    duration_s: float = DURATION_S,
    cells: Sequence[Mapping[str, str]] | None = None,
    max_workers: int | None = None,
    stride: int = CHECK_STRIDE,
) -> dict[str, dict[str, Any]]:
    """Run the matrix at an arbitrary horizon under the invariant checker.

    Unlike :func:`check_matrix` this compares against *physics*, not
    pinned digests, so the horizon is free — the nightly CI job runs a
    36-hour sweep to exercise multi-day battery behaviour the 24-hour
    goldens cannot reach.  Returns each cell's invariant verdict.
    """
    sweep_cells = [
        dict(cell, duration_s=float(duration_s), stride=stride)
        for cell in (list(cells) if cells is not None else all_cells())
    ]
    records = run_cells(compute_cell, sweep_cells, max_workers=max_workers)
    return {record["cell"]: record["invariants"] for record in records}


def refresh_matrix(
    golden_dir: Path | str = DEFAULT_GOLDEN_DIR,
    cells: Sequence[Mapping[str, str]] | None = None,
    max_workers: int | None = None,
) -> list[Path]:
    """Recompute ``cells`` and (re)write their golden records."""
    results = compute_matrix(cells, max_workers=max_workers)
    return [store_record(record, golden_dir)
            for _, record in sorted(results.items())]
