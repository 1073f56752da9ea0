"""Session manifests: the JSON wire schema a session is created from.

A manifest is one JSON object.  Two forms:

**Cell form** — replay a pinned cell by id, the determinism-guaranteed
path (``repro validate`` pins these exact configurations)::

    {"cell": "insure:seismic:cloudy"}
    {"cell": "scenario-grid-hybrid", "tick_slice": 480}

The plant axes, seed and policies come from the pinned configuration;
only the pacing knobs (``duration_s``, ``tick_slice``, ``trace_stride``)
may be overridden.  A full-length, injection-free session over a cell
manifest reproduces the stored golden summary within the
:class:`~repro.sim.fleet.validator.FleetValidator` tolerances.

**Explicit form** — spell out the configuration::

    {"controller": "insure", "workload": "video", "weather": "sunny",
     "mean_w": 800.0, "seed": 7, "duration_s": 43200.0,
     "policies": [{"name": "carbon-duty", "signal": "carbon",
                   "governor": "step:420=80%:560=60%",
                   "control": "duty_cap", "interval_s": 300.0}]}

Policy entries use the :mod:`repro.policy` registry grammar verbatim —
``signal``/``control`` are registry names, ``governor`` is a
``parse_governor`` rule string — so the wire format and the Python API
share one vocabulary.  Every field is validated at parse time; parsing
is total over rendered manifests (``parse(render(m)) == m``, property
tested in ``tests/serve/test_manifest.py``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from collections.abc import Mapping
from typing import Any

from repro.core.sensing import PLC_SCAN_PERIOD_S
from repro.policy.controls import DVFS_CONTROLS
from repro.policy.registry import (
    PolicyDef, build_policy, control_names, make_governor, signal_names,
)
from repro.solar.traces import make_day_trace
from repro.validate.golden import (
    BASE_SEED,
    CONTROLLERS,
    DT_SECONDS,
    DURATION_S,
    INITIAL_SOC,
    TARGET_MEAN_W,
    WEATHERS,
    WORKLOADS,
    parse_cell_id,
    resolve_cell,
)

#: Default ticks per cooperative slice — ~10 ms of engine work, so a
#: few hundred live sessions still turn the event loop over quickly.
DEFAULT_TICK_SLICE = 240
DEFAULT_TRACE_STRIDE = 16

#: Keys a cell-form manifest may carry besides ``cell`` itself.
_CELL_OVERRIDES = frozenset({"duration_s", "tick_slice", "trace_stride"})
_EXPLICIT_KEYS = frozenset({
    "controller", "workload", "weather", "mean_w", "seed", "initial_soc",
    "dt", "duration_s", "tick_slice", "trace_stride", "policies",
})
_POLICY_KEYS = frozenset({"name", "signal", "governor", "control", "interval_s"})


class ManifestError(ValueError):
    """Raised on any invalid manifest payload (maps to HTTP 400)."""


@dataclass(frozen=True)
class SessionManifest:
    """A fully resolved session configuration."""

    controller: str = "insure"
    workload: str = "seismic"
    weather: str = "sunny"
    mean_w: float = TARGET_MEAN_W
    seed: int = BASE_SEED
    initial_soc: float = INITIAL_SOC
    dt: float = DT_SECONDS
    duration_s: float = DURATION_S
    tick_slice: int = DEFAULT_TICK_SLICE
    trace_stride: int = DEFAULT_TRACE_STRIDE
    policies: tuple[PolicyDef, ...] = ()
    #: The pinned cell id this manifest was resolved from (None for the
    #: explicit form).  Cell-backed sessions get a golden verdict in
    #: their final ``summary`` event.
    cell: str | None = None

    @property
    def total_ticks(self) -> int:
        return max(1, round(self.duration_s / self.dt))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _number(payload: Mapping[str, Any], key: str, default: float) -> float:
    value = payload.get(key, default)
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    # JSON's Infinity/NaN tokens parse to floats no run can be sized by.
    _require(math.isfinite(value), f"{key} must be finite, got {value!r}")
    return value


def _integer(payload: Mapping[str, Any], key: str, default: int) -> int:
    value = payload.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{key} must be an integer, got {value!r}")
    return int(value)


def parse_policy(payload: Mapping[str, Any]) -> PolicyDef:
    """Validate one policy entry against the :mod:`repro.policy` registry."""
    _require(isinstance(payload, Mapping), f"policy must be an object, got {payload!r}")
    unknown = set(payload) - _POLICY_KEYS
    _require(not unknown, f"unknown policy keys {sorted(unknown)}")
    for key in ("name", "signal", "governor", "control"):
        _require(isinstance(payload.get(key), str) and payload.get(key),
                 f"policy {key} must be a non-empty string")
    _require(payload["signal"] in signal_names(),
             f"unknown signal {payload['signal']!r}; known: {signal_names()}")
    _require(payload["control"] in control_names(),
             f"unknown control {payload['control']!r}; known: {control_names()}")
    try:
        make_governor(payload["governor"])
    except ValueError as exc:
        raise ManifestError(f"bad governor spec: {exc}") from None
    interval_s = _number(payload, "interval_s", 300.0)
    _require(interval_s > 0, f"interval_s must be positive, got {interval_s}")
    return PolicyDef(
        name=payload["name"],
        signal=payload["signal"],
        governor=payload["governor"],
        control=payload["control"],
        interval_s=interval_s,
    )


def _parse_cell_form(payload: Mapping[str, Any]) -> SessionManifest:
    cell_id = payload["cell"]
    _require(isinstance(cell_id, str), f"cell must be a string, got {cell_id!r}")
    extras = set(payload) - {"cell"} - _CELL_OVERRIDES
    _require(
        not extras,
        f"cell manifests pin the plant configuration; remove {sorted(extras)} "
        f"(only {sorted(_CELL_OVERRIDES)} may be overridden)",
    )
    try:
        axes = parse_cell_id(cell_id)
    except ValueError as exc:
        raise ManifestError(str(exc)) from None
    cell = resolve_cell(**axes)
    policies: tuple[PolicyDef, ...] = ()
    if cell.scenario is not None:
        from repro.experiments.scenarios import get_scenario

        policies = get_scenario(cell.scenario).policies

    duration_s = _number(payload, "duration_s", DURATION_S)
    _require(duration_s > 0, f"duration_s must be positive, got {duration_s}")
    tick_slice = _integer(payload, "tick_slice", DEFAULT_TICK_SLICE)
    _require(tick_slice >= 1, f"tick_slice must be >= 1, got {tick_slice}")
    trace_stride = _integer(payload, "trace_stride", DEFAULT_TRACE_STRIDE)
    _require(trace_stride >= 1, f"trace_stride must be >= 1, got {trace_stride}")
    return SessionManifest(
        controller=cell.controller, workload=cell.workload,
        weather=cell.weather, mean_w=TARGET_MEAN_W, seed=cell.seed,
        initial_soc=INITIAL_SOC,
        dt=DT_SECONDS, duration_s=duration_s, tick_slice=tick_slice,
        trace_stride=trace_stride, policies=policies, cell=cell_id,
    )


def parse_manifest(payload: Mapping[str, Any]) -> SessionManifest:
    """Validate a JSON manifest object into a :class:`SessionManifest`.

    Raises :class:`ManifestError` (a ``ValueError``) naming the offending
    field; unknown-cell errors list every available cell id.
    """
    _require(isinstance(payload, Mapping),
             f"manifest must be a JSON object, got {type(payload).__name__}")
    if "cell" in payload:
        return _parse_cell_form(payload)

    unknown = set(payload) - _EXPLICIT_KEYS
    _require(not unknown, f"unknown manifest keys {sorted(unknown)}")
    controller = payload.get("controller", "insure")
    _require(controller in CONTROLLERS,
             f"controller must be one of {CONTROLLERS}, got {controller!r}")
    workload = payload.get("workload", "seismic")
    _require(workload in WORKLOADS,
             f"workload must be one of {WORKLOADS}, got {workload!r}")
    weather = payload.get("weather", "sunny")
    _require(weather in WEATHERS,
             f"weather must be one of {WEATHERS}, got {weather!r}")

    mean_w = _number(payload, "mean_w", TARGET_MEAN_W)
    _require(mean_w > 0, f"mean_w must be positive, got {mean_w}")
    seed = _integer(payload, "seed", BASE_SEED)
    _require(seed >= 0, f"seed must be non-negative, got {seed}")
    initial_soc = _number(payload, "initial_soc", INITIAL_SOC)
    _require(0.0 < initial_soc <= 1.0,
             f"initial_soc must be in (0, 1], got {initial_soc}")
    dt = _number(payload, "dt", DT_SECONDS)
    _require(dt >= PLC_SCAN_PERIOD_S,
             f"dt must be at least the {PLC_SCAN_PERIOD_S} s PLC scan period, got {dt}")
    duration_s = _number(payload, "duration_s", DURATION_S)
    _require(duration_s > 0, f"duration_s must be positive, got {duration_s}")
    tick_slice = _integer(payload, "tick_slice", DEFAULT_TICK_SLICE)
    _require(tick_slice >= 1, f"tick_slice must be >= 1, got {tick_slice}")
    trace_stride = _integer(payload, "trace_stride", DEFAULT_TRACE_STRIDE)
    _require(trace_stride >= 1, f"trace_stride must be >= 1, got {trace_stride}")

    raw_policies = payload.get("policies", [])
    _require(isinstance(raw_policies, (list, tuple)),
             f"policies must be a list, got {raw_policies!r}")
    policies = tuple(parse_policy(p) for p in raw_policies)
    if controller != "insure":
        for spec in policies:
            _require(
                spec.control not in DVFS_CONTROLS,
                f"control {spec.control!r} (policy {spec.name!r}) requires "
                f"the insure controller; {controller!r} has no DVFS duty knob",
            )
    # The day trace the build scales to mean_w (memoised, so the build
    # reuses it); a mean too large for its samples fails here, not there.
    try:
        make_day_trace(weather, dt_seconds=dt, seed=seed, target_mean_w=mean_w)
    except ValueError as exc:
        raise ManifestError(f"mean_w {mean_w:g} W: {exc}") from None
    return SessionManifest(
        controller=controller, workload=workload, weather=weather,
        mean_w=mean_w, seed=seed, initial_soc=initial_soc, dt=dt,
        duration_s=duration_s, tick_slice=tick_slice,
        trace_stride=trace_stride, policies=policies, cell=None,
    )


def render_manifest(manifest: SessionManifest) -> dict[str, Any]:
    """The canonical JSON form; ``parse_manifest`` round-trips it exactly.

    Cell manifests render as their compact cell form (the pinned fields
    are re-derived on parse); explicit manifests render every field.
    """
    if manifest.cell is not None:
        return {
            "cell": manifest.cell,
            "duration_s": manifest.duration_s,
            "tick_slice": manifest.tick_slice,
            "trace_stride": manifest.trace_stride,
        }
    return {
        "controller": manifest.controller,
        "workload": manifest.workload,
        "weather": manifest.weather,
        "mean_w": manifest.mean_w,
        "seed": manifest.seed,
        "initial_soc": manifest.initial_soc,
        "dt": manifest.dt,
        "duration_s": manifest.duration_s,
        "tick_slice": manifest.tick_slice,
        "trace_stride": manifest.trace_stride,
        "policies": [asdict(p) for p in manifest.policies],
    }


def build_session_system(manifest: SessionManifest):
    """Assemble the (system, observability) pair a session runs.

    Observability is attached with the ledger and alert engine on — the
    streaming payload sources — which is proven read-only, so cell-backed
    sessions still reproduce their pinned summaries.
    """
    from repro.core.system import day_site
    from repro.obs.hub import Observability

    obs = Observability(trace_stride=manifest.trace_stride)
    system = day_site(
        manifest.controller, manifest.workload, manifest.weather,
        mean_w=manifest.mean_w, seed=manifest.seed,
        initial_soc=manifest.initial_soc, dt=manifest.dt,
    ).build(
        observability=obs,
        policies=[build_policy(p, manifest.seed) for p in manifest.policies],
    )
    return system, obs


def golden_verdict(manifest: SessionManifest, summary: Mapping[str, Any]):
    """Compare a served summary against the manifest's pinned golden record.

    Returns a :class:`~repro.sim.fleet.validator.CellVerdict`, or None
    when the manifest is not cell-backed, the session ran a non-pinned
    horizon, or no record exists on disk.
    """
    if manifest.cell is None or manifest.duration_s != DURATION_S:
        return None
    from repro.sim.fleet.validator import compare_summaries
    from repro.validate.golden import load_record

    name = resolve_cell(**parse_cell_id(manifest.cell)).name
    try:
        record = load_record(name)
    except FileNotFoundError:
        return None
    return compare_summaries(name, dict(summary), record["summary"])
