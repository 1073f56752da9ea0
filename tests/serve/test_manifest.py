"""Manifest schema: validation, cell expansion, render/parse round-trip."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.manifest import (
    CONTROLLERS,
    DEFAULT_TICK_SLICE,
    ManifestError,
    SessionManifest,
    WEATHERS,
    WORKLOADS,
    parse_manifest,
    render_manifest,
)
from repro.validate.golden import DURATION_S, available_cell_ids


class TestCellForm:
    def test_matrix_cell_expands_pinned_config(self):
        m = parse_manifest({"cell": "insure:seismic:cloudy"})
        assert m.cell == "insure:seismic:cloudy"
        assert (m.controller, m.workload, m.weather) == \
            ("insure", "seismic", "cloudy")
        assert m.duration_s == DURATION_S
        assert m.policies == ()
        assert m.seed > 0  # derived, not the base seed verbatim

    def test_scenario_cell_carries_policies(self):
        m = parse_manifest({"cell": "scenario-grid-hybrid"})
        assert m.cell == "scenario-grid-hybrid"
        assert len(m.policies) >= 1
        names = [p.name for p in m.policies]
        assert len(names) == len(set(names))

    def test_pacing_overrides_allowed(self):
        m = parse_manifest({"cell": "insure:video:sunny",
                            "duration_s": 3600.0, "tick_slice": 60})
        assert m.duration_s == 3600.0
        assert m.tick_slice == 60

    def test_plant_overrides_rejected(self):
        with pytest.raises(ManifestError, match="pin the plant"):
            parse_manifest({"cell": "insure:video:sunny", "seed": 9})

    def test_unknown_cell_lists_available(self):
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest({"cell": "bogus:video:sunny"})
        message = str(excinfo.value)
        for cell_id in available_cell_ids():
            assert cell_id in message

    def test_every_available_cell_parses(self):
        for cell_id in available_cell_ids():
            m = parse_manifest({"cell": cell_id})
            assert m.cell == cell_id


class TestExplicitForm:
    def test_defaults(self):
        m = parse_manifest({})
        assert isinstance(m, SessionManifest)
        assert m.cell is None
        assert m.tick_slice == DEFAULT_TICK_SLICE

    @pytest.mark.parametrize("payload, match", [
        ({"controller": "x"}, "controller"),
        ({"workload": "x"}, "workload"),
        ({"weather": "x"}, "weather"),
        ({"mean_w": -1}, "mean_w"),
        ({"mean_w": "800"}, "mean_w"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"initial_soc": 0.0}, "initial_soc"),
        ({"initial_soc": 1.5}, "initial_soc"),
        ({"dt": 0}, "dt"),
        ({"duration_s": 0}, "duration_s"),
        ({"tick_slice": 0}, "tick_slice"),
        ({"trace_stride": 0}, "trace_stride"),
        ({"bogus_key": 1}, "unknown manifest keys"),
        ({"policies": "nope"}, "policies"),
    ])
    def test_field_validation(self, payload, match):
        with pytest.raises(ManifestError, match=match):
            parse_manifest(payload)

    @pytest.mark.parametrize("policy, match", [
        ({"name": "", "signal": "carbon", "governor": "const:1",
          "control": "duty_cap"}, "name"),
        ({"name": "p", "signal": "nope", "governor": "const:1",
          "control": "duty_cap"}, "unknown signal"),
        ({"name": "p", "signal": "carbon", "governor": "const:1",
          "control": "nope"}, "unknown control"),
        ({"name": "p", "signal": "carbon", "governor": "wat:1",
          "control": "duty_cap"}, "governor"),
        ({"name": "p", "signal": "carbon", "governor": "const:1",
          "control": "duty_cap", "interval_s": 0}, "interval_s"),
        ({"name": "p", "signal": "carbon", "governor": "const:1",
          "control": "duty_cap", "extra": 1}, "unknown policy keys"),
    ])
    def test_policy_validation(self, policy, match):
        with pytest.raises(ManifestError, match=match):
            parse_manifest({"policies": [policy]})

    def test_duty_cap_requires_insure(self):
        payload = {
            "controller": "baseline",
            "policies": [{"name": "cap", "signal": "carbon",
                          "governor": "const:0.8", "control": "duty_cap"}],
        }
        with pytest.raises(ManifestError, match="insure"):
            parse_manifest(payload)
        # The same overlay on insure is fine.
        parse_manifest({**payload, "controller": "insure"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ManifestError, match="JSON object"):
            parse_manifest([1, 2, 3])


_POLICY = {"name": "p", "signal": "carbon", "governor": "const:1",
           "control": "duty_cap"}


def _with_number(form: str, key: str, value: float) -> dict:
    if form == "cell":
        return {"cell": "insure:video:sunny", key: value}
    if form == "policy":
        return {"policies": [{**_POLICY, key: value}]}
    return {key: value}


class TestNumbers:
    """Every number a manifest carries must be finite: JSON's ``Infinity``
    and ``NaN`` tokens parse to floats that size no run, and an integer
    literal can exceed the float range."""

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10 ** 400],
                             ids=["inf", "-inf", "nan", "int-past-float"])
    @pytest.mark.parametrize("form, key", [
        ("cell", "duration_s"),
        ("explicit", "mean_w"),
        ("explicit", "initial_soc"),
        ("explicit", "dt"),
        ("explicit", "duration_s"),
        ("policy", "interval_s"),
    ])
    def test_non_finite_rejected(self, form, key, value):
        with pytest.raises(ManifestError, match=key):
            parse_manifest(_with_number(form, key, value))

    def test_dt_below_the_plc_scan_period_rejected(self):
        with pytest.raises(ManifestError, match="PLC scan period"):
            parse_manifest({"dt": 0.1})
        assert parse_manifest({"dt": 0.5}).dt == 0.5

    @pytest.mark.parametrize("governor", [
        "const:nan", "const:inf", "step:nan=50%", "list:red=nan",
        "linear:100:500:1:nan",
    ])
    def test_non_finite_governor_number_rejected(self, governor):
        with pytest.raises(ManifestError, match="not a finite number"):
            parse_manifest({"policies": [{**_POLICY, "governor": governor}]})

    def test_mean_w_overflowing_the_day_trace_rejected(self):
        # Finite, but the trace scaled to it overflows at the midday peak.
        with pytest.raises(ManifestError, match="mean_w"):
            parse_manifest({"mean_w": 1e308})
        assert parse_manifest({"mean_w": 1e300}).mean_w == 1e300


# ----------------------------------------------------------------------
# Property: parse(render(m)) == m over generated manifests
# ----------------------------------------------------------------------
_GOVERNORS = st.one_of(
    st.floats(min_value=0.1, max_value=1.0,
              allow_nan=False).map(lambda f: f"const:{f:.3f}"),
    st.just("list:green=1.0:yellow=0.7:red=0.5:default=0.6"),
    st.just("step:100=80%:200=50%:below=max"),
    st.just("linear:100:500"),
)

_SIGNALS = st.sampled_from(["carbon", "price", "soc", "solar"])


def _controls_for(controller: str):
    names = ["vm_retarget", "checkpoint_shed", "charge_current_cap"]
    if controller == "insure":
        names.append("duty_cap")
    return st.sampled_from(names)


def _policy_dicts(controller: str):
    return st.builds(
        dict,
        name=st.uuids().map(lambda u: f"p-{u.hex[:8]}"),
        signal=_SIGNALS,
        governor=_GOVERNORS,
        control=_controls_for(controller),
        interval_s=st.floats(min_value=5.0, max_value=7200.0,
                             allow_nan=False),
    )


@st.composite
def explicit_manifests(draw):
    controller = draw(st.sampled_from(CONTROLLERS))
    policies = draw(st.lists(_policy_dicts(controller), max_size=3,
                             unique_by=lambda p: p["name"]))
    return {
        "controller": controller,
        "workload": draw(st.sampled_from(WORKLOADS)),
        "weather": draw(st.sampled_from(WEATHERS)),
        "mean_w": draw(st.floats(min_value=50.0, max_value=5000.0,
                                 allow_nan=False)),
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
        "initial_soc": draw(st.floats(min_value=0.05, max_value=1.0,
                                      allow_nan=False)),
        "dt": draw(st.floats(min_value=0.5, max_value=60.0,
                             allow_nan=False)),
        "duration_s": draw(st.floats(min_value=60.0, max_value=1e6,
                                     allow_nan=False)),
        "tick_slice": draw(st.integers(min_value=1, max_value=10_000)),
        "trace_stride": draw(st.integers(min_value=1, max_value=256)),
        "policies": policies,
    }


# Parsing synthesises the day trace (about 0.4 s at dt = 0.5 s), so the
# per-example deadline does not apply.
@settings(deadline=None)
@given(explicit_manifests())
def test_explicit_round_trip(payload):
    manifest = parse_manifest(payload)
    rendered = render_manifest(manifest)
    assert parse_manifest(rendered) == manifest
    # Rendering is canonical: a second round trip is a fixed point.
    assert render_manifest(parse_manifest(rendered)) == rendered


@given(
    cell=st.sampled_from(available_cell_ids()),
    duration_s=st.floats(min_value=60.0, max_value=1e6, allow_nan=False),
    tick_slice=st.integers(min_value=1, max_value=10_000),
)
def test_cell_round_trip(cell, duration_s, tick_slice):
    manifest = parse_manifest({"cell": cell, "duration_s": duration_s,
                               "tick_slice": tick_slice})
    rendered = render_manifest(manifest)
    assert set(rendered) == {"cell", "duration_s", "tick_slice",
                             "trace_stride"}
    assert parse_manifest(rendered) == manifest


# ----------------------------------------------------------------------
# Fuzz: a manifest is outside input, so it parses or raises ManifestError
# ----------------------------------------------------------------------
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=6,
)

_VALID_FIELDS = {
    "controller": st.sampled_from(CONTROLLERS),
    "workload": st.sampled_from(WORKLOADS),
    "weather": st.sampled_from(WEATHERS),
    "mean_w": st.floats(min_value=50.0, max_value=5000.0),
    "seed": st.integers(min_value=0, max_value=2**31),
    "initial_soc": st.floats(min_value=0.05, max_value=1.0),
    # Parsing synthesises the day trace; coarse steps keep examples cheap.
    "dt": st.sampled_from([1.0, 5.0, 60.0]),
    "duration_s": st.floats(min_value=60.0, max_value=1e6),
    "tick_slice": st.integers(min_value=1, max_value=10_000),
    "trace_stride": st.integers(min_value=1, max_value=256),
    "policies": st.lists(st.fixed_dictionaries({
        "name": st.text(max_size=8),
        "signal": _SIGNALS,
        "governor": _GOVERNORS | st.text(max_size=16),
        "control": _controls_for("insure"),
        "interval_s": st.floats(min_value=5.0, max_value=7200.0),
    }), max_size=2),
    "cell": st.sampled_from(available_cell_ids()),
}


@st.composite
def near_valid_manifests(draw):
    """Either form, each field valid or any JSON value, some fields left
    out, and sometimes a key the form does not allow."""
    if draw(st.booleans()):
        keys = ["cell", "duration_s", "tick_slice", "trace_stride"]
    else:
        keys = sorted(set(_VALID_FIELDS) - {"cell"})
    chosen = draw(st.lists(st.sampled_from(keys), unique=True))
    payload = {key: draw(_VALID_FIELDS[key] | _JSON_VALUES) for key in chosen}
    if draw(st.booleans()):
        payload[draw(st.sampled_from(sorted(_VALID_FIELDS)) | st.text(max_size=8))] = (
            draw(_JSON_VALUES))
    return payload


@settings(max_examples=200, deadline=None)
@given(st.one_of(_JSON_VALUES, near_valid_manifests()))
def test_parse_manifest_returns_a_manifest_or_raises_manifest_error(payload):
    try:
        manifest = parse_manifest(payload)
    except ManifestError:
        return
    assert isinstance(manifest, SessionManifest)
