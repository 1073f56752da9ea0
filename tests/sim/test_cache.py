"""Content-addressed run cache: keying, round-trips, disable switch,
and the ``cached_cell`` decorator every experiment cell shares."""

import dataclasses
import warnings

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import run_cells
from repro.sim.cache import (
    ENV_VAR,
    RunCache,
    cache_key,
    cached_cell,
    code_fingerprint,
    default_cache,
    summary_from_payload,
    summary_to_payload,
)
from repro.telemetry.metrics import RunSummary


def make_summary(**overrides) -> RunSummary:
    """A fully-populated summary with distinct, JSON-awkward values."""
    values = {}
    for i, field in enumerate(dataclasses.fields(RunSummary)):
        if field.type == "int" or field.name in (
            "power_ctrl_times", "on_off_cycles", "vm_ctrl_times", "crash_count",
        ):
            values[field.name] = i
        else:
            # 1/3 is not exactly representable; exercises lossless floats.
            values[field.name] = i + 1.0 / 3.0
    values.update(overrides)
    return RunSummary(**values)


class TestCacheKey:
    def test_stable(self):
        assert cache_key("k", a=1, b="x") == cache_key("k", a=1, b="x")

    def test_order_insensitive(self):
        assert cache_key("k", a=1, b=2) == cache_key("k", b=2, a=1)

    def test_sensitive_to_parts_and_kind(self):
        base = cache_key("k", seed=1)
        assert cache_key("k", seed=2) != base
        assert cache_key("other", seed=1) != base

    def test_code_fingerprint_is_cached_hex(self):
        first = code_fingerprint()
        assert first == code_fingerprint()
        assert len(first) == 64
        int(first, 16)


class TestRunCache:
    def test_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", {"x": 1.5})
        assert cache.get("deadbeef") == {"x": 1.5}
        assert cache.entry_count() == 1

    def test_fetch_or_compute(self, tmp_path):
        cache = RunCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"v": 7}

        payload, hit = cache.fetch_or_compute("key", compute)
        assert payload == {"v": 7} and not hit
        payload, hit = cache.fetch_or_compute("key", compute)
        assert payload == {"v": 7} and hit
        assert len(calls) == 1

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert cache.entry_count() == 0
        assert cache.get("a") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None


class TestEnvironmentSwitch:
    @pytest.mark.parametrize("value", ["off", "0", "none", "disabled", "OFF"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VAR, value)
        cache = default_cache()
        assert not cache.enabled
        cache.put("k", {"x": 1})  # no-op, must not raise
        assert cache.get("k") is None
        assert cache.clear() == 0
        assert cache.entry_count() == 0

    def test_directory_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "cachedir"))
        cache = default_cache()
        assert cache.enabled
        cache.put("k", [1, 2, 3])
        assert default_cache().get("k") == [1, 2, 3]


class TestSummarySerialisation:
    def test_lossless_round_trip(self):
        summary = make_summary()
        restored = summary_from_payload(summary_to_payload(summary))
        assert restored == summary

    def test_via_disk(self, tmp_path):
        cache = RunCache(tmp_path)
        summary = make_summary(uptime_fraction=0.1 + 0.2)  # 0.30000000000000004
        cache.put("s", summary_to_payload(summary))
        restored = summary_from_payload(cache.get("s"))
        assert restored == summary
        assert restored.uptime_fraction == summary.uptime_fraction


#: Arguments of every in-process call of :func:`counted_cell`.
CALLS: list[tuple[int, float]] = []


@cached_cell("tests.counted_cell")
def counted_cell(x: int, scale: float = 2.0) -> RunSummary:
    """Module-level (picklable) cell that counts its calls."""
    CALLS.append((x, scale))
    return make_summary(processed_gb=x * scale)


@pytest.fixture
def cell_cache(monkeypatch, tmp_path):
    """A fresh cache directory for counted_cell, with the call log reset."""
    monkeypatch.setenv(ENV_VAR, str(tmp_path))
    CALLS.clear()
    return RunCache(tmp_path)


class TestCachedCell:
    def test_repeat_call_replays(self, cell_cache):
        first = counted_cell(3)
        again = counted_cell(3)
        assert again == first == make_summary(processed_gb=6.0)
        assert CALLS == [(3, 2.0)]
        assert cell_cache.entry_count() == 1

    def test_explicit_default_shares_the_entry(self, cell_cache):
        omitted = counted_cell(3)
        assert counted_cell(3, scale=2.0) == omitted
        assert counted_cell(3, 2.0) == omitted
        assert counted_cell(x=3, scale=2.0) == omitted
        assert CALLS == [(3, 2.0)]
        assert cell_cache.entry_count() == 1

    def test_other_arguments_get_their_own_entry(self, cell_cache):
        counted_cell(3)
        counted_cell(3, scale=3.0)
        assert CALLS == [(3, 2.0), (3, 3.0)]
        assert cell_cache.entry_count() == 2

    def test_use_cache_false_recomputes_and_stores_nothing(self, cell_cache):
        counted_cell(3, use_cache=False)
        counted_cell(3, use_cache=False)
        assert CALLS == [(3, 2.0), (3, 2.0)]
        assert cell_cache.entry_count() == 0

    def test_disabled_cache_recomputes_and_stores_nothing(self, cell_cache,
                                                          monkeypatch):
        monkeypatch.setenv(ENV_VAR, "off")
        counted_cell(3)
        counted_cell(3)
        assert CALLS == [(3, 2.0), (3, 2.0)]
        assert cell_cache.entry_count() == 0

    def test_bind_applies_defaults_and_splits_use_cache(self):
        assert counted_cell.bind(3) == ({"x": 3, "scale": 2.0}, True)
        assert counted_cell.bind(x=3, scale=1.0, use_cache=False) == (
            {"x": 3, "scale": 1.0}, False)
        assert counted_cell.namespace == "tests.counted_cell"

    def test_pool_matches_serial(self, cell_cache, monkeypatch):
        # A re-armed fallback warning is an error: the pool really ran.
        monkeypatch.setattr(runner_mod, "_POOL_WARNING_EMITTED", False)
        cells = [dict(x=x) for x in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pooled = run_cells(counted_cell, cells, max_workers=2,
                               backend="pool")
        # The workers computed and stored every cell.
        assert CALLS == []
        assert cell_cache.entry_count() == 4
        serial = run_cells(counted_cell,
                           [dict(cell, use_cache=False) for cell in cells],
                           backend="serial")
        assert pooled == serial
        assert len(CALLS) == 4
