"""Parallel fan-out: deterministic seeding, ordering, serial fallback."""

import warnings

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import default_workers, derive_seed, run_cells


def _affine(x, scale=1, offset=0):
    """Module-level (picklable) cell function for pool tests."""
    return x * scale + offset


def _label(x, tag=""):
    return f"{tag}:{x}"


def _explode(x):
    if x == 2:
        raise ValueError(f"cell {x} blew up")
    return x


@pytest.fixture
def rearmed_pool_warning(monkeypatch):
    """Re-arm the once-per-process pool warning for this test."""
    monkeypatch.setattr(runner_mod, "_POOL_WARNING_EMITTED", False)


class TestDeriveSeed:
    def test_deterministic_across_calls(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_sensitive_to_labels(self):
        assert derive_seed(1, "insure") != derive_seed(1, "baseline")
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_sensitive_to_base_seed(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_fits_requested_bits(self):
        for base in range(20):
            assert 0 <= derive_seed(base, "cell") < (1 << 31)
        assert 0 <= derive_seed(7, "cell", bits=16) < (1 << 16)

    def test_hash_seed_independent(self):
        # SHA-based, so the documented value never drifts between
        # interpreters or PYTHONHASHSEED settings.
        assert derive_seed(1, "insure", "high") == derive_seed(1, "insure", "high")
        assert isinstance(derive_seed(0), int)


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_garbage_falls_back_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert default_workers() == 1

    def test_capped_to_cell_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "16")
        assert default_workers(cells=4) == 4

    def test_at_least_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1


class TestRunCells:
    CELLS = [dict(x=i, scale=3, offset=1) for i in range(8)]
    EXPECTED = [i * 3 + 1 for i in range(8)]

    def test_empty(self):
        assert run_cells(_affine, []) == []

    def test_serial_results_in_order(self):
        assert run_cells(_affine, self.CELLS, max_workers=1) == self.EXPECTED

    def test_parallel_matches_serial(self):
        serial = run_cells(_affine, self.CELLS, max_workers=1)
        parallel = run_cells(_affine, self.CELLS, max_workers=4)
        assert parallel == serial == self.EXPECTED

    def test_order_independent_of_worker_count(self):
        cells = [dict(x=i, tag="cell") for i in range(6)]
        results = {
            workers: run_cells(_label, cells, max_workers=workers)
            for workers in (1, 2, 3, 6)
        }
        assert len({tuple(r) for r in results.values()}) == 1

    def test_unpicklable_fn_degrades_to_serial(self, rearmed_pool_warning):
        # A lambda cannot cross the process boundary; results must still
        # come back, computed in-process (with the degradation warning).
        with pytest.warns(RuntimeWarning, match="running serially"):
            out = run_cells(lambda x: x + 1, [dict(x=i) for i in range(4)],
                            max_workers=2)
        assert out == [1, 2, 3, 4]

    def test_env_worker_count_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert run_cells(_affine, self.CELLS) == self.EXPECTED


class _BrokenPool:
    """ProcessPoolExecutor stand-in for platforms that cannot spawn one."""

    def __init__(self, *args, **kwargs):
        raise OSError("no process support in this environment")


class TestPoolFallback:
    CELLS = [dict(x=i, scale=2) for i in range(5)]
    EXPECTED = [i * 2 for i in range(5)]

    def test_unavailable_pool_warns_and_runs_serially(self, monkeypatch,
                                                      rearmed_pool_warning):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            _BrokenPool)
        with pytest.warns(RuntimeWarning, match="running serially"):
            out = run_cells(_affine, self.CELLS, max_workers=4)
        assert out == self.EXPECTED

    def test_warning_is_deduplicated(self, monkeypatch, rearmed_pool_warning):
        # The warning fires once per process; every later batch still
        # degrades to the serial loop, silently.
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            _BrokenPool)
        with pytest.warns(RuntimeWarning, match="running serially"):
            run_cells(_affine, self.CELLS, max_workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cells(_affine, self.CELLS, max_workers=2) == self.EXPECTED
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_raising_cell_propagates_from_the_serial_loop(self):
        cells = [dict(x=i) for i in range(4)]
        with pytest.raises(ValueError, match="blew up"):
            run_cells(_explode, cells, max_workers=1)
