"""Determinism/concurrency tests for ``execution="process"`` sweeps.

Extends the guarantee ``tests/test_runtime_sweep.py`` locks in for thread
mode: sweep results are bit-identical across execution modes, worker
counts, and scheduling — distributing cells across spawned processes
changes wall-clock, never numbers.  ``execution="process"`` runs the
process scheduler (:mod:`repro.runtime.scheduler`), so these tests
exercise it end to end; scheduler-specific behavior (one dispatch per
group, crash salvage) lives in ``tests/test_runtime_scheduler.py``.
"""

import pytest

from repro import Observatory, RuntimeConfig, TransportConfig
from repro.analysis.report import render_sweep
from repro.core.framework import DatasetSizes
from repro.errors import (
    CellExecutionError,
    CellPoisonedError,
    ObservatoryError,
    RemoteEncodeError,
    WorkerCrashError,
)
from repro.runtime import order_cells, resolve_execution
from repro.runtime.cache import CacheStats
from repro.runtime.sweep import CellFailure

SIZES = DatasetSizes(
    wikitables_tables=3,
    spider_databases=2,
    nextiajd_pairs=6,
    sotab_tables=4,
    n_permutations=4,
    min_rows=4,
    max_rows=6,
)
PROPS = ["row_order_insignificance", "sample_fidelity"]
MODELS = ["bert", "t5"]


def make_observatory(**runtime_kwargs) -> Observatory:
    return Observatory(seed=3, sizes=SIZES, runtime=RuntimeConfig(**runtime_kwargs))


def cell_dicts(sweep):
    return {
        (c.model_name, c.property_name): c.result.to_dict() for c in sweep.cells
    }


@pytest.fixture(scope="module")
def thread_sweep():
    return make_observatory().sweep(MODELS, PROPS, max_workers=1, execution="thread")


@pytest.fixture(scope="module")
def process_sweep(tmp_path_factory):
    disk = str(tmp_path_factory.mktemp("shared-cache"))
    observatory = make_observatory(disk_cache_dir=disk)
    return observatory.sweep(MODELS, PROPS, max_workers=2, execution="process")


class TestProcessDeterminism:
    def test_bit_identical_to_thread_mode(self, thread_sweep, process_sweep):
        assert cell_dicts(process_sweep) == cell_dicts(thread_sweep)

    def test_bit_identical_across_worker_counts(self, thread_sweep):
        # 1 worker (serial child) and 3 workers must both match thread
        # mode.  The scheduler caps workers at the number of
        # corpus-affinity work groups (2 here: both PROPS characterize
        # wikitables, so each model contributes one group).
        for workers in (1, 3):
            sweep = make_observatory().sweep(
                MODELS, PROPS, max_workers=workers, execution="process"
            )
            assert cell_dicts(sweep) == cell_dicts(thread_sweep)
            assert sweep.workers == min(workers, 2)

    def test_cells_returned_in_request_order(self, thread_sweep, process_sweep):
        order = [(c.model_name, c.property_name) for c in process_sweep.cells]
        assert order == [(c.model_name, c.property_name) for c in thread_sweep.cells]

    def test_skips_recorded_identically(self, thread_sweep):
        # taptap only embeds rows: P5 is out of scope in every mode.
        sweep = make_observatory().sweep(
            ["bert", "taptap"], PROPS, max_workers=2, execution="process"
        )
        reference = make_observatory().sweep(
            ["bert", "taptap"], PROPS, max_workers=1, execution="thread"
        )
        assert sweep.skipped == reference.skipped

    def test_pairwise_property_skipped_without_spawning(self):
        sweep = make_observatory().sweep(
            ["bert"], ["entity_stability"], execution="process"
        )
        assert not sweep.cells
        assert sweep.execution == "process"
        assert sweep.skipped[0].reason.startswith("pairwise property")
        assert sweep.workers == 0  # no workers spawned...
        assert sweep.cache_stats is None  # ...so no cache was touched


class TestTypedAbort:
    def test_cell_failure_raises_its_own_error_not_a_crash(self):
        # Nothing listens on port 9, so every cell fails the same way.  A
        # worker reports that failure instead of dying with it, so the
        # parent raises it by name rather than re-running it elsewhere.
        observatory = make_observatory(
            backend="remote",
            transport=TransportConfig(
                urls=("http://127.0.0.1:9",), timeout=1.0, retries=0
            ),
        )
        with pytest.raises(ObservatoryError) as caught:
            observatory.sweep(MODELS, PROPS, max_workers=2, execution="process")
        assert not isinstance(caught.value, (WorkerCrashError, CellPoisonedError))
        message = str(caught.value)
        assert "RemoteEncodeError" in message
        assert any(f"cell {m}/{p}" in message for m in MODELS for p in PROPS)

    def test_both_engines_raise_one_error_for_one_failing_cell(self):
        # One worker runs bert/row_order_insignificance first on either
        # engine, so an `except` written for one engine works on both.
        raised = {}
        for execution in ("thread", "process"):
            observatory = make_observatory(
                backend="remote",
                transport=TransportConfig(
                    urls=("http://127.0.0.1:9",), timeout=1.0, retries=0
                ),
            )
            with pytest.raises(CellExecutionError) as caught:
                observatory.sweep(MODELS, PROPS, max_workers=1, execution=execution)
            raised[execution] = caught.value
        message = str(raised["thread"])
        assert str(raised["process"]) == message
        assert "cell bert/row_order_insignificance" in message
        assert "RemoteEncodeError" in message
        assert isinstance(raised["thread"].__cause__, RemoteEncodeError)

    def test_a_cell_error_is_not_wrapped_twice(self):
        # run_cell wraps a non-library exception in CellExecutionError; a
        # process worker ships that as a named failure, which the parent
        # raises with the thread engine's message, not a nested one.
        original = CellExecutionError("bert", "sample_fidelity", "injected cell fault")
        failure = CellFailure.from_exception("bert", "sample_fidelity", original)
        assert str(failure.abort_error()) == str(original)


class TestMergedCacheStats:
    def test_stats_are_typed_and_merged(self, process_sweep):
        stats = process_sweep.cache_stats
        assert isinstance(stats, CacheStats)
        assert stats.requests == stats.hits + stats.misses
        assert stats.misses > 0 and stats.puts > 0  # cold: every shard computed
        assert stats.disk_puts > 0  # ...and persisted to the shared tier
        assert process_sweep.to_dict()["cache"]["misses"] == stats.misses

    def test_disk_tier_shared_across_processes(self, process_sweep, tmp_path_factory):
        # A second sweep over the same disk dir is served from the tier the
        # first sweep's workers populated: merged counters show disk hits.
        disk = str(tmp_path_factory.mktemp("shared-cache-warm"))
        first = make_observatory(disk_cache_dir=disk)
        first.sweep(MODELS, PROPS, max_workers=2, execution="process")
        second = make_observatory(disk_cache_dir=disk)
        warm = second.sweep(MODELS, PROPS, max_workers=2, execution="process")
        assert warm.cache_stats.disk_hits > 0
        assert warm.cache_stats.misses == 0

    def test_disabled_runtime_reports_no_stats(self):
        sweep = make_observatory(enabled=False).sweep(
            ["bert"], ["row_order_insignificance"], max_workers=1, execution="process"
        )
        assert sweep.cache_stats is None
        assert sweep.to_dict()["cache"] is None


class TestExecutionResolution:
    def test_execution_recorded_and_rendered(self, process_sweep):
        assert process_sweep.execution == "process"
        assert process_sweep.to_dict()["execution"] == "process"
        assert "process worker" in render_sweep(process_sweep)
        assert "process" in repr(process_sweep)

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_EXECUTION", "process")
        sweep = make_observatory().sweep(
            ["bert"], ["row_order_insignificance"], max_workers=1
        )
        assert sweep.execution == "process"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_EXECUTION", "process")
        sweep = make_observatory().sweep(
            ["bert"], ["row_order_insignificance"], max_workers=1, execution="thread"
        )
        assert sweep.execution == "thread"

    def test_runtime_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_EXECUTION", "process")
        assert resolve_execution(None, "thread") == "thread"
        monkeypatch.delenv("REPRO_SWEEP_EXECUTION")
        assert resolve_execution(None, None) == "thread"

    def test_invalid_modes_rejected(self, monkeypatch):
        with pytest.raises(ObservatoryError):
            make_observatory().sweep(["bert"], PROPS, execution="fork")
        monkeypatch.setenv("REPRO_SWEEP_EXECUTION", "fibers")
        with pytest.raises(ObservatoryError):
            make_observatory().sweep(["bert"], PROPS)
        with pytest.raises(ValueError):
            RuntimeConfig(execution="fork")


class TestSharding:
    def test_order_cells_groups_by_model_then_corpus(self):
        # Request order is property-major; execution order must be
        # model-major with corpus-sharing properties adjacent.
        cells = [
            ("bert", "heterogeneous_context"),
            ("t5", "heterogeneous_context"),
            ("bert", "row_order_insignificance"),
            ("t5", "row_order_insignificance"),
            ("bert", "sample_fidelity"),
            ("t5", "sample_fidelity"),
        ]
        ordered = order_cells(cells)
        assert ordered == [
            ("bert", "heterogeneous_context"),
            ("bert", "row_order_insignificance"),
            ("bert", "sample_fidelity"),
            ("t5", "heterogeneous_context"),
            ("t5", "row_order_insignificance"),
            ("t5", "sample_fidelity"),
        ]
        # wikitables properties (P1, P5) are adjacent within each model
        # even though the request interleaved the sotab property first.

    def test_every_registered_property_has_a_corpus_group(self):
        # A property added to the registry but not to PROPERTY_CORPUS
        # would silently lose cache-aware grouping; fail loudly instead.
        from repro.core.registry import available_properties
        from repro.runtime.sweep import PROPERTY_CORPUS

        assert set(available_properties()) <= set(PROPERTY_CORPUS)
