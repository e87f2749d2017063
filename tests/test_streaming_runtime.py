"""Tests for the async streaming executor, telemetry, and sweep observability.

The streaming pipeline is a pure scheduling change: every result must be
bit-identical to the synchronous path (the local backend is exact and
chunking only regroups independent sequences).  Sweeps additionally
report per-cell phase splits, the encoder backend, and pipeline
accounting — locked in here end to end for both engines.
"""

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.core.framework import DatasetSizes, Observatory
from repro.core.levels import EmbeddingLevel
from repro.errors import ObservatoryError
from repro.models.backends import TransportConfig
from repro.models.blas import blas_regime
from repro.models.registry import register_model, unregister_model
from repro.relational.table import Table
from repro.runtime.cache import EmbeddingCache
from repro.runtime.pipeline import EncodeLoop, EncodeLoopClosedError, encode_loop
from repro.runtime.planner import EmbeddingExecutor, RuntimeConfig

LEVELS = (EmbeddingLevel.COLUMN, EmbeddingLevel.ROW, EmbeddingLevel.TABLE)


def corpus(n=14):
    tables = []
    for i in range(n):
        rows = 2 + i % 5
        tables.append(
            Table.from_columns(
                [
                    ("name", [f"item {j * 7 + i}" for j in range(rows)]),
                    ("price", [j + 10 * i for j in range(rows)]),
                ],
                table_id=f"stream-{i}",
            )
        )
    return tables


class TestStreamingExecutor:
    def test_streaming_bit_identical_to_sync(self, bert):
        tables = corpus()
        sync = EmbeddingExecutor(
            bert, cache=EmbeddingCache(max_entries=256), async_encode=False
        )
        streamed = EmbeddingExecutor(
            bert,
            cache=EmbeddingCache(max_entries=256),
            async_encode=True,
            pipeline_chunk=4,
        )
        a = sync.embed_levels_many(tables, LEVELS)
        b = streamed.embed_levels_many(tables, LEVELS)
        for bundle_a, bundle_b in zip(a, b):
            for level in LEVELS:
                assert np.array_equal(bundle_a[level], bundle_b[level])
        stats = streamed.pipeline_stats
        assert stats.batches >= 2
        assert stats.encode_seconds > 0
        assert 0.0 <= stats.overlap_ratio <= 1.0

    def test_streaming_caches_like_sync(self, bert):
        cache = EmbeddingCache(max_entries=256)
        executor = EmbeddingExecutor(
            bert, cache=cache, async_encode=True, pipeline_chunk=4
        )
        tables = corpus()
        executor.embed_levels_many(tables, LEVELS)
        misses = cache.stats.misses
        executor.embed_levels_many(tables, LEVELS)
        assert cache.stats.misses == misses  # second pass: pure hits

    def test_small_requests_skip_the_loop(self, bert):
        executor = EmbeddingExecutor(
            bert, cache=EmbeddingCache(max_entries=64), pipeline_chunk=64
        )
        executor.embed_levels_many(corpus(3), LEVELS)
        assert executor.pipeline_stats.batches == 0

    def test_generic_model_falls_back(self):
        class Minimal:
            name = "minimal-stream"
            dim = 4

            def supports(self, level):
                return level == EmbeddingLevel.COLUMN

            def supported_levels(self):
                return frozenset({EmbeddingLevel.COLUMN})

            def embed_columns(self, table):
                return np.ones((table.num_columns, 4))

        executor = EmbeddingExecutor(
            Minimal(),
            cache=EmbeddingCache(max_entries=64),
            async_encode=True,
            pipeline_chunk=2,
        )
        bundles = executor.embed_levels_many(corpus(6), (EmbeddingLevel.COLUMN,))
        assert all(b[EmbeddingLevel.COLUMN].shape == (2, 4) for b in bundles)
        assert executor.pipeline_stats.batches == 0

    def test_row_template_model_falls_back(self, taptap):
        executor = EmbeddingExecutor(
            taptap,
            cache=EmbeddingCache(max_entries=64),
            async_encode=True,
            pipeline_chunk=2,
        )
        tables = corpus(5)
        bundles = executor.embed_levels_many(tables, (EmbeddingLevel.ROW,))
        for table, bundle in zip(tables, bundles):
            assert np.array_equal(
                bundle[EmbeddingLevel.ROW], taptap.embed_rows(table)
            )
        assert executor.pipeline_stats.batches == 0


class TestEncodeLoop:
    def test_shared_loop_survives_and_submits(self):
        loop = encode_loop()
        assert loop is encode_loop()  # singleton
        assert loop.is_alive()

        async def compute():
            return 21 * 2

        assert loop.submit(compute()).result(timeout=5) == 42

    def test_private_loop_close(self):
        loop = EncodeLoop()

        async def compute():
            return "ok"

        assert loop.submit(compute()).result(timeout=5) == "ok"
        loop.close()
        assert not loop.is_alive()


class TestTelemetry:
    def test_spans_accumulate_per_thread(self):
        timings = telemetry.start_cell()
        try:
            with telemetry.span("encode"):
                pass
            telemetry.add("aggregate", 0.25)
            telemetry.add("encode", 0.5, timings=timings)
        finally:
            stopped = telemetry.stop_cell()
        assert stopped is timings
        assert timings.aggregate_seconds == 0.25
        assert timings.encode_seconds >= 0.5
        assert telemetry.current() is None

    def test_span_noop_without_cell(self):
        telemetry.stop_cell()
        with telemetry.span("encode"):
            pass  # must not raise nor allocate a cell
        assert telemetry.current() is None

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            telemetry.CellTimings().add("network", 1.0)


class TestSweepObservability:
    SIZES = DatasetSizes(
        wikitables_tables=3, sotab_tables=4, n_permutations=4, min_rows=4, max_rows=6
    )
    PROPS = ["row_order_insignificance", "heterogeneous_context"]

    def test_records_and_slowest(self):
        observatory = Observatory(seed=0, sizes=self.SIZES)
        sweep = observatory.sweep(["bert"], self.PROPS)
        assert sweep.backend == "local (exact)"
        records = sweep.records
        assert len(records) == len(sweep.cells) == 2
        for record in records:
            assert record["seconds"] > 0
            assert record["encode_seconds"] > 0
            assert record["encode_seconds"] + record["aggregate_seconds"] >= 0
        slowest = sweep.slowest(1)
        assert len(slowest) == 1
        assert slowest[0].seconds == max(c.seconds for c in sweep.cells)
        payload = sweep.to_dict()
        assert payload["backend"] == "local (exact)"
        assert payload["blas"] == sweep.blas == blas_regime()
        assert "encode_seconds" in payload["cells"][0]

    def test_process_engine_carries_phase_splits(self):
        observatory = Observatory(seed=0, sizes=self.SIZES)
        sweep = observatory.sweep(
            ["bert"], self.PROPS, execution="process", max_workers=2
        )
        assert len(sweep.cells) == 2
        assert all(cell.encode_seconds > 0 for cell in sweep.cells)

    def test_render_sweep_shows_backend_and_slowest(self):
        from repro.analysis.report import render_sweep

        observatory = Observatory(seed=0, sizes=self.SIZES)
        sweep = observatory.sweep(["bert"], self.PROPS)
        rendered = render_sweep(sweep)
        assert f"encoder backend: local (exact); BLAS: {blas_regime()}." in rendered
        assert "Slowest cells" in rendered
        assert "encode " in rendered


# Building a remote backend does not connect, so no replica listens here.
REMOTE = TransportConfig(urls="http://127.0.0.1:9")


class TestRuntimeConfigBackends:
    def test_backend_resolution(self):
        assert RuntimeConfig().backend_name() == "local"
        assert RuntimeConfig(backend="local").backend_name() == "local"
        assert RuntimeConfig(backend="remote", transport=REMOTE).backend_name() == "remote"
        assert RuntimeConfig().build_backend().name == "local"

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(backend="padded")  # no longer a backend
        with pytest.raises(ValueError):
            RuntimeConfig(backend="nonsense")

    def test_custom_model_rejects_non_local_backend(self):
        class Plain:
            name = "plain-no-backend"
            dim = 4

            def supports(self, level):
                return False

            def supported_levels(self):
                return frozenset()

        register_model("plain-no-backend", Plain)
        try:
            obs = Observatory(runtime=RuntimeConfig(backend="remote", transport=REMOTE))
            with pytest.raises(ObservatoryError):
                obs.model("plain-no-backend")
            # Default (local) config keeps custom models working.
            assert Observatory().model("plain-no-backend").name == "plain-no-backend"
        finally:
            unregister_model("plain-no-backend")

    def test_observatory_shares_one_backend(self):
        obs = Observatory(runtime=RuntimeConfig(backend="remote", transport=REMOTE))
        assert obs.model("bert").backend is obs.model("tapas").backend
        assert "transport" in obs.counters()
        assert "transport" not in Observatory().counters()


class TestEncodeLoopLifecycle:
    """close()/submit() hardening (PR 5): no silent wedges, no dead enqueues."""

    def test_submit_after_close_fails_fast(self):
        loop = EncodeLoop()
        loop.close()
        assert loop.closed and not loop.is_alive()

        async def compute():
            return 1

        with pytest.raises(EncodeLoopClosedError):
            loop.submit(compute())

    def test_close_raises_when_loop_thread_is_wedged(self):
        import threading
        import time as time_mod

        loop = EncodeLoop()
        started = threading.Event()

        async def wedge():
            # Non-cooperative block on the loop thread — the shape of a
            # backend coroutine stuck on a dead socket without a deadline.
            started.set()
            time_mod.sleep(1.2)

        future = loop.submit(wedge())
        assert started.wait(timeout=5.0)
        with pytest.raises(RuntimeError, match="wedged"):
            loop.close(timeout=0.1)
        # The wedge is detected, the loop is poisoned for new work...
        with pytest.raises(EncodeLoopClosedError):
            loop.submit(wedge())
        # ...and the shared-loop factory would hand out a fresh loop.
        assert not loop.is_alive()
        future.result(timeout=5.0)  # let the blocked thread drain

    def test_shared_loop_replaced_after_close(self):
        first = encode_loop()
        try:
            first.close()
        except RuntimeError:
            pass
        second = encode_loop()
        assert second is not first
        assert second.is_alive()

    def test_submit_close_race_never_strands_a_future(self):
        # Submits racing close() must each reach a terminal outcome —
        # a result, EncodeLoopClosedError, or CancelledError — never a
        # forever-pending future (the silent-wedge class this PR fixes).
        import threading
        from concurrent.futures import CancelledError

        for _ in range(25):
            loop = EncodeLoop()
            outcomes = []

            async def compute():
                return 1

            def submitter():
                try:
                    outcomes.append(loop.submit(compute()).result(timeout=10))
                except (EncodeLoopClosedError, CancelledError) as error:
                    outcomes.append(type(error).__name__)

            threads = [threading.Thread(target=submitter) for _ in range(4)]
            for thread in threads:
                thread.start()
            loop.close()
            for thread in threads:
                thread.join(timeout=30)
            assert all(not t.is_alive() for t in threads)
            assert len(outcomes) == 4
