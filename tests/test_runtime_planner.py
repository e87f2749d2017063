"""Tests for the embedding planner/executor and batched model paths."""

import numpy as np
import pytest

from repro.core.levels import EmbeddingLevel
from repro.models.registry import load_model
from repro.relational.table import Table
from repro.runtime.cache import EmbeddingCache
from repro.runtime.fingerprint import table_fingerprint
from repro.runtime.planner import EmbeddingExecutor, RuntimeConfig, as_executor
from tests.conftest import cached_model


def counting_model(name, monkeypatch):
    """A fresh model whose encoder records the length of every sequence it encodes."""
    model = load_model(name)
    encoded = []
    encode = model.encoder.encode

    def counting(tokens):
        encoded.append(len(tokens))
        return encode(tokens)

    monkeypatch.setattr(model.encoder, "encode", counting)
    return model, encoded


@pytest.fixture()
def tables():
    out = []
    for i in range(5):
        n = 3 + i % 3
        out.append(
            Table.from_columns(
                [
                    ("name", [f"item {j * 3 + i}" for j in range(n)]),
                    ("price", [j + 10 * i for j in range(n)]),
                ],
                table_id=f"planner-{i}",
            )
        )
    return out


@pytest.fixture()
def linked_table(tennis_table):
    return Table(
        tennis_table.schema,
        tennis_table.rows,
        entity_links={(0, 0): "tennis:Roger Federer", (1, 0): "tennis:Rafael Nadal"},
        table_id="planner-linked",
    )


LEVELS = (EmbeddingLevel.COLUMN, EmbeddingLevel.ROW, EmbeddingLevel.TABLE)


class TestBundledLevels:
    def test_bundle_matches_dedicated_methods(self, bert, tables):
        for table in tables:
            bundle = bert.embed_levels(table, LEVELS)
            assert np.array_equal(bundle[EmbeddingLevel.COLUMN], bert.embed_columns(table))
            assert np.array_equal(bundle[EmbeddingLevel.ROW], bert.embed_rows(table))
            assert np.array_equal(bundle[EmbeddingLevel.TABLE], bert.embed_table(table))

    def test_batch_matches_dedicated_methods(self, tables):
        # Cover stacked serializations and the CLS-anchor aggregate.
        for name in ("bert", "doduo", "tabert"):
            model = cached_model(name)
            bundles = model.embed_levels_batch(
                tables, [(EmbeddingLevel.COLUMN,)] * len(tables), batch_size=4
            )
            for table, bundle in zip(tables, bundles):
                assert np.array_equal(
                    bundle[EmbeddingLevel.COLUMN], model.embed_columns(table)
                )

    def test_encode_batch_bit_identical(self, bert, tables):
        token_lists = [
            bert._serializer.serialize(bert._effective_table(t)) for t in tables
        ]
        # Duplicate lists so same-length groups actually form batches.
        token_lists = token_lists + token_lists
        single = [bert.encoder.encode(toks) for toks in token_lists]
        batched = bert.encoder.encode_batch(token_lists, batch_size=4)
        for a, b in zip(single, batched):
            assert np.array_equal(a, b)

    def test_value_columns_batch_matches_single(self, bert, tables):
        requests = []
        for table in tables:
            for col in range(table.num_columns):
                requests.append((table.header[col], table.column_values(col)))
        batch = bert.embed_value_columns_batch(requests, batch_size=4)
        for (header, values), emb in zip(requests, batch):
            assert np.array_equal(emb, bert.embed_value_column(header, values))

    def test_row_template_model_batches_via_fallback(self, taptap, tables):
        bundles = taptap.embed_levels_batch(
            tables[:2], [(EmbeddingLevel.ROW,)] * 2
        )
        for table, bundle in zip(tables, bundles):
            assert np.array_equal(bundle[EmbeddingLevel.ROW], taptap.embed_rows(table))

    def test_row_template_bundle_honors_requested_levels(self, tables):
        from repro.errors import ModelError, UnsupportedLevelError
        from repro.models.base import SurrogateModel
        from repro.models.config import ModelConfig, Serialization
        from repro.models.zoo.taptap import CONFIG

        # A ROW_TEMPLATE config that *claims* table support: the bundle
        # must fail like embed_table does, never return a wrong level.
        claiming = SurrogateModel(
            ModelConfig(
                name="rt-claims-table",
                serialization=Serialization.ROW_TEMPLATE,
                levels=frozenset({EmbeddingLevel.ROW, EmbeddingLevel.TABLE}),
            )
        )
        with pytest.raises(ModelError):
            claiming.embed_levels(tables[0], (EmbeddingLevel.TABLE,))
        # And the honest taptap config rejects it at the support check.
        with pytest.raises(UnsupportedLevelError):
            SurrogateModel(CONFIG).embed_levels(tables[0], (EmbeddingLevel.TABLE,))


class TestExecutor:
    def test_passthrough_surface(self, bert, tables):
        executor = as_executor(bert)
        assert executor.name == bert.name and executor.dim == bert.dim
        assert executor.supports(EmbeddingLevel.COLUMN)
        assert as_executor(executor) is executor
        table = tables[0]
        assert np.array_equal(executor.embed_columns(table), bert.embed_columns(table))
        assert np.array_equal(executor.embed_rows(table), bert.embed_rows(table))
        assert np.array_equal(executor.embed_table(table), bert.embed_table(table))

    def test_deduplicates_identical_tables(self, bert, tables):
        cache = EmbeddingCache(max_entries=64)
        executor = EmbeddingExecutor(bert, cache=cache)
        table = tables[0]
        clone = Table.from_columns(
            [
                (table.header[c], table.column_values(c))
                for c in range(table.num_columns)
            ],
            table_id=table.table_id,
        )
        bundles = executor.embed_levels_many([table, clone, table], LEVELS)
        # One unique fingerprint: three misses (one per level) on first
        # sight, everything else served from the same slot.
        assert cache.stats.puts == len(LEVELS)
        for level in LEVELS:
            assert np.array_equal(bundles[0][level], bundles[2][level])

    def test_cache_hits_across_calls(self, bert, tables):
        cache = EmbeddingCache(max_entries=64)
        executor = EmbeddingExecutor(bert, cache=cache)
        executor.embed_levels_many(tables, LEVELS)
        misses_after_first = cache.stats.misses
        again = executor.embed_levels_many(tables, LEVELS)
        assert cache.stats.misses == misses_after_first  # pure hits
        assert cache.stats.hits >= len(tables) * len(LEVELS)
        for table, bundle in zip(tables, again):
            assert np.array_equal(bundle[EmbeddingLevel.COLUMN], bert.embed_columns(table))

    def test_cached_results_identical_to_uncached(self, bert, tables):
        cached = EmbeddingExecutor(bert, cache=EmbeddingCache(max_entries=64))
        naive = EmbeddingExecutor(bert, naive=True)
        for _ in range(2):  # second pass exercises hits
            a = cached.embed_levels_many(tables, LEVELS)
            b = naive.embed_levels_many(tables, LEVELS)
            for bundle_a, bundle_b in zip(a, b):
                for level in LEVELS:
                    assert np.array_equal(bundle_a[level], bundle_b[level])

    def test_value_columns_dedup_and_cache(self, bert):
        cache = EmbeddingCache(max_entries=64)
        executor = EmbeddingExecutor(bert, cache=cache)
        requests = [("h", [1, 2, 3]), ("h", [1, 2, 3]), ("g", ["a", "b"])]
        first = executor.embed_value_columns(requests)
        assert np.array_equal(first[0], first[1])
        assert cache.stats.puts == 2  # two unique requests
        executor.embed_value_columns(requests)
        assert cache.stats.hits >= 2

    def test_embed_cells_and_entities_cached(self, bert, tables):
        cache = EmbeddingCache(max_entries=64)
        executor = EmbeddingExecutor(bert, cache=cache)
        table = tables[0]
        coords = [(0, 0), (1, 1)]
        first = executor.embed_cells(table, coords)
        second = executor.embed_cells(table, coords)
        assert set(first) == set(second)
        assert cache.stats.hits >= 1

    def test_p4_encodes_each_case_table_once(self, monkeypatch):
        from repro.core.properties.p4_functional_dependencies import FunctionalDependencies
        from repro.data.spider import SpiderGenerator

        cases = SpiderGenerator(seed=9).fd_evaluation_sets(2)
        model, encoded = counting_model("bert", monkeypatch)
        executor = EmbeddingExecutor(model, cache=EmbeddingCache(max_entries=64))
        result = FunctionalDependencies().run(executor, cases)
        distinct = {table_fingerprint(case.table) for group in cases for case in group}
        # Cases share tables, so one encode per table is fewer than one per case.
        assert len(encoded) == len(distinct) < sum(map(len, cases))
        direct = FunctionalDependencies().run(cached_model("bert"), cases)
        assert result.to_dict() == direct.to_dict()

    def test_disk_tier_serves_cells_and_entities_without_encoding(
        self, tmp_path, monkeypatch, linked_table
    ):
        long_table = Table.from_columns(
            [
                ("name", [f"item number {i}" for i in range(120)]),
                ("price", list(range(120))),
            ],
            table_id="planner-long",
        )
        coords = [(0, 0), (3, 1), (119, 0)]
        raw = cached_model("bert")
        want_cells = raw.embed_cells(long_table, coords)
        want_entities = raw.embed_entities(linked_table)
        assert set(want_cells) == {(0, 0), (3, 1)}  # (119, 0) is truncated away

        first = EmbeddingExecutor(
            load_model("bert"), cache=EmbeddingCache(max_entries=8, disk_dir=str(tmp_path))
        )
        first.embed_cells(long_table, coords[:1])
        first.embed_entities(linked_table)
        model, encoded = counting_model("bert", monkeypatch)
        cache = EmbeddingCache(max_entries=8, disk_dir=str(tmp_path))
        second = EmbeddingExecutor(model, cache=cache)
        cells = second.embed_cells(long_table, coords)
        entities = second.embed_entities(linked_table)
        assert encoded == [] and cache.stats.disk_hits == 2
        assert set(cells) == set(want_cells)
        assert all(np.array_equal(cells[k], want_cells[k]) for k in want_cells)
        assert set(entities) == set(want_entities)
        assert all(np.array_equal(entities[k], want_entities[k]) for k in want_entities)

    def test_returned_dicts_are_fresh(self, bert, linked_table):
        executor = EmbeddingExecutor(bert, cache=EmbeddingCache(max_entries=8))
        coords = [(0, 0), (1, 2)]
        cells = executor.embed_cells(linked_table, coords)
        cells.pop((0, 0))
        cells[(9, 9)] = np.ones(bert.dim)
        assert set(executor.embed_cells(linked_table, coords)) == {(0, 0), (1, 2)}
        entities = executor.embed_entities(linked_table)
        ids = set(entities)
        entities.clear()
        again = executor.embed_entities(linked_table)
        assert set(again) == ids and ids
        with pytest.raises(ValueError):
            again[min(ids)][0] = 0.0  # vectors are read-only views of the entry

    def test_unknown_level_rejected(self, bert, tables):
        executor = as_executor(bert)
        with pytest.raises(ValueError):
            executor.embed_levels_many(tables[:1], (EmbeddingLevel.CELL,))

    def test_generic_model_fallback(self, tables):
        class Minimal:
            """Duck-typed model without any batch capability."""

            name = "minimal"
            dim = 4

            def supports(self, level):
                return level == EmbeddingLevel.COLUMN

            def supported_levels(self):
                return frozenset({EmbeddingLevel.COLUMN})

            def embed_columns(self, table):
                return np.ones((table.num_columns, 4))

        executor = EmbeddingExecutor(Minimal(), cache=EmbeddingCache(max_entries=8))
        bundles = executor.embed_levels_many(tables[:2], (EmbeddingLevel.COLUMN,))
        assert bundles[0][EmbeddingLevel.COLUMN].shape == (2, 4)


class TestRuntimeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(batch_size=0)
        with pytest.raises(ValueError):
            RuntimeConfig(cache_entries=0)
        with pytest.raises(ValueError):
            RuntimeConfig(max_workers=0)

    def test_build_cache_respects_enabled(self, tmp_path):
        assert RuntimeConfig(enabled=False).build_cache() is None
        cache = RuntimeConfig(disk_cache_dir=str(tmp_path / "c")).build_cache()
        assert isinstance(cache, EmbeddingCache)
        assert (tmp_path / "c").is_dir()


def test_tokenizer_memoization_transparent(bert):
    tokenizer = bert.tokenizer
    cold = tokenizer._tokenize_uncached("Grand Slam titles 2019")
    warm = tokenizer.tokenize("Grand Slam titles 2019")
    again = tokenizer.tokenize("Grand Slam titles 2019")
    assert cold == warm == again
    assert warm is not again  # callers get fresh lists, not the cached one
