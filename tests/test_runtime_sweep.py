"""Tests for Observatory.sweep, skip recording, and runtime determinism.

The suite passes under either sweep engine: CI runs it once with the
default thread engine and once with ``REPRO_SWEEP_EXECUTION=process``, so
every assertion here holds for both (engine-specific behaviour lives in
``tests/test_runtime_process_sweep.py``).
"""

import os

import pytest

from repro import Observatory, RuntimeConfig
from repro.analysis.report import render_sweep, sweep_matrix
from repro.core.framework import DatasetSizes
from repro.core.results import ModelCharacterizations, SkippedCell
from repro.errors import ObservatoryError
from repro.models.encoder import Encoder
from repro.runtime.cache import CacheStats

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


def make_observatory(**runtime_kwargs) -> Observatory:
    return Observatory(seed=3, sizes=SIZES, runtime=RuntimeConfig(**runtime_kwargs))


@pytest.fixture(scope="module")
def sweep():
    return make_observatory().sweep(["bert", "taptap"], PROPS, max_workers=1)


class TestSweep:
    def test_cells_and_skips(self, sweep):
        ran = {(c.model_name, c.property_name) for c in sweep.cells}
        assert ("bert", "row_order_insignificance") in ran
        assert ("bert", "sample_fidelity") in ran
        # taptap only embeds rows: P1 runs (row level), P5 cannot.
        assert ("taptap", "row_order_insignificance") in ran
        skipped = {(s.model_name, s.property_name) for s in sweep.skipped}
        assert ("taptap", "sample_fidelity") in skipped
        reason = next(s.reason for s in sweep.skipped)
        assert "column" in reason

    def test_lookup_and_structure(self, sweep):
        result = sweep.get("bert", "sample_fidelity")
        assert result is not None and result.model_name == "bert"
        assert sweep.get("bert", "nope") is None
        assert sweep.model_names[0] == "bert"
        assert sweep.property_names == PROPS
        as_dict = sweep.to_dict()
        assert len(as_dict["cells"]) == len(sweep.cells)
        assert as_dict["cache"]["hits"] == sweep.cache_stats.hits
        assert as_dict["execution"] == os.environ.get(
            "REPRO_SWEEP_EXECUTION", "thread"
        )
        assert "SweepResult" in repr(sweep)

    def test_cache_stats_is_typed(self, sweep):
        # SweepResult.cache_stats is a real CacheStats, not Optional[object]:
        # counters and derived rates are part of the structured result.
        assert isinstance(sweep.cache_stats, CacheStats)
        assert sweep.cache_stats.requests == (
            sweep.cache_stats.hits + sweep.cache_stats.misses
        )
        assert set(sweep.cache_stats.to_dict()) >= {
            "hits",
            "misses",
            "disk_evictions",
            "disk_drops",
            "hit_rate",
        }

    def test_entity_stability_recorded_not_run(self):
        sweep = make_observatory().sweep(
            ["bert"], ["entity_stability"], max_workers=1
        )
        assert not sweep.cells
        assert sweep.skipped[0].reason.startswith("pairwise property")

    def test_empty_inputs_rejected(self):
        obs = make_observatory()
        with pytest.raises(ObservatoryError):
            obs.sweep([], PROPS)
        with pytest.raises(ObservatoryError):
            obs.sweep(["bert"], [])

    def test_deterministic_across_worker_counts(self):
        outcomes = []
        for workers in (1, 3):
            sweep = make_observatory().sweep(["bert", "t5"], PROPS, max_workers=workers)
            outcomes.append(
                {
                    (c.model_name, c.property_name): c.result.to_dict()
                    for c in sweep.cells
                }
            )
        assert outcomes[0] == outcomes[1]

    def test_matches_sequential_uncached_characterize(self):
        sweep = make_observatory().sweep(["bert"], PROPS, max_workers=2)
        baseline = make_observatory(enabled=False)
        for prop in PROPS:
            expected = baseline.characterize("bert", prop).to_dict()
            assert sweep.get("bert", prop).to_dict() == expected

    def test_cache_effective_within_sweep(self, sweep):
        assert sweep.cache_stats is not None
        assert sweep.cache_stats.requests > 0
        # A second sweep over the same matrix is served from cache.
        obs = make_observatory()
        obs.sweep(["bert"], PROPS, max_workers=1)
        misses = obs.cache.stats.misses
        obs.sweep(["bert"], PROPS, max_workers=1)
        assert obs.cache.stats.misses == misses

    def test_cache_stats_not_rewritten_by_a_later_sweep(self):
        # Each result keeps the cumulative counters it returned with; a
        # second sweep on the same Observatory must not rewrite the first.
        obs = make_observatory()
        first = obs.sweep(["bert"], PROPS, max_workers=1, execution="thread")
        seen = (first.cache_stats.hits, first.cache_stats.misses)
        second = obs.sweep(["bert"], PROPS, max_workers=1, execution="thread")
        assert (first.cache_stats.hits, first.cache_stats.misses) == seen
        assert second.cache_stats is not first.cache_stats
        # Still cumulative: the warm rerun only adds hits.
        assert second.cache_stats.misses == seen[1]
        assert second.cache_stats.hits > seen[0]


class TestRendering:
    def test_render_sweep(self, sweep):
        text = render_sweep(sweep)
        assert "| model |" in text and "bert" in text
        assert "Skipped cells:" in text
        assert "hit rate" in text

    def test_sweep_matrix_values(self, sweep):
        matrix = sweep_matrix(sweep)
        assert matrix["bert"]["sample_fidelity"] is not None
        assert matrix["taptap"]["sample_fidelity"] is None


class TestCharacterizeModels:
    def test_records_skips(self):
        obs = make_observatory()
        results = obs.characterize_models(["bert", "taptap"], "sample_fidelity")
        assert isinstance(results, ModelCharacterizations)
        assert [r.model_name for r in results] == ["bert"]  # list behavior intact
        assert results.skipped == [
            SkippedCell("taptap", "sample_fidelity", "model exposes no column embeddings")
        ]
        assert "1 skipped" in repr(results)

    def test_no_skips_for_supported_models(self):
        obs = make_observatory()
        results = obs.characterize_models(["bert"], "row_order_insignificance")
        assert len(results) == 1 and results.skipped == []


def test_dataset_sizes_row_bounds_validated():
    with pytest.raises(ValueError):
        DatasetSizes(min_rows=15)  # lone bound would fight generator defaults
    with pytest.raises(ValueError):
        DatasetSizes(max_rows=4)
    with pytest.raises(ValueError):
        DatasetSizes(min_rows=9, max_rows=4)
    assert DatasetSizes(min_rows=15, max_rows=20).row_range_kwargs() == {
        "min_rows": 15,
        "max_rows": 20,
    }
    assert DatasetSizes().row_range_kwargs() == {}


def test_disk_cache_reused_across_observatories(tmp_path):
    disk = str(tmp_path / "emb")
    first = Observatory(
        seed=3, sizes=SIZES, runtime=RuntimeConfig(disk_cache_dir=disk)
    )
    first.characterize("bert", "row_order_insignificance")
    second = Observatory(
        seed=3, sizes=SIZES, runtime=RuntimeConfig(disk_cache_dir=disk)
    )
    result = second.characterize("bert", "row_order_insignificance")
    assert second.cache.stats.disk_hits > 0
    expected = first.characterize("bert", "row_order_insignificance")
    assert result.to_dict() == expected.to_dict()


# The two-pass workflow: characterize a matrix, then re-characterize it
# unchanged.  Dedup, level bundling and the cache remove encoder work,
# and that work is an exact count, so the win is asserted in tokens
# rather than seconds.
WORKFLOW_MODELS = ["bert", "tapas"]
WORKFLOW_PROPS = [
    "row_order_insignificance",
    "column_order_insignificance",
    "perturbation_robustness",
    "heterogeneous_context",
]
WORKFLOW_SIZES = DatasetSizes(
    wikitables_tables=3, sotab_tables=4, n_permutations=4, min_rows=5, max_rows=7
)


def count_encoder_tokens(monkeypatch):
    """Record the tokens every Encoder forward receives, for every model."""
    counted = []
    encode, stacked = Encoder.encode, Encoder.forward_batch

    def counting_encode(self, tokens):
        counted.append(len(tokens))
        return encode(self, tokens)

    def counting_stacked(self, token_lists):
        counted.append(sum(len(tokens) for tokens in token_lists))
        return stacked(self, token_lists)

    monkeypatch.setattr(Encoder, "encode", counting_encode)
    monkeypatch.setattr(Encoder, "forward_batch", counting_stacked)

    def drain() -> int:
        total = sum(counted)
        counted.clear()
        return total

    return drain


def test_two_pass_workflow_encodes_a_quarter_of_the_runtime_off_tokens(monkeypatch):
    # One thread worker: spawned workers never see the patch, and two
    # concurrent cells can both miss one table, so only serial counts repeat.
    drain = count_encoder_tokens(monkeypatch)
    off = Observatory(seed=0, sizes=WORKFLOW_SIZES, runtime=RuntimeConfig(enabled=False))
    expected = {}
    off_tokens = []
    for _ in range(2):
        for model in WORKFLOW_MODELS:
            for prop in WORKFLOW_PROPS:
                expected[(model, prop)] = off.characterize(model, prop).to_dict()
        off_tokens.append(drain())

    obs = Observatory(seed=0, sizes=WORKFLOW_SIZES, runtime=RuntimeConfig(batch_size=16))
    sweeps, sweep_tokens = [], []
    for _ in range(2):
        sweeps.append(
            obs.sweep(WORKFLOW_MODELS, WORKFLOW_PROPS, max_workers=1, execution="thread")
        )
        sweep_tokens.append(drain())
    cold_tokens, warm_tokens = sweep_tokens

    assert 0 < cold_tokens <= off_tokens[0]
    assert warm_tokens == 0
    assert sum(off_tokens) >= 3.5 * (cold_tokens + warm_tokens)  # 4.00x at seed 0
    assert obs.cache.stats.hit_rate > 0.45
    for sweep in sweeps:
        got = {(c.model_name, c.property_name): c.result.to_dict() for c in sweep.cells}
        assert got == expected
