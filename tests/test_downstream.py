"""Tests for the Section 6 downstream harnesses."""

import numpy as np
import pytest

from repro.data.drspider import PerturbationKind
from repro.data.nextiajd import NextiaJDGenerator
from repro.data.wikitables import WikiTablesGenerator
from repro.downstream.column_type_prediction import (
    ColumnTypePredictor,
    permutation_stability,
)
from repro.downstream.join_discovery import JoinDiscoveryIndex, evaluate_join_discovery
from repro.downstream.table_qa import (
    CellSelectionQA,
    evaluate_qa_robustness,
    make_qa_examples,
)
from repro.errors import DatasetError
from tests.conftest import cached_model


@pytest.fixture(scope="module")
def corpus():
    return WikiTablesGenerator(seed=11).generate(8, min_rows=5, max_rows=7)


# --- column type prediction ------------------------------------------------

def test_predictor_fit_and_predict(corpus):
    predictor = ColumnTypePredictor(cached_model("bert")).fit(corpus)
    assert predictor.classes
    predictions = predictor.predict_table(corpus[0])
    assert len(predictions) == corpus[0].num_columns
    assert all(p in predictor.classes for p in predictions)


def test_predictor_learns_training_columns(corpus):
    """On its own training tables the nearest-centroid probe should get a
    large majority of the column types right."""
    predictor = ColumnTypePredictor(cached_model("bert")).fit(corpus)
    correct = 0
    total = 0
    for table in corpus:
        predictions = predictor.predict_table(table)
        for col, predicted in zip(table.schema, predictions):
            total += 1
            if predicted == col.semantic_type:
                correct += 1
    assert correct / total > 0.7


def test_predictor_unfitted_raises(corpus):
    with pytest.raises(DatasetError):
        ColumnTypePredictor(cached_model("bert")).predict_table(corpus[0])


def test_permutation_stability_report(corpus):
    predictor = ColumnTypePredictor(cached_model("doduo")).fit(corpus)
    report = permutation_stability(
        predictor, corpus.take(4), n_permutations=4
    )
    assert report.n_tables == 4
    assert set(report.fraction_at_least) == {1, 2, 3}
    values = [report.fraction_at_least[k] for k in (1, 2, 3)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values, reverse=True)  # monotone in k
    assert ">= 1 changed" in report.summary()


def test_permutation_stability_validation(corpus):
    predictor = ColumnTypePredictor(cached_model("bert")).fit(corpus)
    with pytest.raises(DatasetError):
        permutation_stability(predictor, corpus, n_permutations=0)


# --- join discovery ----------------------------------------------------------

def test_index_add_and_lookup():
    index = JoinDiscoveryIndex(4)
    index.add("a", np.array([1.0, 0, 0, 0]))
    index.add("b", np.array([0, 1.0, 0, 0]))
    results = index.lookup(np.array([0.9, 0.1, 0, 0]), 1)
    assert results[0][0] == "a"
    assert len(index) == 2


def test_index_validation():
    index = JoinDiscoveryIndex(2)
    with pytest.raises(DatasetError):
        index.add("z", np.zeros(2))
    with pytest.raises(DatasetError):
        index.add("z", np.ones(3))
    with pytest.raises(DatasetError):
        index.lookup(np.ones(2), 1)  # empty index
    index.add("a", np.ones(2))
    with pytest.raises(DatasetError):
        index.lookup(np.ones(2), 5)


def test_evaluate_join_discovery_report():
    pairs = NextiaJDGenerator(seed=12).generate_pairs(8)
    report = evaluate_join_discovery(
        cached_model("bert"), pairs, k=3, sample_fraction=0.2
    )
    assert 0.0 <= report.precision_full <= 1.0
    assert 0.0 <= report.recall_sampled <= 1.0
    assert report.index_time_full > 0
    assert "precision" in report.summary()
    # Sampling must make indexing cheaper (fewer tokens to embed).
    assert report.index_time_sampled < report.index_time_full


def test_evaluate_join_discovery_empty():
    with pytest.raises(DatasetError):
        evaluate_join_discovery(cached_model("bert"), [])


def test_index_add_is_amortized_constant():
    """Regression: ``add`` used to invalidate the stacked matrix on every
    insert, making N adds + interleaved lookups O(N^2) stacking work.
    Geometric growth bounds reallocations at O(log N) for any add/lookup
    interleaving."""
    rng = np.random.default_rng(5)
    index = JoinDiscoveryIndex(8)
    n = 1000
    for i in range(n):
        index.add(f"k{i}", rng.normal(size=8))
        if i % 100 == 0:
            index.lookup(rng.normal(size=8), 1)  # interleaved queries
    assert len(index) == n
    # Doubling from 8: at most log2(1000/8)+1 ~ 8 reallocations.
    assert index.growths <= int(np.ceil(np.log2(n / 8))) + 1
    results = index.lookup(rng.normal(size=8), 3)
    assert len(results) == 3


def test_index_growth_preserves_lookup_results():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(37, 5))
    grown = JoinDiscoveryIndex(5)
    for i, row in enumerate(rows):
        grown.add(f"k{i}", row)
    query = rng.normal(size=5)
    scores = dict(grown.lookup(query, 37))
    # Reference: normalize and score directly (the pre-growth semantics).
    matrix = np.stack([row / np.linalg.norm(row) for row in rows])
    want = matrix @ (query / np.linalg.norm(query))
    for i in range(37):
        assert scores[f"k{i}"] == want[i]  # bit-identical


def test_evaluate_join_discovery_hits_embedding_cache():
    from repro import Observatory

    pairs = NextiaJDGenerator(seed=12).generate_pairs(6)
    executor = Observatory(seed=0).executor("bert")
    first = evaluate_join_discovery(executor, pairs, k=3, sample_fraction=0.2)
    hits_after_first = executor.cache_stats.hits
    second = evaluate_join_discovery(executor, pairs, k=3, sample_fraction=0.2)
    # Every column embedding of the repeat evaluation is a cache hit.
    assert executor.cache_stats.hits >= hits_after_first + 4 * len(pairs)
    assert (first.precision_full, first.recall_full) == (
        second.precision_full,
        second.recall_full,
    )
    assert (first.precision_sampled, first.recall_sampled) == (
        second.precision_sampled,
        second.recall_sampled,
    )


def test_evaluate_join_discovery_engine_parity(tmp_path):
    """The index engine with pruning off reproduces the exact engine's
    metrics whenever both see float32-quantized embeddings."""
    pairs = NextiaJDGenerator(seed=12).generate_pairs(8)
    model = cached_model("t5")
    exact = evaluate_join_discovery(model, pairs, k=3, quantize=True)
    indexed = evaluate_join_discovery(
        model,
        pairs,
        k=3,
        quantize=True,
        engine="index",
        prune="off",
        index_dir=str(tmp_path),
    )
    assert indexed.engine == "index"
    assert (exact.precision_full, exact.recall_full) == (
        indexed.precision_full,
        indexed.recall_full,
    )
    assert (exact.precision_sampled, exact.recall_sampled) == (
        indexed.precision_sampled,
        indexed.recall_sampled,
    )
    # The persistent index landed under index_dir (both variants).
    import os

    assert os.path.exists(tmp_path / "full" / "manifest.json")
    assert os.path.exists(tmp_path / "sampled" / "manifest.json")


def test_evaluate_join_discovery_pruned_engines_run():
    pairs = NextiaJDGenerator(seed=12).generate_pairs(6)
    report = evaluate_join_discovery(
        cached_model("t5"), pairs, k=2, engine="index", prune="probe"
    )
    assert report.prune == "probe"
    assert 0.0 <= report.precision_full <= 1.0


def test_evaluate_join_discovery_bad_engine():
    pairs = NextiaJDGenerator(seed=12).generate_pairs(4)
    with pytest.raises(DatasetError, match="engine"):
        evaluate_join_discovery(cached_model("bert"), pairs, engine="annoy")


# --- table QA -----------------------------------------------------------------

def test_make_qa_examples(corpus):
    examples = make_qa_examples(corpus, per_table=2, seed=1)
    assert examples
    for table_id, table_examples in examples.items():
        assert len(table_examples) <= 2
        for ex in table_examples:
            assert ex.table_id == table_id
            assert "What is the" in ex.question


def test_qa_answers_within_bounds(corpus):
    qa = CellSelectionQA(cached_model("bert"))
    examples = make_qa_examples(corpus, per_table=1, seed=1)
    table = corpus[0]
    example = examples[table.table_id][0]
    row, col = qa.answer(table, example)
    assert 0 <= row < table.num_rows
    assert 0 <= col < table.num_columns


def test_qa_accuracy_reasonable(corpus):
    """Exact lookups over clean tables should beat random guessing easily."""
    qa = CellSelectionQA(cached_model("bert"))
    examples = make_qa_examples(corpus, per_table=2, seed=2)
    accuracy = qa.accuracy(corpus, examples)
    # Random guessing would be ~ 1 / (rows * cols) ~= 3%.
    assert accuracy > 0.3


def test_qa_robustness_report(corpus):
    report = evaluate_qa_robustness(
        cached_model("tapas"),
        corpus.take(4),
        per_table=2,
        kinds=(PerturbationKind.SCHEMA_ABBREVIATION,),
    )
    assert 0.0 <= report.accuracy_original <= 1.0
    assert "schema-abbreviation" in report.accuracy_perturbed
    assert "drop" in report.summary()
    # Perturbing the schema can only hurt or tie a header-matching QA.
    assert (
        report.accuracy_perturbed["schema-abbreviation"]
        <= report.accuracy_original + 1e-9
    )
