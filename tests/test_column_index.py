"""Property and unit tests for the persistent column index.

The headline contract — pruning-off queries are *bit-identical* (keys,
float scores, order) to the brute-force :class:`JoinDiscoveryIndex`
oracle — is asserted over hypothesis-generated corpora that include
duplicated rows (score ties) and adversarial magnitudes.  The oracle is
fed :meth:`ColumnIndex.quantize`-d embeddings, which is the documented
equivalence precondition (shards store float32).
"""

import os
import pickle
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.downstream.join_discovery import JoinDiscoveryIndex
from repro.errors import ColumnIndexError
from repro.index import (
    PROBE_RECALL_FLOOR,
    PRUNE_MODES,
    ColumnIndex,
    default_min_candidates,
)

DIM = 5

finite_floats = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)


def _usable(vector):
    """Quantized vector must clear the index's zero-norm floor."""
    return (
        np.linalg.norm(ColumnIndex.quantize(np.asarray(vector, dtype=np.float64)))
        >= 1e-6
    )


row_strategy = st.lists(finite_floats, min_size=DIM, max_size=DIM).filter(_usable)


@st.composite
def corpora(draw):
    """(rows, query): distinct base rows plus duplicated picks for ties."""
    base = draw(st.lists(row_strategy, min_size=1, max_size=12))
    # Duplicate some rows so stable tie-breaking is actually exercised.
    dupes = draw(
        st.lists(st.integers(min_value=0, max_value=len(base) - 1), max_size=6)
    )
    rows = [np.asarray(r, dtype=np.float64) for r in base]
    rows += [rows[i].copy() for i in dupes]
    query = np.asarray(draw(row_strategy), dtype=np.float64)
    return rows, query


def _build_pair(tmp_path, rows, shard_rows=4):
    """A ColumnIndex and the oracle over the same quantized corpus."""
    keys = [f"col{i}" for i in range(len(rows))]
    index = ColumnIndex.build(
        os.path.join(str(tmp_path), "idx"),
        zip(keys, rows),
        dim=DIM,
        shard_rows=shard_rows,
    )
    oracle = JoinDiscoveryIndex(DIM)
    for key, row in zip(keys, rows):
        oracle.add(key, ColumnIndex.quantize(row))
    return index, oracle


@settings(deadline=None, max_examples=30)
@given(data=corpora(), k_seed=st.integers(min_value=1, max_value=10**6))
def test_pruning_off_is_bit_identical_to_oracle(tmp_path_factory, data, k_seed):
    rows, query = data
    tmp = tmp_path_factory.mktemp("ci")
    index, oracle = _build_pair(tmp, rows)
    k = 1 + k_seed % len(rows)
    got = index.query(query, k, prune="off")
    want = oracle.lookup(query, k)
    # Tuple equality covers keys, order, AND exact float bit-equality.
    assert got == want


@settings(deadline=None, max_examples=15)
@given(data=corpora(), split_seed=st.integers(min_value=0, max_value=10**6))
def test_append_then_query_equals_build_from_scratch(
    tmp_path_factory, data, split_seed
):
    rows, query = data
    tmp = tmp_path_factory.mktemp("ci")
    keys = [f"col{i}" for i in range(len(rows))]
    built = ColumnIndex.build(
        os.path.join(str(tmp), "built"), zip(keys, rows), dim=DIM
    )
    appended = ColumnIndex.create(os.path.join(str(tmp), "appended"), DIM)
    split = split_seed % (len(rows) + 1)
    appended.append_many(zip(keys[:split], rows[:split]), shard_rows=3)
    # A query after every append folds one shard at a time into the
    # handle's matrix and builds each plan from it.  A handle opened on a
    # copy of that generation folds it all at once and builds its own
    # plan, and must answer the same.
    for step, (key, row) in enumerate(zip(keys[split:], rows[split:])):
        appended.append(key, row)
        snapshot = os.path.join(str(tmp), f"generation-{step}")
        shutil.copytree(appended.directory, snapshot)
        fresh = ColumnIndex.open(snapshot)
        k = min(4, len(appended))
        for prune in PRUNE_MODES:
            assert appended.query(query, k, prune=prune) == fresh.query(
                query, k, prune=prune
            )
    k = min(4, len(rows))
    for prune in PRUNE_MODES:
        assert appended.query(query, k, prune=prune) == built.query(
            query, k, prune=prune
        )


@settings(deadline=None, max_examples=10)
@given(data=corpora())
def test_pickle_and_reopen_round_trip_bit_identically(tmp_path_factory, data):
    rows, query = data
    tmp = tmp_path_factory.mktemp("ci")
    index, _ = _build_pair(tmp, rows)
    k = min(3, len(rows))
    want = index.query(query, k)
    clone = pickle.loads(pickle.dumps(index))
    assert clone.query(query, k) == want
    reopened = ColumnIndex.open(index.directory)
    assert reopened.query(query, k) == want


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_appends_do_not_accumulate_file_descriptors(tmp_path):
    rng = np.random.default_rng(4)
    index = ColumnIndex.create(str(tmp_path / "idx"), DIM)
    before = len(os.listdir("/proc/self/fd"))
    for i in range(200):
        index.append(f"k{i}", rng.normal(size=DIM))
        index.query(np.ones(DIM), 1)
    grown = len(os.listdir("/proc/self/fd")) - before
    assert grown < 10, f"{grown} descriptors left open by 200 one-row appends"


def test_append_and_plan_rebuild_reuse_the_folded_matrix(tmp_path):
    """After the first query, an append folds only its own rows and the
    next plan is built from the folded matrix: neither step allocates
    another corpus-sized matrix."""
    import tracemalloc

    rows, dim = 20_000, 64
    rng = np.random.default_rng(9)
    corpus = rng.normal(size=(rows, dim))
    index = ColumnIndex.build(
        str(tmp_path / "idx"), ((f"k{i}", row) for i, row in enumerate(corpus)), dim=dim
    )
    query = rng.normal(size=dim)
    index.query(query, 10)
    matrix_bytes = rows * dim * 8
    extra = rng.normal(size=dim)

    def peak(step):
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    append_peak = peak(lambda: (index.append("extra", extra), index.query(query, 10)))
    assert append_peak < matrix_bytes / 4, (
        f"append + off query peaked at {append_peak}B; the corpus matrix "
        f"is {matrix_bytes}B, so the query rebuilt it"
    )
    plan_peak = peak(lambda: index.query(query, 10, prune="probe"))
    assert plan_peak < matrix_bytes, (
        f"plan rebuild peaked at {plan_peak}B, above the {matrix_bytes}B "
        "corpus matrix it should reuse"
    )


def _clustered_corpus(rng, n_clusters, per_cluster, dim=16):
    centers = rng.normal(size=(n_clusters, dim)) * 4.0
    rows, keys = [], []
    for c in range(n_clusters):
        points = centers[c] + rng.normal(size=(per_cluster, dim)) * 0.5
        rows.extend(points)
        keys.extend(f"c{c}_{i}" for i in range(per_cluster))
    return centers, keys, np.asarray(rows)


def test_probe_recall_meets_documented_floor(tmp_path):
    rng = np.random.default_rng(202)
    dim = 16
    centers, keys, rows = _clustered_corpus(rng, n_clusters=12, per_cluster=60, dim=dim)
    index = ColumnIndex.build(
        str(tmp_path / "idx"), zip(keys, rows), dim=dim
    )
    recalls = []
    for t in range(40):
        query = centers[t % len(centers)] + rng.normal(size=dim) * 0.5
        exact = {key for key, _ in index.query(query, 10, prune="off")}
        probe = {key for key, _ in index.query(query, 10, prune="probe")}
        recalls.append(len(exact & probe) / 10)
    assert float(np.mean(recalls)) >= PROBE_RECALL_FLOOR
    assert min(recalls) >= 0.5


def test_probe_widens_to_candidate_floor(tmp_path):
    rng = np.random.default_rng(7)
    keys = [f"k{i}" for i in range(30)]
    rows = rng.normal(size=(30, DIM))
    index = ColumnIndex.build(str(tmp_path / "idx"), zip(keys, rows), dim=DIM)
    # The scale-aware floor exceeds the corpus: probe degrades gracefully
    # to exhaustive and must therefore match the exact result set.
    assert default_min_candidates(30) >= 30
    query = rng.normal(size=DIM)
    exact = index.query(query, 5, prune="off")
    probe = index.query(query, 5, prune="probe")
    assert {k for k, _ in probe} == {k for k, _ in exact}


def test_explicit_probes_and_min_candidates(tmp_path):
    rng = np.random.default_rng(8)
    keys = [f"k{i}" for i in range(120)]
    rows = rng.normal(size=(120, DIM))
    index = ColumnIndex.build(str(tmp_path / "idx"), zip(keys, rows), dim=DIM)
    query = rng.normal(size=DIM)
    with pytest.raises(ColumnIndexError, match="must be positive"):
        index.query(query, 3, prune="probe", probes=0)
    with pytest.raises(ColumnIndexError, match="must be positive"):
        index.query(query, 3, prune="probe", min_candidates=0)
    # Arguments are checked before the partition plan is built, so a
    # rejected query leaves no partitions-*.npz behind.
    assert not [f for f in os.listdir(index.directory) if f.startswith("partitions-")]
    narrow = index.query(query, 3, prune="probe", probes=1, min_candidates=1)
    assert len(narrow) == 3
    # rows_scored counts the candidates a probe gathered, every row for off.
    assert 3 <= index.rows_scored < 120
    scored = index.rows_scored
    wide = index.query(query, 3, prune="probe", min_candidates=120)
    assert index.rows_scored == scored + 120
    assert wide == index.query(query, 3, prune="off")
    assert index.describe()["rows_scored"] == scored + 240


def test_validation_errors(tmp_path):
    index = ColumnIndex.create(str(tmp_path / "idx"), DIM)
    with pytest.raises(ColumnIndexError, match="empty"):
        index.query(np.ones(DIM), 1)
    with pytest.raises(ColumnIndexError, match="expected a"):
        index.append("short", np.ones(DIM - 1))
    with pytest.raises(ColumnIndexError, match="zero embedding"):
        index.append("zero", np.zeros(DIM))
    # Small enough to quantize to float32 zero: rejected, not indexed.
    with pytest.raises(ColumnIndexError, match="zero embedding"):
        index.append("tiny", np.full(DIM, 1e-300))
    index.append("ok", np.ones(DIM))
    with pytest.raises(ColumnIndexError, match="k must be"):
        index.query(np.ones(DIM), 2)
    with pytest.raises(ColumnIndexError, match="k must be"):
        index.query(np.ones(DIM), 0)
    with pytest.raises(ColumnIndexError, match="zero embedding"):
        index.query(np.zeros(DIM), 1)
    with pytest.raises(ColumnIndexError, match="prune"):
        index.query(np.ones(DIM), 1, prune="fast")
    with pytest.raises(ColumnIndexError, match="dim"):
        ColumnIndex(str(tmp_path / "idx"), dim=DIM + 1, create=True)
    with pytest.raises(ColumnIndexError, match="no column index"):
        ColumnIndex.open(str(tmp_path / "nowhere"))


def test_describe_and_exports(tmp_path):
    import repro

    assert repro.ColumnIndex is ColumnIndex
    assert PRUNE_MODES == ("off", "probe")
    index = ColumnIndex.create(str(tmp_path / "idx"), DIM)
    index.append_many((f"k{i}", np.eye(DIM)[i % DIM] + 1.0) for i in range(7))
    info = index.describe()
    assert info["rows"] == 7 == len(index)
    assert info["dim"] == DIM
    assert info["dropped_shards"] == 0
    assert set(info["prune_modes"]) == set(PRUNE_MODES)
    assert index.keys() == [f"k{i}" for i in range(7)]
    # No plan exists yet; a pruned query builds and persists one, and a
    # fresh handle reports it from disk without rebuilding.
    assert info["partitions"] is None
    index.query(np.ones(DIM), 1, prune="probe")
    partitions = index.describe()["partitions"]
    assert partitions is not None and partitions >= 1
    reopened = ColumnIndex.open(str(tmp_path / "idx"))
    assert reopened.describe()["partitions"] == partitions


def test_quantize_is_exact_for_float32_values():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=8).astype(np.float32).astype(np.float64)
    assert np.array_equal(ColumnIndex.quantize(raw), raw)
