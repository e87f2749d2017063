"""Tests for the dataset generators (banks, corpus, five suites)."""

import pytest

from repro.data import banks, nextiajd
from repro.data.corpus import TableCorpus
from repro.data.entities import EntityCatalog, QUERY_DOMAINS
from repro.data.nextiajd import NextiaJDGenerator, join_quality
from repro.data.sotab import NON_TEXTUAL_TYPES, SEMANTIC_TYPES, TEXTUAL_TYPES, SotabGenerator, is_textual_type
from repro.data.spider import SpiderGenerator
from repro.data.wikitables import WikiTablesGenerator
from repro.errors import DatasetError
from repro.relational.fd import satisfies
from repro.relational.overlap import containment, jaccard, multiset_jaccard


# --- banks --------------------------------------------------------------

def test_banks_semantic_consistency():
    # country -> continent must be a function of the bank itself.
    continents = {}
    for country, continent, _, _ in banks.COUNTRIES:
        assert continents.setdefault(country, continent) == continent


def test_bank_vocabulary_nonempty_lowercase():
    vocab = banks.bank_vocabulary()
    assert len(vocab) > 100
    assert all(w == w.lower() for w in vocab)


def test_value_fabricators_deterministic():
    assert banks.random_dates(5, 1) == banks.random_dates(5, 1)
    assert banks.random_isbns(3, "a") == banks.random_isbns(3, "a")
    assert banks.random_names(4, 2) != banks.random_names(4, 3)


def test_sample_rows_from_bank_without_replacement():
    rows = banks.sample_rows_from_bank(banks.MOVIES, 100, "t", replace=False)
    assert len(rows) == len(banks.MOVIES)
    assert len({r[0] for r in rows}) == len(rows)


# --- corpus --------------------------------------------------------------

def test_corpus_basics(small_corpus):
    assert len(small_corpus) == 6
    assert small_corpus[0].num_rows >= 5
    assert len(small_corpus.table_ids()) == 6


def test_corpus_filters(small_corpus):
    filtered = small_corpus.with_min_rows(5)
    assert all(t.num_rows >= 5 for t in filtered)
    with pytest.raises(DatasetError):
        small_corpus.with_min_rows(10**6)
    assert len(small_corpus.take(2)) == 2
    with pytest.raises(DatasetError):
        small_corpus.take(0)


def test_corpus_rejects_empty():
    with pytest.raises(DatasetError):
        TableCorpus("empty", [])


# --- wikitables -----------------------------------------------------------

def test_wikitables_generation():
    corpus = WikiTablesGenerator(seed=1).generate(8, min_rows=5, max_rows=8)
    assert len(corpus) == 8
    domains = {t.table_id.split("-")[0] for t in corpus}
    assert len(domains) == 8  # one table per domain template
    for table in corpus:
        assert 3 <= table.num_columns <= 6
        assert table.caption
        assert table.entity_links  # entity-rich
        assert table.subject_column_index() is not None


def test_wikitables_deterministic():
    a = WikiTablesGenerator(seed=5).generate(4)
    b = WikiTablesGenerator(seed=5).generate(4)
    for ta, tb in zip(a, b):
        assert ta == tb


def test_wikitables_unknown_domain():
    with pytest.raises(DatasetError):
        WikiTablesGenerator().generate_table("astrology", 5)


def test_wikitables_entity_links_point_at_subject():
    corpus = WikiTablesGenerator(seed=2).generate(8)
    for table in corpus:
        subject = table.schema.subject_index()
        for (r, c), entity_id in table.entity_links.items():
            assert c == subject
            assert str(table.cell(r, c)) in entity_id


# --- spider ----------------------------------------------------------------

def test_spider_databases_shape():
    dbs = SpiderGenerator(seed=1).generate(3)
    assert len(dbs) == 3
    assert all(len(db.tables) == 4 for db in dbs)


def test_spider_fd_sets_verified():
    fd_cases, non_fd_cases = SpiderGenerator(seed=1).fd_evaluation_sets(3)
    assert fd_cases and non_fd_cases
    assert len(non_fd_cases) <= len(fd_cases)
    for case in fd_cases:
        assert case.holds
        assert satisfies(case.table, case.fd)
    for case in non_fd_cases:
        assert not case.holds
        assert not satisfies(case.table, case.fd)


def test_spider_fd_cases_have_groups():
    from repro.relational.fd import fd_groups
    fd_cases, _ = SpiderGenerator(seed=2).fd_evaluation_sets(2)
    for case in fd_cases:
        groups = fd_groups(case.table, case.fd)
        assert max(len(rows) for rows in groups.values()) >= 2


def test_spider_validation():
    with pytest.raises(DatasetError):
        SpiderGenerator().generate(0)
    with pytest.raises(DatasetError):
        SpiderGenerator().generate(1, rows_per_table=2)


# --- nextiajd ----------------------------------------------------------------

def test_join_quality_thresholds():
    assert join_quality(0.9, 1.0) == 1.0
    assert join_quality(0.6, 0.5) == 0.75
    assert join_quality(0.3, 0.5) == 0.5
    assert join_quality(0.15, 0.01) == 0.25
    assert join_quality(0.05, 1.0) == 0.0
    with pytest.raises(DatasetError):
        join_quality(1.5, 1.0)
    with pytest.raises(DatasetError):
        join_quality(0.5, -1.0)


def test_nextiajd_pairs_labelled_consistently():
    pairs = NextiaJDGenerator(seed=1).generate_pairs(12, nextiajd.Testbed.XS)
    assert len(pairs) == 12
    for pair in pairs:
        assert pair.is_joinable
        assert pair.containment == pytest.approx(
            containment(pair.query_values, pair.candidate_values)
        )
        assert pair.jaccard == pytest.approx(
            jaccard(pair.query_values, pair.candidate_values)
        )
        assert pair.multiset_jaccard == pytest.approx(
            multiset_jaccard(pair.query_values, pair.candidate_values)
        )
        assert 0 < pair.multiset_jaccard <= 0.5


def test_nextiajd_testbed_sizes():
    xs = NextiaJDGenerator(seed=2).generate_pairs(4, nextiajd.Testbed.XS)
    lo, hi = nextiajd.Testbed.XS.column_size_range
    for pair in xs:
        assert lo <= len(pair.query_values) <= hi


def test_nextiajd_deterministic():
    a = NextiaJDGenerator(seed=3).generate_pairs(5)
    b = NextiaJDGenerator(seed=3).generate_pairs(5)
    assert a == b


def test_nextiajd_large_table():
    table = NextiaJDGenerator(seed=1).generate_large_table(n_rows=100, n_columns=12)
    assert table.num_rows == 100
    assert table.num_columns == 12
    with pytest.raises(DatasetError):
        NextiaJDGenerator().generate_large_table(n_rows=1)


# --- sotab ----------------------------------------------------------------

def test_sotab_twenty_balanced_types():
    assert len(SEMANTIC_TYPES) == 20
    assert len(TEXTUAL_TYPES) == 10
    assert len(NON_TEXTUAL_TYPES) == 10


def test_sotab_generation_and_targets():
    corpus = SotabGenerator(seed=1).generate(20)
    assert len(corpus) == 20
    seen_types = set()
    for table in corpus:
        target = SotabGenerator.target_column_index(table)
        semantic = table.schema[target].semantic_type
        seen_types.add(semantic)
        assert semantic in SEMANTIC_TYPES
    assert len(seen_types) == 20  # sweeps all types


def test_sotab_headerless_fraction():
    corpus = SotabGenerator(seed=1).generate(20, headerless_fraction=0.5)
    headerless = sum(1 for t in corpus if all(not n for n in t.header))
    assert 5 <= headerless <= 15


def test_sotab_is_textual_type():
    assert is_textual_type("country")
    assert not is_textual_type("money")
    with pytest.raises(DatasetError):
        is_textual_type("astrology")


# --- entities ----------------------------------------------------------------

def test_entity_catalog_structure():
    catalog = EntityCatalog(seed=0, queries_per_domain=5)
    assert set(catalog.domains()) == set(QUERY_DOMAINS)
    assert len(catalog) >= 5 * len(QUERY_DOMAINS)
    for domain in catalog.domains():
        queries = catalog.query_indices(domain)
        assert len(queries) == 5
        for q in queries:
            assert catalog.entities[q].domain == domain


def test_entity_catalog_contexts_contain_mentions():
    catalog = EntityCatalog(seed=0, queries_per_domain=3)
    for entity in catalog.entities[:10]:
        values = {
            str(entity.context_table.cell(r, c))
            for (r, c) in entity.context_table.entity_links
        }
        assert entity.mention in values


def test_entity_catalog_unknown_domain():
    catalog = EntityCatalog(seed=0, queries_per_domain=2)
    with pytest.raises(DatasetError):
        catalog.query_indices("astrology")
    with pytest.raises(DatasetError):
        catalog.index_of("astrology:Mars")
