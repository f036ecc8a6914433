"""Feature index, tf-idf weighting, and noise profile tests."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from namesift.corpus import NOISE_LABEL, term_frequencies, tokenize
from namesift.features import (
    IDF_NUMERATORS,
    LOG_BASES,
    ConfigError,
    FeatureConfig,
    build_index,
    build_noise_profile,
    intersection_noise,
    l1_normalize,
    tfidf,
    union_noise,
    _uniform,
    vectorize,
)
from namesift.models import TaskResources

import oracles
from conftest import build_task, random_micro_task


def _tokens_of(index, vector):
    return {index.tokens[fid]: w for fid, w in vector.items()}


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize(
    "kwargs",
    [
        {"idf_numerator": "banana"},
        {"log_base": "3"},
        {"noise": "everything"},
        {"intersection_semantics": "most"},
    ],
)
def test_feature_config_rejects_unknown_values(kwargs):
    with pytest.raises(ConfigError):
        FeatureConfig(**kwargs)


def test_feature_config_defaults():
    config = FeatureConfig()
    assert config.idf_numerator == "corpus"
    assert config.log_base == "e"
    assert config.noise == "none"


# ---------------------------------------------------------------------------
# the index


def test_index_orders_documents_before_entities():
    task = build_task({"e1": "cat dog"}, {"d1": "ant bee", "d2": "bee cat"})
    index = build_index(task)
    assert index.document_ids == ["d1", "d2"]
    assert index.entity_ids == ["e1"]
    assert index.elements == ["d1", "d2", "e1", NOISE_LABEL]
    assert index.corpus_size == 3
    # Feature ids follow first occurrence, documents first.
    assert index.tokens[: index.feature_count] == ["ant", "bee", "cat", "dog"]


def test_index_document_frequencies():
    task = build_task({"e1": "cat dog"}, {"d1": "ant bee", "d2": "bee cat"})
    index = build_index(task)
    df = {tok: index.df[index.feature_id(tok)] for tok in ("ant", "bee", "cat", "dog")}
    assert df == {"ant": 1, "bee": 2, "cat": 2, "dog": 1}


def test_index_term_lookups():
    task = build_task({"e1": "cat cat dog"}, {"d1": "ant"})
    index = build_index(task)
    counts = index.counts_of("e1")
    assert counts[index.feature_id("cat")] == 2
    assert index.max_counts["e1"] == 2
    assert index.token_totals["e1"] == 3
    with pytest.raises(KeyError):
        index.feature_id("zebra")
    with pytest.raises(KeyError):
        index.counts_of("missing")
    with pytest.raises(KeyError):
        index.counts_of(NOISE_LABEL)  # the noise entity has no term statistics


# ---------------------------------------------------------------------------
# tf-idf


def test_tfidf_worked_example_both_numerators():
    # Element c has counts {a: 2, b: 1}; a second element contributes df(a)=2.
    task = build_task({"e1": "a"}, {"c": "a a b"})
    index = build_index(task)
    paper = FeatureConfig(idf_numerator="paper")
    corpus = FeatureConfig(idf_numerator="corpus")
    # |F_c| = 2 equals |C| = 2 here, so both modes agree.
    assert tfidf("a", "c", index, paper) == pytest.approx(0.0, abs=1e-15)
    assert tfidf("b", "c", index, paper) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert tfidf("b", "c", index, corpus) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert tfidf("b", "c", index, corpus) == pytest.approx(0.3466, abs=5e-5)


def test_tfidf_absent_feature_scores_zero():
    task = build_task({"e1": "a"}, {"c": "a a b"})
    index = build_index(task)
    assert tfidf("b", "e1", index) == 0.0


def test_tfidf_accepts_feature_id_or_token():
    task = build_task({"e1": "a"}, {"c": "a a b"})
    index = build_index(task)
    fid = index.feature_id("b")
    assert tfidf(fid, "c", index) == tfidf("b", "c", index)
    with pytest.raises(KeyError):
        tfidf(99, "c", index)
    with pytest.raises(KeyError):
        tfidf("a", "nobody", index)


def test_paper_numerator_can_go_negative_corpus_never_does():
    # Feature in every element: df = |C| = 3 but |F_e1| = 2 < df.
    task = build_task({"e1": "a b"}, {"d1": "a x", "d2": "a y"})
    index = build_index(task)
    w = tfidf("a", "e1", index, FeatureConfig(idf_numerator="paper"))
    assert w < 0.0
    rng = np.random.default_rng(5)
    for _ in range(30):
        task = random_micro_task(rng)
        index = build_index(task)
        for element in index.document_ids + index.entity_ids:
            vec = vectorize(element, index, FeatureConfig(idf_numerator="corpus"))
            assert all(w >= 0.0 for w in vec.values())


def test_vectorize_omits_exact_zeros():
    # df(a) = |C| makes the corpus-mode idf of "a" exactly zero.
    task = build_task({"e1": "a b"}, {"d1": "a c"})
    index = build_index(task)
    vec = _tokens_of(index, vectorize("d1", index))
    assert "a" not in vec
    assert vec["c"] > 0.0


def test_vectorize_of_empty_element_is_empty():
    task = build_task({"e1": ""}, {"d1": "a"})
    index = build_index(task)
    assert vectorize("e1", index) == {}


def test_vectorize_matches_dense_oracle_on_random_micro_corpora():
    rng = np.random.default_rng(23)
    for _ in range(20):
        task = random_micro_task(rng)
        for numerator in ("paper", "corpus"):
            for log_base in ("e", "2", "10"):
                expected = oracles.dense_weights(task, numerator, log_base)
                config = FeatureConfig(idf_numerator=numerator, log_base=log_base)
                index = build_index(task)
                for element in index.document_ids + index.entity_ids:
                    got = _tokens_of(index, vectorize(element, index, config))
                    assert got.keys() == expected[element].keys()
                    for token, w in expected[element].items():
                        assert got[token] == pytest.approx(w, abs=1e-12)


# Tokens as the tokenizer keeps them; some are non-ASCII, and the second
# pool only ever reaches entity profiles.
_SHARED_TOKENS = ("ant", "bee", "élan", "straße", "日本", "ωmega", "x1", "42")
_ENTITY_TOKENS = ("zeta", "ünïcode", "東京")


@settings(max_examples=200, deadline=None)
@given(
    documents=st.lists(st.lists(st.sampled_from(_SHARED_TOKENS), max_size=12), max_size=5),
    entities=st.lists(st.lists(st.sampled_from(_SHARED_TOKENS + _ENTITY_TOKENS), max_size=12), max_size=3),
    numerator=st.sampled_from(IDF_NUMERATORS),
    log_base=st.sampled_from(LOG_BASES),
)
def test_index_matches_scalar_reference_bit_for_bit(documents, entities, numerator, log_base):
    task = build_task(
        {f"e{i}": " ".join(tokens) for i, tokens in enumerate(entities)},
        {f"d{i}": " ".join(tokens) for i, tokens in enumerate(documents)},
    )
    ref = oracles.index_ref(task, numerator, log_base)
    config = FeatureConfig(idf_numerator=numerator, log_base=log_base)
    index = build_index(task)
    assert index.tokens == ref["tokens"]
    assert list(index.df) == ref["df"]
    for element, pairs in ref["counts"].items():
        assert list(index.counts_of(element).items()) == pairs
        assert vectorize(element, index, config) == ref["weights"][element]

    entity_features = {fid for eid in index.entity_ids for fid, _ in ref["counts"][eid]}
    assert union_noise(index).features == entity_features
    assert intersection_noise(index).features == {fid for fid in entity_features if ref["df"][fid] >= 2}

    # The scoring arrays hold the same weights: document rows in
    # first-occurrence order (zeros kept), entity rows dense.
    arrays = TaskResources.from_task(task, config).arrays
    doc_pairs = [pair for did in index.document_ids for pair in ref["counts"][did]]
    assert arrays.rows.indices.tolist() == [fid for fid, _ in doc_pairs]
    assert arrays.rows.tfidf.tolist() == [
        ref["weights"][did].get(fid, 0.0) for did in index.document_ids for fid, _ in ref["counts"][did]
    ]
    for row, eid in zip(arrays.entities, index.entity_ids):
        assert {int(fid): float(row[fid]) for fid in np.flatnonzero(row)} == ref["weights"][eid]


def test_build_index_holds_one_element_of_tokens_at_a_time():
    """Above the index it returns, build_index allocates one element's tokens and counts and one join."""
    rng = np.random.default_rng(5)
    vocabulary = [f"w{i}" for i in range(5000)]
    documents = {f"d{i}": " ".join(rng.choice(vocabulary, size=400)) for i in range(80)}
    task = build_task({"e1": " ".join(vocabulary[:300])}, documents)
    largest = max([*task.documents, *task.entities], key=lambda element: len(element.text))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        frequencies = term_frequencies(tuple(tokenize(largest.text)))
        one_element = tracemalloc.get_traced_memory()[1] - start
        del frequencies
        tracemalloc.reset_peak()
        index = build_index(task)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Every element's counts held at once, as when all are counted before
    # any is numbered, would take about 80 elements' worth.
    assert peak - current <= 2 * one_element + index.features.nbytes, (peak - current, one_element)


def test_weights_take_the_scalar_log():
    # 21 elements and a feature in 20 of them: np.log(21 / 20) and
    # math.log(21 / 20) differ in the last bit on some machines.
    task = build_task({}, {f"d{i}": "common" if i else "rare" for i in range(21)})
    index = build_index(task)
    assert vectorize("d1", index) == {index.feature_id("common"): math.log(21 / 20)}


# ---------------------------------------------------------------------------
# L1 normalization


def test_l1_normalize_worked_example():
    assert l1_normalize({1: 1.0, 2: 3.0}) == {1: 0.25, 2: 0.75}


def test_l1_normalize_degenerate_inputs():
    assert l1_normalize({}) == {}
    assert l1_normalize({1: 0.0, 2: 0.0}) == {}


def test_l1_normalize_properties():
    rng = np.random.default_rng(17)
    for _ in range(50):
        size = int(rng.integers(1, 8))
        vec = {int(f): float(w) for f, w in enumerate(rng.uniform(0.01, 5.0, size=size))}
        unit = l1_normalize(vec)
        assert sum(abs(w) for w in unit.values()) == pytest.approx(1.0, abs=1e-12)
        scaled = l1_normalize({f: 7.5 * w for f, w in vec.items()})
        for f in vec:
            assert scaled[f] == pytest.approx(unit[f], abs=1e-12)


# ---------------------------------------------------------------------------
# noise profiles


def test_union_noise_worked_example():
    task = build_task({"e1": "a b", "e2": "b c"}, {"d1": "q"})
    index = build_index(task)
    profile = union_noise(index)
    weights = _tokens_of(index, profile.vector)
    assert weights == {"a": pytest.approx(1 / 3), "b": pytest.approx(1 / 3), "c": pytest.approx(1 / 3)}
    assert profile.kind == "union"


def test_union_noise_without_entities_is_empty():
    task = build_task({}, {"d1": "a b"})
    index = build_index(task)
    assert union_noise(index).vector == {}


def test_intersection_noise_exists_worked_example():
    # F_e1 = {a,b}, F_e2 = {c}, F_d1 = {b,c}: b is shared by e1 and d1,
    # c by e2 and d1, a by nobody.
    task = build_task({"e1": "a b", "e2": "c"}, {"d1": "b c"})
    index = build_index(task)
    profile = intersection_noise(index, "exists")
    assert _tokens_of(index, profile.vector) == {"b": pytest.approx(0.5), "c": pytest.approx(0.5)}


def test_intersection_noise_forall_is_usually_empty():
    task = build_task({"e1": "a b", "e2": "c"}, {"d1": "b c"})
    index = build_index(task)
    assert intersection_noise(index, "forall").vector == {}


def test_intersection_noise_forall_vacuous_case():
    # One entity and no documents: no (entity, other element) pair exists.
    task = build_task({"e1": "a b"}, {})
    index = build_index(task)
    assert intersection_noise(index, "forall").vector == {}
    assert intersection_noise(index, "exists").vector == {}


def test_intersection_noise_forall_nonempty_when_all_pairs_share():
    task = build_task({"e1": "a b", "e2": "a c"}, {"d1": "a d"})
    index = build_index(task)
    profile = intersection_noise(index, "forall")
    assert _tokens_of(index, profile.vector) == {"a": pytest.approx(1.0)}


@settings(max_examples=300, deadline=None)
@given(
    documents=st.lists(st.lists(st.sampled_from(("a", "b", "c")), max_size=6), max_size=5),
    entities=st.lists(st.lists(st.sampled_from(("a", "b", "c")), max_size=6), max_size=3),
)
def test_intersection_noise_forall_matches_pair_loop(documents, entities):
    task = build_task(
        {f"e{i}": " ".join(tokens) for i, tokens in enumerate(entities)},
        {f"d{i}": " ".join(tokens) for i, tokens in enumerate(documents)},
    )
    index = build_index(task)
    assert intersection_noise(index, "forall").features == oracles.forall_pairs_ref(index)


def test_intersection_noise_rejects_unknown_semantics():
    task = build_task({"e1": "a"}, {"d1": "b"})
    with pytest.raises(ConfigError):
        intersection_noise(build_index(task), "sometimes")


def test_noise_feature_sets_match_pair_enumeration_oracle():
    rng = np.random.default_rng(41)
    for _ in range(40):
        task = random_micro_task(rng)
        index = build_index(task)
        got_union = {index.tokens[f] for f in union_noise(index).features}
        assert got_union == oracles.union_features(task)
        got_exists = {index.tokens[f] for f in intersection_noise(index, "exists").features}
        assert got_exists == oracles.exists_intersection_features(task)
        got_forall = {index.tokens[f] for f in intersection_noise(index, "forall").features}
        assert got_forall == oracles.forall_intersection_features(task)


def test_noise_vectors_are_uniform_and_sum_to_one():
    rng = np.random.default_rng(43)
    for _ in range(20):
        task = random_micro_task(rng)
        index = build_index(task)
        for profile in (union_noise(index), intersection_noise(index, "exists")):
            if not profile.vector:
                continue
            values = set(profile.vector.values())
            assert len(values) == 1
            assert sum(profile.vector.values()) == pytest.approx(1.0, abs=1e-12)
            assert list(profile.vector) == sorted(profile.vector)


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(st.integers(0, 50), max_size=40))
@example(ids=[])
@example(ids=[7, 3, 7, 0, 3, 3])
def test_uniform_profile_keeps_each_feature_once_in_ascending_order(ids):
    profile = _uniform(np.array(ids, dtype=np.int64), "union")
    expected = sorted(set(ids))
    assert list(profile.vector) == expected
    assert all(type(fid) is int for fid in profile.vector)
    assert all(weight == 1.0 / len(expected) for weight in profile.vector.values())
    assert profile.kind == "union"


def test_build_noise_profile_dispatch():
    task = build_task({"e1": "a b", "e2": "b c"}, {"d1": "b"})
    index = build_index(task)
    assert build_noise_profile(index, FeatureConfig(noise="none")) is None
    assert build_noise_profile(index, FeatureConfig(noise="union")).kind == "union"
    profile = build_noise_profile(index, FeatureConfig(noise="intersection"))
    assert profile.kind == "intersection"
