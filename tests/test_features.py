"""Feature index, tf-idf weighting, and noise profile tests."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from namesift.corpus import NOISE_LABEL, tokenize
from namesift.features import (
    IDF_NUMERATORS,
    LOG_BASES,
    ConfigError,
    FeatureConfig,
    FeatureVector,
    build_index,
    build_noise_profile,
    vectorize,
)
from namesift.models import TaskResources

import oracles
from conftest import build_task, random_micro_task


def _tokens_of(index, vector):
    return {index.tokens[fid]: w for fid, w in vector.items()}


def _weight(token, element_id, index, config=FeatureConfig()):
    """One token's tf-idf weight in one element, 0 where the element lacks it."""
    return vectorize(element_id, index, config).get(index.ids[token], 0.0)


def _noise(index, noise="union", semantics="exists"):
    """The noise row's nonzero feature ids, after checking its shape and its uniform weight."""
    row = build_noise_profile(index, FeatureConfig(noise=noise, intersection_semantics=semantics))
    assert isinstance(row, np.ndarray)
    assert row.shape == (1, index.feature_count)
    assert not row.flags.writeable
    ids = np.flatnonzero(row[0])
    assert (row[0, ids] == 1.0 / max(len(ids), 1)).all()
    return ids


def _noise_tokens(index, noise="union", semantics="exists"):
    ids = _noise(index, noise, semantics)
    return {index.tokens[fid]: 1.0 / len(ids) for fid in ids.tolist()}


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
    assert [index.span(e) for e in ("d1", "d2", "e1")] == [slice(0, 2), slice(2, 4), slice(4, 6)]
    assert index.corpus_size == 3
    # Feature ids follow first occurrence, documents first.
    assert index.tokens[: index.feature_count] == ["ant", "bee", "cat", "dog"]


def test_index_document_frequencies():
    task = build_task({"e1": "cat dog"}, {"d1": "ant bee", "d2": "bee cat"})
    index = build_index(task)
    df = {tok: index.df[index.ids[tok]] for tok in ("ant", "bee", "cat", "dog")}
    assert df == {"ant": 1, "bee": 2, "cat": 2, "dog": 1}


def test_index_term_lookups():
    task = build_task({"e1": "cat cat dog"}, {"d1": "ant"})
    index = build_index(task)
    counts = oracles.counts_ref("e1", index)
    assert counts[index.ids["cat"]] == 2
    assert max(counts.values()) == 2
    assert sum(counts.values()) == 3
    with pytest.raises(KeyError):
        index.ids["zebra"]  # the lookup no longer hands out new ids once indexing ends
    with pytest.raises(KeyError, match="unknown element"):
        index.span("missing")
    with pytest.raises(KeyError, match="noise entity"):
        index.span(NOISE_LABEL)  # the noise entity has no term statistics


def test_index_rows_are_cached_read_only_views():
    index = build_index(build_task({"e1": "cat cat dog"}, {"d1": "ant"}))
    assert oracles.counts_ref("e1", index) == {index.ids["cat"]: 2.0, index.ids["dog"]: 1.0}
    weights = index.weights(FeatureConfig())
    assert index.weights(FeatureConfig(noise="union")) is weights  # one array per weighting, whatever the noise
    for array in (index.features, index.counts, index.offsets, index.df, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[index.span("e1").start] = 3


# ---------------------------------------------------------------------------
# tf-idf


def test_tfidf_worked_example_both_numerators():
    # Element c has counts {a: 2, b: 1}; a second element contributes df(a)=2.
    task = build_task({"e1": "a"}, {"c": "a a b"})
    index = build_index(task)
    paper = FeatureConfig(idf_numerator="paper")
    corpus = FeatureConfig(idf_numerator="corpus")
    # |F_c| = 2 equals |C| = 2 here, so both modes agree.
    assert _weight("a", "c", index, paper) == pytest.approx(0.0, abs=1e-15)
    assert _weight("b", "c", index, paper) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert _weight("b", "c", index, corpus) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert _weight("b", "c", index, corpus) == pytest.approx(0.3466, abs=5e-5)


def test_tfidf_absent_feature_scores_zero():
    task = build_task({"e1": "a"}, {"c": "a a b"})
    index = build_index(task)
    assert _weight("b", "e1", index) == 0.0


def test_tfidf_accepts_feature_id_or_token():
    # A token's weight is read under its feature id: the vector's key and
    # the index's stored weights agree on it.
    task = build_task({"e1": "a"}, {"c": "a a b"})
    index = build_index(task)
    fid = index.ids["b"]
    span = index.span("c")
    stored = index.weights(FeatureConfig())[span][index.features[span].tolist().index(fid)]
    assert vectorize("c", index)[fid] == stored == _weight("b", "c", index)
    with pytest.raises(KeyError):
        vectorize("c", index)[99]
    with pytest.raises(KeyError):
        vectorize("nobody", index)


def test_paper_numerator_can_go_negative_corpus_never_does():
    # Feature in every element: df = |C| = 3 but |F_e1| = 2 < df.
    task = build_task({"e1": "a b"}, {"d1": "a x", "d2": "a y"})
    index = build_index(task)
    w = _weight("a", "e1", index, FeatureConfig(idf_numerator="paper"))
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


def test_feature_vector_repr_is_its_nonzero_dict():
    vector = FeatureVector(np.array([3, 1, 2]), np.array([0.5, 0.0, 2.0]))
    assert repr(vector) == "FeatureVector({3: 0.5, 2: 2.0})"


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
# "ant" is in every element, so its corpus-mode weight is exactly 0.
@example(documents=[["ant", "bee"], ["ant"]], entities=[["ant", "zeta"]], numerator="corpus", log_base="e")
def test_vector_view_keeps_the_dict_contract(documents, entities, numerator, log_base):
    task = build_task(
        {f"e{i}": " ".join(tokens) for i, tokens in enumerate(entities)},
        {f"d{i}": " ".join(tokens) for i, tokens in enumerate(documents)},
    )
    config = FeatureConfig(idf_numerator=numerator, log_base=log_base)
    index = build_index(task)
    for element in index.document_ids + index.entity_ids:
        vector = vectorize(element, index, config)
        ref = oracles.vector_ref(element, index, config)
        assert len(vector) == len(ref)
        items = list(vector.items())
        assert items == list(ref.items())
        assert all(type(fid) is int and type(w) is float for fid, w in items)
        assert vector == ref and ref == vector
        for fid in index.features[index.span(element)].tolist():
            assert (fid in vector) == (fid in ref)
            assert vector.get(fid) == ref.get(fid)
            if fid not in ref:  # stored, with a weight of exactly 0
                with pytest.raises(KeyError):
                    vector[fid]
        with pytest.raises(TypeError):
            vector[0] = 1.0


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
        assert list(oracles.counts_ref(element, index).items()) == pairs
        assert vectorize(element, index, config) == ref["weights"][element]

    entity_features = {fid for eid in index.entity_ids for fid, _ in ref["counts"][eid]}
    assert _noise(index).tolist() == sorted(entity_features)
    assert _noise(index, "intersection").tolist() == sorted(fid for fid in entity_features if ref["df"][fid] >= 2)

    # The scoring arrays hold the same weights: document rows in
    # first-occurrence order (zeros kept), entity rows dense.
    resources = TaskResources.from_task(task, config)
    doc_pairs = [pair for did in index.document_ids for pair in ref["counts"][did]]
    assert resources.rows.indices.tolist() == [fid for fid, _ in doc_pairs]
    assert resources.rows.tfidf.tolist() == [
        ref["weights"][did].get(fid, 0.0) for did in index.document_ids for fid, _ in ref["counts"][did]
    ]
    for row, eid in zip(resources.entities, index.entity_ids):
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
        frequencies = Counter(tuple(tokenize(largest.text)))
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


def test_vectors_do_not_copy_the_index():
    """A vector is a view of the index's arrays: a few hundred bytes, whatever its length."""
    rng = np.random.default_rng(5)
    vocabulary = [f"w{i}" for i in range(5000)]
    documents = {f"d{i}": " ".join(rng.choice(vocabulary, size=400)) for i in range(80)}
    index = build_index(build_task({"e1": " ".join(vocabulary[:300])}, documents))
    config = FeatureConfig()
    index.weights(config)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        vectors = [vectorize(did, index, config) for did in index.document_ids]
        nonzeros = sum(map(len, vectors))
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # A dict per document would cost tens of bytes per stored feature: about
    # 380 of them here.
    assert nonzeros > 300 * len(vectors)
    assert current - start < 2048 * len(vectors), (current - start) / len(vectors)


def test_weights_take_the_scalar_log():
    # 21 elements and a feature in 20 of them: np.log(21 / 20) and
    # math.log(21 / 20) differ in the last bit on some machines.
    task = build_task({}, {f"d{i}": "common" if i else "rare" for i in range(21)})
    index = build_index(task)
    assert vectorize("d1", index) == {index.ids["common"]: math.log(21 / 20)}


# ---------------------------------------------------------------------------
# noise profiles


def test_union_noise_worked_example():
    task = build_task({"e1": "a b", "e2": "b c"}, {"d1": "q"})
    index = build_index(task)
    assert _noise_tokens(index) == {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}


def test_union_noise_without_entities_is_empty():
    task = build_task({}, {"d1": "a b"})
    index = build_index(task)
    row = build_noise_profile(index, FeatureConfig(noise="union"))
    assert row.shape == (1, index.feature_count)
    assert not row.any()


def test_intersection_noise_exists_worked_example():
    # F_e1 = {a,b}, F_e2 = {c}, F_d1 = {b,c}: b is shared by e1 and d1,
    # c by e2 and d1, a by nobody.
    task = build_task({"e1": "a b", "e2": "c"}, {"d1": "b c"})
    index = build_index(task)
    assert _noise_tokens(index, "intersection", "exists") == {"b": 0.5, "c": 0.5}


def test_intersection_noise_forall_is_usually_empty():
    task = build_task({"e1": "a b", "e2": "c"}, {"d1": "b c"})
    index = build_index(task)
    assert _noise(index, "intersection", "forall").size == 0


def test_intersection_noise_forall_vacuous_case():
    # One entity and no documents: no (entity, other element) pair exists.
    task = build_task({"e1": "a b"}, {})
    index = build_index(task)
    assert _noise(index, "intersection", "forall").size == 0
    assert _noise(index, "intersection", "exists").size == 0


def test_intersection_noise_forall_nonempty_when_all_pairs_share():
    task = build_task({"e1": "a b", "e2": "a c"}, {"d1": "a d"})
    index = build_index(task)
    assert _noise_tokens(index, "intersection", "forall") == {"a": 1.0}


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
    assert _noise(index, "intersection", "forall").tolist() == sorted(oracles.forall_pairs_ref(index))


def test_noise_feature_sets_match_pair_enumeration_oracle():
    rng = np.random.default_rng(41)
    for _ in range(40):
        task = random_micro_task(rng)
        index = build_index(task)
        assert set(_noise_tokens(index)) == oracles.union_features(task)
        assert set(_noise_tokens(index, "intersection", "exists")) == oracles.exists_intersection_features(task)
        assert set(_noise_tokens(index, "intersection", "forall")) == oracles.forall_intersection_features(task)


def test_noise_vectors_are_uniform_and_sum_to_one():
    rng = np.random.default_rng(43)
    for _ in range(20):
        task = random_micro_task(rng)
        index = build_index(task)
        for noise in ("union", "intersection"):
            row = build_noise_profile(index, FeatureConfig(noise=noise))
            if row.any():
                assert row.sum() == pytest.approx(1.0, abs=1e-12)
                assert set(row[row != 0].tolist()) == {1.0 / np.count_nonzero(row)}


def test_build_noise_profile_dispatch():
    task = build_task({"e1": "a b", "e2": "b c"}, {"d1": "b"})
    index = build_index(task)
    off = build_noise_profile(index, FeatureConfig(noise="none"))
    assert isinstance(off, np.ndarray)
    assert off.shape == (0, index.feature_count)
    assert not off.flags.writeable
    assert _noise_tokens(index, "union") == {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
    assert _noise_tokens(index, "intersection", "exists") == {"b": 1.0}
    assert _noise_tokens(index, "intersection", "forall") == {"b": 1.0}
