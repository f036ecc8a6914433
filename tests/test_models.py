"""Scoring function and document-mapping tests."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from namesift.corpus import NOISE_LABEL, ResultDocument, Task
from namesift import models
from namesift.features import (
    INTERSECTION_SEMANTICS,
    NOISE_MODES,
    ConfigError,
    FeatureConfig,
    build_index,
    build_noise_profile,
)
from namesift.models import (
    LAPLACE_DENOMINATORS,
    MODELS,
    ClassFit,
    DocumentRows,
    ModelConfig,
    TaskResources,
    assign_from_context,
    bernoulli_log_probs,
    build_context,
    jelinek_mercer_log_probs,
    laplace_log_priors,
    map_documents,
    multinomial_log_coefficient,
    smoothed_profile,
    unit_rows,
)

import oracles
from conftest import VOCAB, build_task, random_micro_task


# ---------------------------------------------------------------------------
# configuration


def test_model_config_defaults():
    config = ModelConfig(model="cosine")
    assert config.alpha == 0.01
    assert config.jm_lambda == 0.5
    assert config.laplace_denominator == "paper"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"model": "svm"},
        {"model": "cosine", "alpha": 0.0},
        {"model": "cosine", "alpha": -1.0},
        {"model": "cosine", "jm_lambda": 0.0},
        {"model": "cosine", "jm_lambda": 1.0},
        {"model": "cosine", "jm_lambda": 1.5},
        {"model": "cosine", "laplace_denominator": "huge"},
        {"model": "cosine", "alpha": float("inf")},
        {"model": "cosine", "alpha": float("nan")},
        {"model": "cosine", "alpha": True},
        {"model": "cosine", "jm_lambda": float("nan")},
        {"model": "cosine", "jm_lambda": True},
    ],
)
def test_model_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        ModelConfig(**kwargs)


# ---------------------------------------------------------------------------
# vector scores


WIDTH = 8  # feature columns of the hand-written vectors below


def _rows(*docs):
    """Document rows whose tf-idf weights and counts are both the given values."""
    values = np.array([w for doc in docs for w in doc.values()], dtype=float)
    return DocumentRows(
        indices=np.array([f for doc in docs for f in doc], dtype=np.int64),
        offsets=np.cumsum([0] + [len(doc) for doc in docs]),
        tfidf=values,
        counts=values,
    )


def _dense(*vectors):
    out = np.zeros((len(vectors), WIDTH))
    for row, vector in zip(out, vectors):
        for f, w in vector.items():
            row[f] = w
    return out


def dot_score(u, v):
    """Dot product of sparse ``u`` and ``v`` through the scoring layer."""
    rows = _rows(u)
    return float(rows.dot(_dense(v), rows.tfidf)[0, 0])


def _smoothed(entities, rows):
    """`smoothed_profile` given the cosine product, as a fit gives it."""
    return smoothed_profile(entities, rows, rows.dot(unit_rows(entities), rows.unit()))


def cosine_sim(u, v):
    """Cosine of sparse ``u`` and ``v`` through the cosine model's rows and class matrix."""
    rows = _rows(u)
    return float(rows.dot(unit_rows(_dense(v)), rows.unit())[0, 0])


def test_dot_score_worked_example():
    assert dot_score({1: 0.5, 2: 0.5}, {1: 0.2, 3: 0.3}) == pytest.approx(0.1, abs=1e-12)
    assert dot_score({1: 0.4}, {}) == 0.0
    v = {1: 0.3, 2: 1.2}
    assert dot_score(v, v) == pytest.approx(0.3**2 + 1.2**2, abs=1e-12)


def test_cosine_worked_examples():
    v = {1: 0.7, 2: 0.1}
    assert cosine_sim(v, v) == pytest.approx(1.0, abs=1e-12)
    assert cosine_sim({1: 1.0}, {2: 5.0}) == 0.0
    assert cosine_sim({1: 1.0, 2: 1.0}, {1: 1.0}) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert cosine_sim({}, v) == 0.0
    assert cosine_sim({1: 0.0}, v) == 0.0


# ---------------------------------------------------------------------------
# smoothed profiles


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 20), max_size=6),
    width=st.integers(1, 6),
    classes=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[0, 1, 0, 12], width=3, classes=0, seed=0)  # noise off: a 0 x F weight matrix
@example(sizes=[1, 0, 1], width=2, classes=3, seed=1)  # empty and one-position documents
@example(sizes=[], width=1, classes=2, seed=2)  # no documents
def test_dot_equals_the_all_classes_reference(sizes, width, classes, seed):
    rng = np.random.default_rng(seed)
    positions = sum(sizes)
    values = rng.standard_normal(positions) * (rng.random(positions) > 0.2)
    rows = DocumentRows(
        indices=rng.integers(0, width, positions),
        offsets=np.cumsum([0] + sizes),
        tfidf=values,
        counts=values,
    )
    weights = rng.standard_normal((classes, width)) * (rng.random((classes, width)) > 0.2)
    product = rows.dot(weights, values)
    expected = oracles.dot_ref(rows.indices, rows.offsets, weights, values)
    assert product.shape == expected.shape == (len(sizes), classes)
    assert product.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 20), max_size=6),
    width=st.integers(0, 6),
    classes=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[], width=3, classes=2, seed=0)  # no documents
@example(sizes=[0, 0], width=3, classes=2, seed=1)  # only empty documents
@example(sizes=[], width=0, classes=1, seed=2)  # one class, zero features
@example(sizes=[4, 0, 7], width=5, classes=1, seed=3)  # one class
def test_smoothed_profile_equals_the_all_classes_bincount(sizes, width, classes, seed):
    rng = np.random.default_rng(seed)
    if width == 0:
        sizes = [0] * len(sizes)
    positions = sum(sizes)
    tfidf = rng.standard_normal(positions) * (rng.random(positions) > 0.2)
    rows = DocumentRows(
        indices=rng.integers(0, max(width, 1), positions),
        offsets=np.cumsum([0] + sizes),
        tfidf=tfidf,
        counts=np.abs(tfidf),
    )
    entities = rng.standard_normal((classes, width)) * (rng.random((classes, width)) > 0.3)
    entities[rng.random(classes) < 0.25] = 0.0  # all-zero entity rows
    profiles = smoothed_profile(entities, rows, rows.dot(unit_rows(entities), rows.unit()))
    expected = oracles.smoothed_ref(entities, rows.indices, rows.offsets, rows.tfidf)
    assert profiles.shape == expected.shape == (classes, width)
    assert profiles.tobytes() == expected.tobytes()


def test_smoothed_profile_allocates_less_than_one_classes_by_positions_array():
    # Positions far outnumber features, as on real tasks: 16 classes over
    # 1,000 features and 500 documents of 100 stored positions each.
    rng = np.random.default_rng(0)
    classes, width, docs, size = 16, 1_000, 500, 100
    tfidf = rng.random(docs * size)
    rows = DocumentRows(
        indices=rng.integers(0, width, docs * size),
        offsets=np.arange(docs + 1) * size,
        tfidf=tfidf,
        counts=tfidf,
    )
    entities = rng.random((classes, width))
    tracemalloc.start()
    try:
        _smoothed(entities, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < classes * docs * size * 8


def test_smoothed_profile_with_no_documents_is_l1_of_entity():
    entity = {1: 2.0, 2: 6.0}
    assert np.array_equal(_smoothed(_dense(entity), _rows()), _dense(oracles.l1(entity)))


def test_smoothed_profile_ignores_orthogonal_documents():
    entity = {1: 1.0}
    assert np.array_equal(_smoothed(_dense(entity), _rows({2: 4.0})), _dense(oracles.l1(entity)))


def test_smoothed_profile_works_on_all_entity_rows_at_once():
    entities = _dense({1: 1.0}, {2: 3.0}, {})
    profiles = _smoothed(entities, _rows({1: 1.0, 2: 1.0}))
    pull = 0.5 / math.sqrt(2)
    assert profiles[0, 1:3] == pytest.approx([1.0 + pull, pull], abs=1e-12)
    assert profiles[1, 1:3] == pytest.approx([pull, 1.0 + pull], abs=1e-12)
    # An all-zero entity row has cosine 0 with everything and stays zero.
    assert not profiles[2].any()


def test_smoothed_profile_worked_example():
    # cos(e, d) = 1/sqrt(2); the document mixes in at half weight per feature.
    entity = {1: 1.0}
    doc = {1: 1.0, 2: 1.0}
    profile = dict(enumerate(_smoothed(_dense(entity), _rows(doc))[0]))
    pull = 0.5 / math.sqrt(2)
    assert profile[1] == pytest.approx(1.0 + pull, abs=1e-12)
    assert profile[2] == pytest.approx(pull, abs=1e-12)
    assert profile[1] == pytest.approx(1.3536, abs=5e-5)


def test_smoothed_score_composition_example():
    profile = dict(enumerate(_smoothed(_dense({1: 1.0}), _rows({1: 1.0, 2: 1.0}))[0]))
    query = {1: math.log(2.0) / 2.0}  # w(1, d) = 0.3466, w(2, d) = 0
    exact = (1.0 + 0.5 / math.sqrt(2)) * (math.log(2.0) / 2.0)
    assert dot_score(query, profile) == pytest.approx(exact, abs=1e-12)
    # Four-digit headline value; it was formed from rounded factors.
    assert dot_score(query, profile) == pytest.approx(0.4692, abs=2e-4)


def test_smoothed_score_with_empty_corpus_equals_plain_score_on_l1():
    rng = np.random.default_rng(3)
    for _ in range(20):
        entity = {int(f): float(w) for f, w in enumerate(rng.uniform(0.1, 2.0, size=4))}
        query = {int(f): float(w) for f, w in enumerate(rng.uniform(0.0, 2.0, size=6))}
        smoothed = dict(enumerate(_smoothed(_dense(entity), _rows())[0]))
        assert dot_score(query, smoothed) == pytest.approx(
            dot_score(query, oracles.l1(entity)), abs=1e-12
        )


def _with_empty_document(task):
    """``task`` plus one empty result document labeled noise."""
    empty = ResultDocument(id="d_empty", url="http://corpus.test/d_empty", rank=len(task.documents) + 1, text="")
    labels = {**task.gold, empty.id: NOISE_LABEL}
    return Task(name=task.name, entities=task.entities, documents=task.documents + [empty], gold=labels)


@pytest.mark.parametrize("noise", NOISE_MODES)
def test_vector_models_match_dense_oracle(noise):
    rng = np.random.default_rng(61)
    for i in range(25):
        task = random_micro_task(rng, max_tokens=10)
        if i % 2 == 0:
            task = _with_empty_document(task)
        for model in ("cosine", "score", "score_smoothed"):
            config = ModelConfig(model=model, features=FeatureConfig(noise=noise))
            assignment = map_documents(task, config)
            for doc in task.documents:
                expected = oracles.vector_scores_ref(task, doc.id, noise=noise)[model]
                assert assignment.scores[doc.id] == pytest.approx(expected, rel=1e-9)


def test_context_smooths_entities_but_not_noise():
    task = build_task({"e1": "a b", "e2": "c d"}, {"d1": "a b x", "d2": "c y"})
    config = ModelConfig(model="score_smoothed", features=FeatureConfig(noise="union"))
    resources = TaskResources.from_task(task, config.features)
    assert build_context(task, config, resources).class_ids == ["e1", "e2", NOISE_LABEL]
    entity, noise = resources.fits(config)
    raw_entity, raw_noise = resources.fits(dataclasses.replace(config, model="score"))
    # The noise profile is used as-is, never pulled toward documents.
    assert noise.product.tobytes() == raw_noise.product.tobytes()
    assert not np.array_equal(entity.product[:, 0], raw_entity.product[:, 0])
    rows = resources.rows
    assert entity.product.tobytes() == rows.dot(_smoothed(resources.entities, rows), rows.tfidf).tobytes()


def test_score_smoothed_reuses_the_cosine_entity_product(monkeypatch):
    task = build_task({"e1": "a b", "e2": "c d"}, {"d1": "a b x", "d2": "c y"})
    resources = TaskResources.from_task(task, FeatureConfig())
    cosine, _ = resources.fits(ModelConfig(model="cosine"))
    sims, dots = [], []
    smooth, dot = models.smoothed_profile, DocumentRows.dot
    monkeypatch.setattr(models, "smoothed_profile", lambda *args: sims.append(args[-1]) or smooth(*args))
    monkeypatch.setattr(DocumentRows, "dot", lambda rows, *args: dots.append(args) or dot(rows, *args))
    resources.fits(ModelConfig(model="score_smoothed"))
    assert len(sims) == 1 and sims[0] is cosine.product
    assert len(dots) == 2  # the smoothed entity rows and the noise row, but no second cosine product


# ---------------------------------------------------------------------------
# Bernoulli with additive smoothing


def _bernoulli_scores(weights, *docs, alpha=0.01):
    """Documents x classes Bernoulli log scores of the given feature sets."""
    profiles = _dense(*weights)
    log_priors, _ = laplace_log_priors(profiles.sum(axis=1), alpha, denominator="paper")
    log_probs, _ = bernoulli_log_probs(profiles, alpha, denominator="paper")
    rows = _rows(*({f: 1.0 for f in doc} for doc in docs))
    return rows.dot(log_probs, rows.counts) + log_priors, log_priors


def test_bernoulli_worked_examples():
    scores, log_priors = _bernoulli_scores([{1: 0.5, 2: 0.5}], [1], [3])
    # Single class with unit mass: prior is (1 + 0.01) / (1 + 0.01).
    assert log_priors[0] == pytest.approx(0.0, abs=1e-12)
    assert scores[0, 0] == pytest.approx(math.log(0.51 / 1.01), abs=1e-12)
    assert scores[1, 0] == pytest.approx(math.log(0.01 / 1.01), abs=1e-12)
    assert 0.01 / 1.01 == pytest.approx(0.009901, abs=1e-6)


def test_bernoulli_empty_document_scores_prior_only():
    scores, log_priors = _bernoulli_scores([{1: 0.7}, {2: 0.3}], [])
    assert scores[0, 0] == log_priors[0]


def test_bernoulli_uses_distinct_features_not_frequencies():
    task = build_task({"e1": "a b", "e2": "c"}, {"d1": "a a a b", "d2": "a b"})
    config = ModelConfig(model="nb_bernoulli_laplace")
    resources = TaskResources.from_task(task, config.features)
    # Every stored document feature counts once, whatever its frequency.
    assert np.array_equal(resources.fits(config)[0].values, np.ones(4))
    # d1 and d2 share the same distinct-feature set, so identical scores.
    assignment = assign_from_context(build_context(task, config, resources))
    assert assignment.scores["d1"] == assignment.scores["d2"]


def test_laplace_prior_normalization_by_denominator_mode():
    masses = _dense({1: 0.6}, {2: 0.2}, {3: 0.2}).sum(axis=1)
    paper, _ = laplace_log_priors(masses, 0.01, denominator="paper")
    conventional, _ = laplace_log_priors(masses, 0.01, denominator="per_feature")
    mass = 1.0
    assert sum(math.exp(p) for p in paper) == pytest.approx(
        (mass + 3 * 0.01) / (mass + 0.01), abs=1e-12
    )
    assert sum(math.exp(p) for p in conventional) == pytest.approx(1.0, abs=1e-12)


def test_bernoulli_matches_linear_domain_oracle():
    rng = np.random.default_rng(29)
    for _ in range(25):
        task = random_micro_task(rng, max_tokens=10)
        for noise in ("none", "union", "intersection"):
            for denominator in ("paper", "per_feature"):
                config = ModelConfig(
                    model="nb_bernoulli_laplace",
                    laplace_denominator=denominator,
                    features=FeatureConfig(noise=noise),
                )
                ctx = build_context(task, config)
                assignment = assign_from_context(ctx)
                for doc in task.documents:
                    expected = oracles.bernoulli_linear(
                        task, doc.id, noise=noise, denominator=denominator
                    )
                    for cid, log_score in assignment.scores[doc.id].items():
                        assert math.exp(log_score) == pytest.approx(
                            expected[cid], rel=1e-9
                        )


# ---------------------------------------------------------------------------
# multinomial with background interpolation


def test_jelinek_mercer_mixture_worked_example():
    log_probs, _ = jelinek_mercer_log_probs(_dense({7: 0.2}), _dense({7: 0.1})[0], 0.5)
    rows = _rows({7: 1}, {7: 3})
    scores = rows.dot(log_probs, rows.counts)
    assert scores[0, 0] == pytest.approx(math.log(0.15), abs=1e-12)
    assert scores[1, 0] == pytest.approx(3 * math.log(0.15), abs=1e-12)


def test_background_floors_features_absent_from_class():
    log_probs, clamped = jelinek_mercer_log_probs(_dense({}), _dense({7: 0.1})[0], 0.5)
    rows = _rows({7: 1})
    assert rows.dot(log_probs, rows.counts)[0, 0] == pytest.approx(math.log(0.05), abs=1e-12)
    assert clamped[:, rows.indices].sum() == 0


def test_multinomial_matches_linear_domain_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        task = random_micro_task(rng, max_tokens=10)
        for noise in ("none", "union"):
            config = ModelConfig(model="nb_multinomial_jm", features=FeatureConfig(noise=noise))
            ctx = build_context(task, config)
            assignment = assign_from_context(ctx)
            for doc in task.documents:
                expected = oracles.multinomial_linear(task, doc.id, noise=noise)
                for cid, log_score in assignment.scores[doc.id].items():
                    assert math.exp(log_score) == pytest.approx(expected[cid], rel=1e-9)


def test_multinomial_log_coefficient_matches_factorials():
    rng = np.random.default_rng(37)
    for _ in range(50):
        freqs = {int(f): int(n) for f, n in enumerate(rng.integers(1, 6, size=int(rng.integers(1, 5))))}
        total = sum(freqs.values())
        expected = math.factorial(total)
        for n in freqs.values():
            expected //= math.factorial(n)
        assert multinomial_log_coefficient(freqs) == pytest.approx(math.log(expected), rel=1e-12)


def test_adding_multinomial_coefficient_never_changes_argmax():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 100:
        task = random_micro_task(rng, max_tokens=12)
        config = ModelConfig(model="nb_multinomial_jm", features=FeatureConfig(noise="union"))
        ctx = build_context(task, config)
        assignment = assign_from_context(ctx)
        for doc in task.documents:
            row = assignment.scores[doc.id]
            shift = multinomial_log_coefficient(build_index(task).term_counts[doc.id])
            shifted = {cid: s + shift for cid, s in row.items()}
            assert max(row, key=row.get) == max(shifted, key=shifted.get)
            checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# document mapping


def _assert_tie_rule(ctx, assignment):
    """mapping(d) must be the first class in ranking order that attains the max."""
    for doc_id, row in assignment.scores.items():
        best = max(row.values())
        winners = [cid for cid in ctx.class_ids if row[cid] == best]
        assert assignment.mapping[doc_id] == winners[0]


def test_document_identical_to_profile_maps_there():
    task = build_task(
        {"e1": "jazz guitar stage", "e2": "enzyme protein cell"},
        {"d1": "jazz guitar stage"},
        gold={"d1": "e1"},
    )
    assignment = map_documents(task, ModelConfig(model="cosine"))
    assert assignment.mapping["d1"] == "e1"
    assert assignment.scores["d1"]["e1"] == pytest.approx(1.0, abs=1e-12)


def test_score_union_fixture_routes_unmatched_document_to_noise():
    # Element-local idf zeroes the only shared feature, so every real
    # entity scores 0 while the uniform noise profile still overlaps d1.
    task = build_task({"e1": "z", "e2": "x y"}, {"d1": "x p q"})
    config = ModelConfig(
        model="score", features=FeatureConfig(idf_numerator="paper", noise="union")
    )
    ctx = build_context(task, config)
    assignment = assign_from_context(ctx)
    row = assignment.scores["d1"]
    assert row["e1"] == 0.0
    assert row["e2"] == 0.0
    assert row[NOISE_LABEL] > 0.0
    assert assignment.mapping["d1"] == NOISE_LABEL


def test_exact_tie_goes_to_first_entity_with_noise_ranked_last():
    # d2 pads the corpus so df(alpha) < |C| keeps the idf positive.
    task = build_task({"e1": "alpha", "e2": "alpha"}, {"d1": "alpha", "d2": "padding words"})
    config = ModelConfig(model="cosine", features=FeatureConfig(noise="union"))
    ctx = build_context(task, config)
    assignment = assign_from_context(ctx)
    row = assignment.scores["d1"]
    assert row["e1"] == row["e2"] == row[NOISE_LABEL] == pytest.approx(1.0)
    assert assignment.mapping["d1"] == "e1"
    assert ctx.class_ids[-1] == NOISE_LABEL


def test_empty_document_falls_back_to_first_entity_under_vector_models():
    task = build_task({"e1": "alpha", "e2": "beta"}, {"d1": ""})
    for model in ("cosine", "score", "score_smoothed"):
        config = ModelConfig(model=model, features=FeatureConfig(noise="union"))
        assignment = map_documents(task, config)
        assert assignment.mapping["d1"] == "e1"


def test_single_entity_without_noise_absorbs_everything():
    task = build_task({"e1": "alpha"}, {"d1": "unrelated words", "d2": ""})
    for model in MODELS:
        assignment = map_documents(task, ModelConfig(model=model))
        assert set(assignment.mapping.values()) == {"e1"}


def test_no_entities_and_no_noise_is_an_error():
    task = build_task({}, {"d1": "words"})
    with pytest.raises(ValueError):
        map_documents(task, ModelConfig(model="cosine"))


def test_no_entities_with_noise_enabled_maps_to_noise():
    task = build_task({}, {"d1": "words"})
    config = ModelConfig(model="cosine", features=FeatureConfig(noise="union"))
    assignment = map_documents(task, config)
    assert assignment.mapping["d1"] == NOISE_LABEL


def test_every_document_scored_against_every_class():
    rng = np.random.default_rng(53)
    for _ in range(10):
        task = random_micro_task(rng)
        for model in MODELS:
            for noise in ("none", "intersection"):
                config = ModelConfig(model=model, features=FeatureConfig(noise=noise))
                ctx = build_context(task, config)
                assignment = assign_from_context(ctx)
                assert set(assignment.mapping) == set(task.gold)
                for row in assignment.scores.values():
                    assert set(row) == set(ctx.class_ids)
                _assert_tie_rule(ctx, assignment)


def _texts(min_size: int):
    return st.lists(st.sampled_from(VOCAB), min_size=min_size, max_size=10).map(" ".join)


@st.composite
def micro_tasks(draw) -> Task:
    """1-2 entities and 1-4 documents over a small vocabulary; documents may be empty."""
    entities = draw(st.lists(_texts(1), min_size=1, max_size=2))
    documents = draw(st.lists(_texts(0), min_size=1, max_size=4))
    entity_ids = [f"e{i}" for i in range(len(entities))]
    gold = {f"d{i}": draw(st.sampled_from(entity_ids + [NOISE_LABEL])) for i in range(len(documents))}
    return build_task(
        dict(zip(entity_ids, entities)), {f"d{i}": text for i, text in enumerate(documents)}, gold=gold, name="micro"
    )


def _tied_with_best(scores: dict[str, float], **tolerance) -> list[str]:
    best = max(scores.values())
    return [cid for cid, score in scores.items() if score == pytest.approx(best, **tolerance)]


@settings(max_examples=60, deadline=None)
@given(task=micro_tasks(), denominator=st.sampled_from(("paper", "per_feature")))
def test_scoring_layer_matches_oracles_on_generated_tasks(task, denominator):
    # Same tolerances as the fixed-seed oracle tests; a mapping may take
    # any class the oracle scores level with the best.
    for noise in NOISE_MODES:
        vector_ref = {doc.id: oracles.vector_scores_ref(task, doc.id, noise=noise) for doc in task.documents}
        for model in MODELS:
            config = ModelConfig(model=model, laplace_denominator=denominator, features=FeatureConfig(noise=noise))
            assignment = map_documents(task, config)
            for doc in task.documents:
                if model == "nb_bernoulli_laplace":
                    expected = oracles.bernoulli_linear(task, doc.id, noise=noise, denominator=denominator)
                elif model == "nb_multinomial_jm":
                    expected = oracles.multinomial_linear(task, doc.id, noise=noise, denominator=denominator)
                else:
                    expected = vector_ref[doc.id][model]
                scores = assignment.scores[doc.id]
                if model.startswith("nb_"):
                    scores = {cid: math.exp(score) for cid, score in scores.items()}
                assert scores == pytest.approx(expected, rel=1e-9)
                assert assignment.mapping[doc.id] in _tied_with_best(expected, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(task=micro_tasks(), factor=st.floats(min_value=1e-3, max_value=1e3))
def test_scaling_document_vectors_preserves_vector_model_argmax(task, factor):
    # Scaled products round differently, so an exact tie may fall either way.
    for model in ("cosine", "score", "score_smoothed"):
        config = ModelConfig(model=model, features=FeatureConfig(noise="union"))
        resources = TaskResources.from_task(task, config.features)
        ctx = build_context(task, config, resources)
        baseline = assign_from_context(ctx)
        rows, (entity, _) = resources.rows, resources.fits(config)
        entities = _smoothed(resources.entities, rows) if model == "score_smoothed" else resources.entities
        W = np.vstack([entities, resources.noise_rows(config.features)])
        if model == "cosine":
            W = unit_rows(W)
        assert rows.dot(W, entity.values).tobytes() == ctx.product.tobytes()
        product = rows.dot(W, factor * entity.values)
        rescored = assign_from_context(dataclasses.replace(ctx, product=product))
        for doc_id, row in baseline.scores.items():
            assert rescored.scores[doc_id] == pytest.approx({c: factor * s for c, s in row.items()}, rel=1e-12)
            assert rescored.mapping[doc_id] in _tied_with_best(row, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), add_empty=st.booleans(), data=st.data())
def test_permuting_documents_permutes_the_mapping(seed, add_empty, data):
    # Permuting documents renumbers features, which may reorder float sums,
    # so rows agree to rounding and an exact tie may fall either way.
    task = random_micro_task(np.random.default_rng(seed))
    if add_empty:
        task = _with_empty_document(task)
    order = data.draw(st.permutations(task.documents))
    permuted = dataclasses.replace(task, documents=list(order))
    for model in MODELS:
        for noise in NOISE_MODES:
            config = ModelConfig(model=model, features=FeatureConfig(noise=noise))
            before = map_documents(task, config)
            after = map_documents(permuted, config)
            assert list(after.mapping) == [doc.id for doc in order]
            for doc_id, row in before.scores.items():
                assert after.scores[doc_id] == pytest.approx(row, rel=1e-12, abs=1e-12)
                best = row[before.mapping[doc_id]]
                tied = [cid for cid, s in row.items() if s == pytest.approx(best, rel=1e-12, abs=1e-12)]
                assert after.mapping[doc_id] in tied


def test_degenerate_weights_are_floored_and_counted():
    # Element-local idf makes w(a, e1) negative, so the additively smoothed
    # probability of an absent feature drops below zero and gets floored.
    task = build_task({"e1": "a"}, {"d1": "a a", "d2": "a b"})
    config = ModelConfig(
        model="nb_bernoulli_laplace", features=FeatureConfig(idf_numerator="paper")
    )
    assignment = map_documents(task, config)
    assert assignment.floored > 0
    assert all(math.isfinite(s) for row in assignment.scores.values() for s in row.values())
    # Bernoulli counts clamped fit-time probabilities; multinomial counts its
    # clamped priors plus clamped (document, class, feature) events.  With
    # union noise the e1 prior turns negative as well.
    expected = {
        ("nb_bernoulli_laplace", "none"): 1,
        ("nb_bernoulli_laplace", "union"): 2,
        ("nb_multinomial_jm", "none"): 0,
        ("nb_multinomial_jm", "union"): 1,
    }
    for (model, noise), count in expected.items():
        config = ModelConfig(model=model, features=FeatureConfig(idf_numerator="paper", noise=noise))
        assert map_documents(task, config).floored == count


def test_assignment_tsv_shape():
    task = build_task({"e1": "alpha"}, {"d1": "alpha", "d2": "beta"})
    assignment = map_documents(task, ModelConfig(model="cosine"))
    lines = assignment.to_tsv().splitlines()
    assert lines[0] == "doc_id\tassigned\tscore"
    assert len(lines) == 3
    doc_id, assigned, score = lines[1].split("\t")
    assert (doc_id, assigned) == ("d1", "e1")
    assert float(score) == pytest.approx(1.0)


def test_scores_dict_is_a_deep_copy():
    task = build_task({"e1": "alpha"}, {"d1": "alpha"})
    assignment = map_documents(task, ModelConfig(model="cosine"))
    copy = assignment.scores_dict()
    copy["d1"]["e1"] = -99.0
    assert assignment.scores["d1"]["e1"] != -99.0


def test_assignment_views_cannot_be_written_through():
    task = build_task({"e1": "alpha"}, {"d1": "alpha", "d2": "beta"})
    assignment = map_documents(task, ModelConfig(model="cosine", features=FeatureConfig(noise="union")))
    before = assignment.to_tsv(), assignment.scores_dict()
    with pytest.raises(TypeError):
        assignment.mapping["d1"] = NOISE_LABEL
    with pytest.raises(TypeError):
        assignment.scores["d1"] = {"e1": -99.0}
    with pytest.raises(TypeError):
        assignment.scores["d1"]["e1"] = -99.0
    assert (assignment.to_tsv(), assignment.scores_dict()) == before


# ---------------------------------------------------------------------------
# shared task resources


def test_resources_shared_across_models_give_identical_results():
    task = build_task(
        {"e1": "jazz guitar", "e2": "enzyme protein"},
        {"d1": "jazz stage", "d2": "protein cell", "d3": "lottery"},
    )
    features = FeatureConfig(noise="intersection")
    resources = TaskResources.from_task(task, features)
    for model in MODELS:
        config = ModelConfig(model=model, features=features)
        fresh = map_documents(task, config)
        shared = map_documents(task, config, resources)
        assert fresh.mapping == shared.mapping
        assert fresh.scores == shared.scores


def _config(model, noise, denominator, semantics, alpha, jm_lambda):
    features = FeatureConfig(noise=noise, intersection_semantics=semantics)
    return ModelConfig(model, alpha=alpha, jm_lambda=jm_lambda, laplace_denominator=denominator, features=features)


# Laplace denominator, intersection semantics, alpha, lambda.
_OPTION_VALUES = (LAPLACE_DENOMINATORS, ("exists", "forall"), (0.01, 0.5), (0.3, 0.5))


@settings(max_examples=40, deadline=None)
@given(task=micro_tasks(), data=st.data())
def test_one_resources_instance_serves_any_sequence_of_configurations(task, data):
    """Cached fits are keyed by every setting they depend on: a shared instance equals a fresh one."""
    configs = []
    for model in MODELS:
        for noise in NOISE_MODES:
            options = [data.draw(st.sampled_from(values)) for values in _OPTION_VALUES]
            configs.append(_config(model, noise, *options))
            # A neighbour that differs in one option alone: a cache key that
            # leaves the option out would serve it the first one's fit.
            i = data.draw(st.integers(0, len(options) - 1))
            options[i] = next(v for v in _OPTION_VALUES[i] if v != options[i])
            configs.append(_config(model, noise, *options))
    # Together these two take every value of every option.
    for options in zip(*_OPTION_VALUES):
        configs.append(_config(data.draw(st.sampled_from(MODELS)), data.draw(st.sampled_from(NOISE_MODES)), *options))
    resources = TaskResources.from_task(task, FeatureConfig())
    for config in data.draw(st.permutations(configs)):
        fresh = map_documents(task, config)
        shared = map_documents(task, config, resources)
        assert shared.mapping == fresh.mapping
        assert shared.scores == fresh.scores
        assert shared.floored == fresh.floored
        matrix = np.array([list(row.values()) for row in shared.scores.values()])
        assert matrix.tobytes() == np.array([list(row.values()) for row in fresh.scores.values()]).tobytes()


def test_resources_reject_mismatched_weighting_options():
    task = build_task({"e1": "a"}, {"d1": "b"})
    resources = TaskResources.from_task(task, FeatureConfig(idf_numerator="corpus"))
    config = ModelConfig(model="cosine", features=FeatureConfig(idf_numerator="paper"))
    with pytest.raises(ValueError, match="weighting options"):
        build_context(task, config, resources)


def test_resources_reject_another_task():
    # An equal task that is another object is refused too: resources belong to the instance they were built from.
    task = build_task({"e1": "a"}, {"d1": "a", "d2": "b"})
    other = build_task({"e1": "a"}, {"d1": "b", "d2": "a"})
    resources = TaskResources.from_task(task, FeatureConfig())
    config = ModelConfig(model="cosine")
    for scored in (other, build_task({"e1": "a"}, {"d1": "a", "d2": "b"})):
        with pytest.raises(ValueError, match="different task"):
            build_context(scored, config, resources)
        with pytest.raises(ValueError, match="different task"):
            map_documents(scored, config, resources)
    assert map_documents(task, config, resources).mapping == map_documents(task, config).mapping


def test_resources_are_built_from_their_inputs_alone():
    init = [f.name for f in dataclasses.fields(TaskResources) if f.init]
    assert init == ["task", "index", "weighting", "doc_vectors"]
    assert [f.name for f in dataclasses.fields(ClassFit)] == ["values", "product", "masses", "floored"]


def test_noise_rows_are_cached_per_semantics():
    task = build_task({"e1": "a b", "e2": "b c"}, {"d1": "b"})
    resources = TaskResources.from_task(task, FeatureConfig())
    for noise in ("union", "intersection"):
        for semantics in INTERSECTION_SEMANTICS:
            config = FeatureConfig(noise=noise, intersection_semantics=semantics)
            row = resources.noise_rows(config)
            assert row is resources.noise_rows(config)
            profile = build_noise_profile(resources.index, config)
            assert np.flatnonzero(row[0]).tolist() == profile.features.tolist()
            assert (row[0, profile.features] == profile.weight).all()
    exists, forall = (FeatureConfig(noise="intersection", intersection_semantics=s) for s in ("exists", "forall"))
    assert resources.noise_rows(exists) is not resources.noise_rows(forall)
    assert resources.noise_rows(FeatureConfig(noise="none")).shape == (0, resources.index.feature_count)


def test_noise_rows_and_gram_are_cached_read_only():
    task = build_task(
        {"e1": "a b", "e2": "b c"},
        {"d1": "b", "d2": "a b", "d3": "c"},
        gold={"d1": "e1", "d2": NOISE_LABEL, "d3": "e2"},
    )
    resources = TaskResources.from_task(task, FeatureConfig())
    union = FeatureConfig(noise="union")
    row = resources.noise_rows(union)
    assert row is resources.noise_rows(union)
    profile = build_noise_profile(resources.index, union)
    assert row.shape == (1, resources.index.feature_count)
    assert np.flatnonzero(row[0]).tolist() == profile.features.tolist()
    assert (row[0, profile.features] == profile.weight).all()
    assert resources.noise_rows(FeatureConfig(noise="none")).shape == (0, resources.index.feature_count)
    gram = resources.kept_gram
    assert gram is resources.kept_gram
    assert gram.ids == ("d1", "d3")
    for name in ("rows", "entities", "ml", "background"):
        assert getattr(resources, name) is getattr(resources, name)
    smoothed = resources.fits(ModelConfig(model="score_smoothed"))[0].product
    assert smoothed is resources.fits(ModelConfig(model="score_smoothed"))[0].product
    for array in (row, gram.matrix, resources.entities, resources.ml, resources.background[None, :], smoothed):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
