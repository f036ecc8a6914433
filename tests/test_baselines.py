"""Clustering baseline tests: complete-link HAC and seeded K-Means."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namesift.baselines import (
    Clustering,
    _gram,
    _lloyd,
    assignment_to_clusters,
    hac_complete,
    kmeans,
    kmeans_objective,
    run_repetitions,
)

import oracles


def _sets(clustering: Clustering) -> set[frozenset]:
    return {frozenset(c) for c in clustering.clusters}


def _unit_matrix(vectors: dict[str, dict[int, float]]) -> tuple[list[str], np.ndarray]:
    """Vectors as L2-normalized dense rows over their feature union."""
    ids = list(vectors)
    features = sorted({f for vec in vectors.values() for f in vec})
    column = {f: j for j, f in enumerate(features)}
    matrix = np.zeros((len(ids), len(features)))
    for i, doc_id in enumerate(ids):
        for f, w in vectors[doc_id].items():
            matrix[i, column[f]] = w
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return ids, matrix / np.where(norms == 0.0, 1.0, norms)


def _random_vectors(rng: np.random.Generator, n: int, dims: int = 4) -> dict[str, dict[int, float]]:
    """Distinct dense-ish float vectors; continuous values avoid spurious ties."""
    out = {}
    for i in range(n):
        values = rng.uniform(0.1, 2.0, size=dims)
        mask = rng.uniform(size=dims) < 0.35
        vec = {j: float(w) for j, (w, drop) in enumerate(zip(values, mask)) if not drop}
        out[f"d{i}"] = vec or {0: float(values[0])}
    return out


# ---------------------------------------------------------------------------
# the Clustering type


def test_clustering_rejects_overlap_and_empty_clusters():
    with pytest.raises(ValueError):
        Clustering(clusters=[["d1"], ["d1"]], method="hac_complete", k=2)
    with pytest.raises(ValueError):
        Clustering(clusters=[["d1"], []], method="hac_complete", k=2)


def test_clustering_to_dict_is_canonical():
    clustering = Clustering(clusters=[["z", "a"], ["m"]], method="kmeans", k=2, seed=4)
    payload = clustering.to_dict()
    assert payload["clusters"] == [["a", "z"], ["m"]]
    assert payload["seed"] == 4
    assert payload["method"] == "kmeans"


# ---------------------------------------------------------------------------
# HAC


def test_hac_boundary_cluster_counts():
    vectors = {"d1": {0: 1.0}, "d2": {1: 1.0}, "d3": {0: 1.0, 1: 1.0}}
    assert _sets(hac_complete(vectors, 3)) == {frozenset({"d1"}), frozenset({"d2"}), frozenset({"d3"})}
    assert _sets(hac_complete(vectors, 1)) == {frozenset({"d1", "d2", "d3"})}


def test_hac_k_validation_and_clamping():
    vectors = {"d1": {0: 1.0}, "d2": {1: 1.0}}
    with pytest.raises(ValueError):
        hac_complete(vectors, 0)
    with pytest.raises(ValueError):
        hac_complete({}, 1)
    assert len(hac_complete(vectors, 10).clusters) == 2  # clamped to |docs|


def test_hac_two_separated_pairs():
    vectors = {"d1": {0: 1.0}, "d2": {0: 2.0}, "d3": {1: 1.0}, "d4": {1: 3.0}}
    clustering = hac_complete(vectors, 2)
    assert _sets(clustering) == {frozenset({"d1", "d2"}), frozenset({"d3", "d4"})}


def test_hac_distance_tie_resolved_by_smallest_doc_ids():
    # dist(d1,d2) = dist(d2,d3) = 1 - 1/sqrt(2); the (d1,d2) pair wins.
    vectors = {"d1": {0: 1.0}, "d2": {0: 1.0, 1: 1.0}, "d3": {1: 1.0}}
    clustering = hac_complete(vectors, 2)
    assert _sets(clustering) == {frozenset({"d1", "d2"}), frozenset({"d3"})}


def test_hac_all_zero_vector_sits_at_distance_one():
    vectors = {"d1": {}, "d2": {0: 1.0}, "d3": {0: 2.0}}
    clustering = hac_complete(vectors, 2)
    assert _sets(clustering) == {frozenset({"d2", "d3"}), frozenset({"d1"})}


def test_hac_is_deterministic():
    rng = np.random.default_rng(71)
    vectors = _random_vectors(rng, 6)
    first = hac_complete(vectors, 3)
    second = hac_complete(vectors, 3)
    assert first.clusters == second.clusters


def test_hac_matches_brute_force_linkage_oracle():
    rng = np.random.default_rng(73)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        vectors = _random_vectors(rng, n)
        for k in (1, 2, max(1, n - 1), n):
            assert _sets(hac_complete(vectors, k)) == oracles.hac_ref(vectors, k)


# Supports of one or four features with one integer weight: every unit row
# holds only 1.0 or 0.5, so each cosine is an exact multiple of 1/4 in any
# summation order and distance ties are exact for both implementations.
_EXACT_SUPPORTS = [()] + [(f,) for f in range(6)] + list(combinations(range(6), 4))


@settings(max_examples=200, deadline=None)
@given(
    docs=st.lists(st.tuples(st.sampled_from(_EXACT_SUPPORTS), st.integers(1, 5)), min_size=1, max_size=9),
    k=st.integers(1, 9),
)
def test_hac_matches_oracle_on_exact_distance_ties(docs, k):
    vectors = {f"d{i}": {f: float(weight) for f in support} for i, (support, weight) in enumerate(docs)}
    assert _sets(hac_complete(vectors, k)) == oracles.hac_ref(vectors, k)


def test_hac_partitions_exactly():
    rng = np.random.default_rng(79)
    vectors = _random_vectors(rng, 7)
    clustering = hac_complete(vectors, 3)
    members = [d for c in clustering.clusters for d in c]
    assert sorted(members) == sorted(vectors)
    assert len(clustering.clusters) == 3


# ---------------------------------------------------------------------------
# K-Means


def test_kmeans_single_cluster():
    vectors = {"d1": {0: 1.0}, "d2": {1: 1.0}, "d3": {0: 1.0, 1: 1.0}}
    clustering = kmeans(vectors, 1, seed=1)
    assert _sets(clustering) == {frozenset({"d1", "d2", "d3"})}


def test_kmeans_objective_matches_independent_recomputation():
    rng = np.random.default_rng(83)
    vectors = _random_vectors(rng, 6)
    clustering = kmeans(vectors, 2, seed=3)

    ids, unit = _unit_matrix(vectors)
    row = {doc_id: i for i, doc_id in enumerate(ids)}
    expected = 0.0
    for cluster in clustering.clusters:
        block = unit[[row[d] for d in cluster]]
        centroid = block.mean(axis=0)
        expected += float(np.sum((block - centroid) ** 2))
    assert kmeans_objective(clustering, vectors) == pytest.approx(expected, rel=1e-9)


def test_kmeans_separates_orthogonal_directions_for_any_seed():
    vectors = {
        "d1": {0: 1.0},
        "d2": {0: 3.0},
        "d3": {0: 2.0, 1: 0.01},
        "d4": {1: 1.0},
        "d5": {1: 4.0},
        "d6": {1: 2.0, 0: 0.01},
    }
    expected = {frozenset({"d1", "d2", "d3"}), frozenset({"d4", "d5", "d6"})}
    for seed in range(1, 11):
        assert _sets(kmeans(vectors, 2, seed=seed)) == expected


def test_kmeans_duplicates_co_cluster():
    vectors = {
        "d1": {0: 1.0},
        "d2": {0: 1.0},
        "d3": {1: 1.0},
        "d4": {1: 1.0},
        "d5": {0: 1.0, 1: 1.0},
    }
    for seed in range(1, 11):
        clusters = _sets(kmeans(vectors, 2, seed=seed))
        for pair in (("d1", "d2"), ("d3", "d4")):
            assert any(set(pair) <= c for c in clusters)


def test_kmeans_is_deterministic_per_seed():
    rng = np.random.default_rng(89)
    vectors = _random_vectors(rng, 8)
    assert kmeans(vectors, 3, seed=7).clusters == kmeans(vectors, 3, seed=7).clusters


def test_kmeans_objective_history_never_increases():
    rng = np.random.default_rng(97)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        vectors = _random_vectors(rng, n)
        _, gram = _gram(vectors)
        k = int(rng.integers(1, n + 1))
        for seed in (1, 2, 3):
            _, _, history = _lloyd(gram, k, seed, max_iterations=100)
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + 1e-12


def test_kmeans_reseeds_empty_clusters_and_keeps_k_nonempty():
    # Five identical points and one outlier force empty clusters at k=3.
    vectors = {f"d{i}": {0: 1.0} for i in range(5)}
    vectors["d5"] = {1: 1.0}
    for seed in range(1, 11):
        clustering = kmeans(vectors, 3, seed=seed)
        assert len(clustering.clusters) == 3
        assert all(clustering.clusters)
        members = sorted(d for c in clustering.clusters for d in c)
        assert members == sorted(vectors)


def _positive_vectors(rng: np.random.Generator, n: int, dims: int = 5) -> dict[str, dict[int, float]]:
    """Vectors with every feature present: no two are orthogonal, so no tie."""
    return {f"d{i}": {j: float(w) for j, w in enumerate(rng.uniform(0.1, 2.0, size=dims))} for i in range(n)}


def _one_hot_vectors(rng: np.random.Generator, n: int, dims: int = 3, empty_share: float = 0.0):
    """Single-feature vectors of random length, some all-zero.

    Their unit rows hold only 0.0 and 1.0, so a distance tie between
    centroids is exact under direct subtraction and under the Gram form.
    """
    out: dict[str, dict[int, float]] = {}
    for i in range(n):
        empty = rng.uniform() < empty_share
        out[f"d{i}"] = {} if empty else {int(rng.integers(0, dims)): float(rng.uniform(0.5, 2.0))}
    return out


def _assert_matches_kmeans_ref(vectors: dict[str, dict[int, float]], k: int) -> None:
    for seed in (1, 2, 3):
        clustering = kmeans(vectors, k, seed=seed)
        partition, n_iterations = oracles.kmeans_ref(vectors, k, seed)
        assert _sets(clustering) == partition
        assert clustering.n_iterations == n_iterations


def test_kmeans_matches_direct_subtraction_oracle_on_random_inputs():
    rng = np.random.default_rng(109)
    for _ in range(40):
        n = int(rng.integers(2, 14))
        _assert_matches_kmeans_ref(_positive_vectors(rng, n), int(rng.integers(1, n + 1)))


def test_kmeans_matches_direct_subtraction_oracle_with_duplicate_points():
    rng = np.random.default_rng(113)
    for _ in range(40):
        distinct = int(rng.integers(2, 8))
        vectors: dict[str, dict[int, float]] = {}
        for i, vec in enumerate(_positive_vectors(rng, distinct).values()):
            vectors[f"d{i}a"] = vec
            if rng.uniform() < 0.5:
                vectors[f"d{i}b"] = dict(vec)
        _assert_matches_kmeans_ref(vectors, int(rng.integers(1, distinct + 1)))


def test_kmeans_matches_direct_subtraction_oracle_with_all_zero_rows():
    rng = np.random.default_rng(127)
    for _ in range(40):
        n = int(rng.integers(2, 14))
        vectors = _one_hot_vectors(rng, n, empty_share=0.3)
        vectors["zero"] = {}
        _assert_matches_kmeans_ref(vectors, int(rng.integers(1, n + 2)))


def test_kmeans_matches_direct_subtraction_oracle_when_clusters_are_forced_empty():
    # With k above the number of distinct directions, two initial centroids
    # coincide, every tie goes to the lower one, and the other is empty.
    five_and_outlier = {f"d{i}": {0: 1.0} for i in range(5)}
    five_and_outlier["d5"] = {1: 1.0}
    _assert_matches_kmeans_ref(five_and_outlier, 3)
    rng = np.random.default_rng(131)
    for _ in range(40):
        n = int(rng.integers(4, 14))
        vectors = _one_hot_vectors(rng, n, dims=2, empty_share=0.1)
        _assert_matches_kmeans_ref(vectors, int(rng.integers(3, n + 1)))


def test_kmeans_stops_when_the_reseed_cycles_between_labelings():
    # k exceeds the one distinct point, so the farthest-point reseed hands
    # a copy back and forth and the labels never settle on a fixed point.
    copies = {f"d{i}": {0: 1.01, 3: 0.61} for i in range(4)}
    clustering = kmeans(copies, 2, seed=1)
    partition, n_iterations = oracles.kmeans_ref(copies, 2, 1)
    assert clustering.n_iterations == n_iterations < 10
    assert _sets(clustering) == partition


def test_run_repetitions_uses_seeds_one_through_reps():
    rng = np.random.default_rng(103)
    vectors = _random_vectors(rng, 7)
    runs = run_repetitions(vectors, 3, reps=5)
    assert len(runs) == 5
    for i, clustering in enumerate(runs, start=1):
        assert clustering.seed == i
        assert clustering.clusters == kmeans(vectors, 3, seed=i).clusters
    with pytest.raises(ValueError):
        run_repetitions(vectors, 3, reps=0)


# ---------------------------------------------------------------------------
# assignments as anonymous clusters


def test_assignment_to_clusters_groups_in_first_seen_order():
    mapping = {"d1": "A", "d2": "B", "d3": "A", "d4": "C"}
    assert assignment_to_clusters(mapping) == [["d1", "d3"], ["d2"], ["d4"]]


def test_assignment_to_clusters_respects_subset_and_order():
    mapping = {"d1": "A", "d2": "B", "d3": "A"}
    assert assignment_to_clusters(mapping, ["d3", "d2"]) == [["d3"], ["d2"]]


def test_assignment_grouping_preserves_nonempty_group_count():
    rng = np.random.default_rng(107)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        labels = [f"c{int(v)}" for v in rng.integers(0, 4, size=n)]
        mapping = {f"d{i}": label for i, label in enumerate(labels)}
        groups = assignment_to_clusters(mapping)
        assert len(groups) == len(set(labels))
