"""Clustering baseline tests: complete-link HAC and seeded K-Means."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import namesift
from namesift import baselines, write_benchmark
from namesift.baselines import (
    Clustering,
    Gram,
    gram,
    hac_complete,
    kmeans,
    run_repetitions,
)
from namesift.experiments import RunSpec
from namesift.features import ConfigError

import oracles
from conftest import write_mini_corpus


def _sets(clustering: Clustering) -> set[frozenset]:
    return {frozenset(c) for c in clustering.clusters}


def _gram(vectors: dict[str, dict[int, float]]) -> Gram:
    """`gram` of dict vectors, each passed as a CSR row in its own order."""
    features = np.array([f for vector in vectors.values() for f in vector], dtype=np.int64)
    weights = np.array([w for vector in vectors.values() for w in vector.values()], dtype=float)
    offsets = np.cumsum([0] + [len(vector) for vector in vectors.values()])
    return gram(list(vectors), features, offsets, weights)


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
# the Gram matrix

_WEIGHTS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0, -2.0]), st.floats(-4.0, 4.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.dictionaries(st.integers(0, 6), _WEIGHTS, max_size=5), max_size=6),
    copies=st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=3),
    common=st.one_of(st.none(), _WEIGHTS),
)
@example(rows=[], copies=[], common=None)
@example(rows=[{0: 2.0, 3: 1.0}], copies=[], common=None)
@example(rows=[{}, {1: 0.0, 2: 0.0}, {1: 1.0}], copies=[], common=None)
@example(rows=[{0: 1.0, 1: 2.0}, {0: 3.0}], copies=[(0, False), (0, True), (1, False)], common=1.5)
# A stored zero is no feature of its own, so these rows share one slot,
# and a diagonal summed in stored order differs from one in feature order.
@example(rows=[{3: 1.7, 1: 2.6, 2: 0.8, 6: 0.0}, {3: 1.7, 1: 2.6, 2: 0.8}], copies=[], common=None)
def test_gram_equals_the_reference_sums_bit_for_bit_in_any_chunking(rows, copies, common):
    # ``common`` gives every document one more feature; a copy repeats an
    # earlier row exactly, in its own stored order or reversed.
    if common is not None:
        rows = [{**row, 7: common} for row in rows]
    for source, reverse in copies:
        if source < len(rows):
            items = list(rows[source].items())
            rows.append(dict(reversed(items) if reverse else items))
    vectors = {f"d{i}": row for i, row in enumerate(rows)}
    expected = oracles.gram_ref(vectors)
    built = _gram(vectors)
    assert built.ids == tuple(vectors)
    assert built.matrix.shape == expected.shape and (built.matrix == expected).all()
    for chunk in (1, 2, 2**30):
        with mock.patch.object(baselines, "_PAIR_CHUNK", chunk):
            assert _gram(vectors).matrix.tobytes() == built.matrix.tobytes()


def _openblas_configuration() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its build configuration
        return "no build configuration as a dict"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')}: {blas.get('openblas configuration', 'no OpenBLAS configuration')}"


_KEPT_GRAM_DIGEST = """
import hashlib, sys
from namesift import discover_tasks, load_task
from namesift.features import FeatureConfig
from namesift.models import TaskResources
digest = hashlib.sha256()
for task in map(load_task, discover_tasks(sys.argv[1])):
    digest.update(TaskResources.from_task(task, FeatureConfig()).kept_gram.matrix.tobytes())
print(digest.hexdigest())
"""


def test_kept_gram_bits_do_not_depend_on_the_blas_kernel_or_threads(tmp_path):
    configuration = _openblas_configuration()
    if "DYNAMIC_ARCH" not in configuration:
        pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so no kernel can be chosen ({configuration})")
    write_benchmark(tmp_path / "corpus")
    path = os.pathsep.join(filter(None, [str(Path(namesift.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    runs = {}
    for kernel in ("Haswell", "Prescott", "Sandybridge"):
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS=threads)
            command = [sys.executable, "-c", _KEPT_GRAM_DIGEST, str(tmp_path / "corpus")]
            runs[kernel, threads] = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    digests = {setting: process.communicate(timeout=120)[0].strip() for setting, process in runs.items()}
    assert all(process.returncode == 0 for process in runs.values()), digests
    assert len(set(digests.values())) == 1, digests


# ---------------------------------------------------------------------------
# HAC


def test_hac_boundary_cluster_counts():
    vectors = {"d1": {0: 1.0}, "d2": {1: 1.0}, "d3": {0: 1.0, 1: 1.0}}
    assert _sets(hac_complete(_gram(vectors), 3)) == {frozenset({"d1"}), frozenset({"d2"}), frozenset({"d3"})}
    assert _sets(hac_complete(_gram(vectors), 1)) == {frozenset({"d1", "d2", "d3"})}


def test_hac_k_validation_and_clamping():
    vectors = {"d1": {0: 1.0}, "d2": {1: 1.0}}
    with pytest.raises(ValueError):
        hac_complete(_gram(vectors), 0)
    with pytest.raises(ValueError):
        hac_complete(_gram({}), 1)
    assert len(hac_complete(_gram(vectors), 10).clusters) == 2  # clamped to |docs|


def test_hac_two_separated_pairs():
    vectors = {"d1": {0: 1.0}, "d2": {0: 2.0}, "d3": {1: 1.0}, "d4": {1: 3.0}}
    clustering = hac_complete(_gram(vectors), 2)
    assert _sets(clustering) == {frozenset({"d1", "d2"}), frozenset({"d3", "d4"})}


def test_hac_distance_tie_resolved_by_smallest_doc_ids():
    # dist(d1,d2) = dist(d2,d3) = 1 - 1/sqrt(2); the (d1,d2) pair wins.
    vectors = {"d1": {0: 1.0}, "d2": {0: 1.0, 1: 1.0}, "d3": {1: 1.0}}
    clustering = hac_complete(_gram(vectors), 2)
    assert _sets(clustering) == {frozenset({"d1", "d2"}), frozenset({"d3"})}


def test_hac_all_zero_vector_sits_at_distance_one():
    vectors = {"d1": {}, "d2": {0: 1.0}, "d3": {0: 2.0}}
    clustering = hac_complete(_gram(vectors), 2)
    assert _sets(clustering) == {frozenset({"d2", "d3"}), frozenset({"d1"})}


def test_hac_is_deterministic():
    rng = np.random.default_rng(71)
    vectors = _random_vectors(rng, 6)
    first = hac_complete(_gram(vectors), 3)
    second = hac_complete(_gram(vectors), 3)
    assert first.clusters == second.clusters


def test_hac_matches_brute_force_linkage_oracle():
    rng = np.random.default_rng(73)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        vectors = _random_vectors(rng, n)
        for k in (1, 2, max(1, n - 1), n):
            assert _sets(hac_complete(_gram(vectors), k)) == oracles.hac_ref(vectors, k)


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
    assert _sets(hac_complete(_gram(vectors), k)) == oracles.hac_ref(vectors, k)


def test_hac_partitions_exactly():
    rng = np.random.default_rng(79)
    vectors = _random_vectors(rng, 7)
    clustering = hac_complete(_gram(vectors), 3)
    members = [d for c in clustering.clusters for d in c]
    assert sorted(members) == sorted(vectors)
    assert len(clustering.clusters) == 3


# ---------------------------------------------------------------------------
# K-Means


def _numpy_choice(seed, n: int, k: int) -> list[int]:
    return np.random.default_rng(seed).choice(n, size=k, replace=False).tolist()


# Floyd's algorithm and a shuffle, or (above 10,000 and k > n // 50) a tail shuffle.
_DRAW_SIZES = st.one_of(
    st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(10_001, 20_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(n // 50 + 1, n))),
)


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**70), sizes=_DRAW_SIZES)
@example(seed=0, sizes=(1, 1))
@example(seed=0, sizes=(112, 5))
@example(seed=2**32 - 1, sizes=(300, 300))
@example(seed=2**32, sizes=(10_001, 201))
@example(seed=2**64, sizes=(20_000, 20_000))
def test_kmeans_draw_equals_numpys_choice_without_replacement(seed, sizes):
    n, k = sizes
    assert baselines._choice(seed, n, k) == _numpy_choice(seed, n, k)


@pytest.mark.parametrize(
    "seed",
    [0, 1, 2**32 - 1, 2**64 + 3, 2**128 + 5, 2**300 - 1, True, False, np.int64(7), np.uint64(2**63 + 1), np.uint8(9)],
)
def test_kmeans_draws_what_numpy_draws_for_any_integer_seed(seed):
    # Seeds of more than four 32-bit words take SeedSequence's last mixing loop.
    assert baselines._choice(seed, 40, 6) == _numpy_choice(seed, 40, 6)


@pytest.mark.parametrize(
    ("seed", "error"),
    [(-1, ValueError), (np.int64(-3), ValueError), (1.0, TypeError), (np.float64(2.0), TypeError), ("3", TypeError)],
)
def test_kmeans_refuses_the_seeds_numpy_refuses(seed, error):
    shared = _gram({"d0": {0: 1.0}, "d1": {1: 1.0}, "d2": {0: 0.5, 1: 0.5}})
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        kmeans(shared, 2, seed)


def test_kmeans_refuses_a_seed_of_none():
    # numpy would draw OS entropy for None, which no run could reproduce.
    shared = _gram({"d0": {0: 1.0}, "d1": {1: 1.0}})
    with pytest.raises(TypeError):
        kmeans(shared, 2, None)


_IMPORTS_NUMPY_RANDOM = """
import sys
import numpy
eager = "numpy.random" in sys.modules
from namesift.cli import main
status = main(sys.argv[1:])
print(status, eager, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize(
    "command",
    [
        ["cluster", "{root}", "--method", "both", "--output", "{out}"],
        ["grid", "{root}", "--baselines"],
        ["classify", "{root}", "--model", "score"],
    ],
)
def test_clustering_commands_do_not_import_numpy_random(tmp_path, command):
    # pytest and these tests import numpy.random themselves, so only a
    # fresh interpreter can tell whether namesift does.
    root = write_mini_corpus(tmp_path / "corpus")
    path = os.pathsep.join(filter(None, [str(Path(namesift.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if not key.startswith("NAMESIFT_")}
    argv = [arg.format(root=root, out=tmp_path / "out") for arg in command]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_NUMPY_RANDOM, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(env, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    status, eager, loaded = proc.stdout.splitlines()[-1].split()
    if eager == "True":
        pytest.skip(f"numpy {np.__version__} imports numpy.random with numpy itself")
    assert (status, loaded) == ("0", "False")


def test_kmeans_single_cluster():
    vectors = {"d1": {0: 1.0}, "d2": {1: 1.0}, "d3": {0: 1.0, 1: 1.0}}
    clustering = kmeans(_gram(vectors), 1, seed=1)
    assert _sets(clustering) == {frozenset({"d1", "d2", "d3"})}


def test_kmeans_objective_matches_independent_recomputation():
    rng = np.random.default_rng(83)
    vectors = _random_vectors(rng, 6)
    clustering = kmeans(_gram(vectors), 2, seed=3)

    ids, unit = _unit_matrix(vectors)
    row = {doc_id: i for i, doc_id in enumerate(ids)}
    expected = 0.0
    for cluster in clustering.clusters:
        block = unit[[row[d] for d in cluster]]
        centroid = block.mean(axis=0)
        expected += float(np.sum((block - centroid) ** 2))
    assert oracles.kmeans_objective(clustering, _gram(vectors)) == pytest.approx(expected, rel=1e-9)


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
        assert _sets(kmeans(_gram(vectors), 2, seed=seed)) == expected


def test_kmeans_duplicates_co_cluster():
    vectors = {
        "d1": {0: 1.0},
        "d2": {0: 1.0},
        "d3": {1: 1.0},
        "d4": {1: 1.0},
        "d5": {0: 1.0, 1: 1.0},
    }
    for seed in range(1, 11):
        clusters = _sets(kmeans(_gram(vectors), 2, seed=seed))
        for pair in (("d1", "d2"), ("d3", "d4")):
            assert any(set(pair) <= c for c in clusters)


def test_kmeans_is_deterministic_per_seed():
    rng = np.random.default_rng(89)
    vectors = _random_vectors(rng, 8)
    assert kmeans(_gram(vectors), 3, seed=7).clusters == kmeans(_gram(vectors), 3, seed=7).clusters


def test_kmeans_objective_history_never_increases():
    rng = np.random.default_rng(97)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        vectors = _random_vectors(rng, n)
        shared = _gram(vectors)
        k = int(rng.integers(1, n + 1))
        for seed in (1, 2, 3):
            # The objective after each iteration t of the full run.
            iterations = kmeans(shared, k, seed).n_iterations
            history = []
            for t in range(1, iterations + 1):
                with mock.patch.object(baselines, "_MAX_ITERATIONS", t):
                    history.append(oracles.kmeans_objective(kmeans(shared, k, seed), shared))
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + 1e-12


def test_kmeans_reseeds_empty_clusters_and_keeps_k_nonempty():
    # Five identical points and one outlier force empty clusters at k=3.
    vectors = {f"d{i}": {0: 1.0} for i in range(5)}
    vectors["d5"] = {1: 1.0}
    for seed in range(1, 11):
        clustering = kmeans(_gram(vectors), 3, seed=seed)
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
        clustering = kmeans(_gram(vectors), k, seed=seed)
        partition, n_iterations = oracles.kmeans_ref(vectors, k, seed)
        assert _sets(clustering) == partition
        assert clustering.n_iterations == n_iterations


def test_kmeans_stopped_after_each_iteration_matches_the_oracle_stopped_there():
    # A cap of t iterations, for every t up to the full run's count, on
    # inputs with and without duplicate points.
    rng = np.random.default_rng(137)
    for duplicates in (False, True):
        for _ in range(12):
            distinct = int(rng.integers(3, 12))
            vectors = _positive_vectors(rng, distinct)
            if duplicates:
                vectors.update({f"{d}b": dict(v) for d, v in vectors.items() if rng.uniform() < 0.5})
            shared = _gram(vectors)
            k = int(rng.integers(1, distinct + 1))
            for seed in (1, 2):
                for t in range(1, kmeans(shared, k, seed).n_iterations + 1):
                    with mock.patch.object(baselines, "_MAX_ITERATIONS", t):
                        clustering = kmeans(shared, k, seed)
                    partition, n_iterations = oracles.kmeans_ref(vectors, k, seed, max_iterations=t)
                    assert (_sets(clustering), clustering.n_iterations) == (partition, n_iterations)


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
    clustering = kmeans(_gram(copies), 2, seed=1)
    partition, n_iterations = oracles.kmeans_ref(copies, 2, 1)
    assert clustering.n_iterations == n_iterations < 10
    assert _sets(clustering) == partition


def test_run_repetitions_uses_seeds_one_through_reps():
    rng = np.random.default_rng(103)
    vectors = _random_vectors(rng, 7)
    runs = run_repetitions(_gram(vectors), 3, reps=5)
    assert len(runs) == 5
    for i, clustering in enumerate(runs, start=1):
        assert clustering.seed == i
        assert clustering.clusters == kmeans(_gram(vectors), 3, seed=i).clusters
    with pytest.raises(ValueError):
        run_repetitions(_gram(vectors), 3, reps=0)


@pytest.mark.parametrize("reps", [True, 2.5, "3", 0, None])
def test_run_repetitions_and_run_spec_refuse_the_same_reps(reps):
    # One rule for both callers: an int, not a bool, and >= 1.
    shared = _gram({"d0": {0: 1.0}, "d1": {1: 1.0}, "d2": {0: 0.5, 1: 0.5}})
    with pytest.raises(ValueError, match=f"reps must be an integer >= 1, got {reps!r}"):
        run_repetitions(shared, 2, reps)
    with pytest.raises(ConfigError, match=f"reps must be an integer >= 1, got {reps!r}"):
        RunSpec(corpus_root="corpus", kmeans=True, reps=reps)


# ---------------------------------------------------------------------------
# assignments as anonymous clusters


def test_assignment_to_clusters_groups_in_first_seen_order():
    mapping = {"d1": "A", "d2": "B", "d3": "A", "d4": "C"}
    assert oracles.assignment_to_clusters(mapping) == [["d1", "d3"], ["d2"], ["d4"]]


def test_assignment_to_clusters_respects_subset_and_order():
    mapping = {"d1": "A", "d2": "B", "d3": "A"}
    assert oracles.assignment_to_clusters(mapping, ["d3", "d2"]) == [["d3"], ["d2"]]


def test_assignment_grouping_preserves_nonempty_group_count():
    rng = np.random.default_rng(107)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        labels = [f"c{int(v)}" for v in rng.integers(0, 4, size=n)]
        mapping = {f"d{i}": label for i, label in enumerate(labels)}
        groups = oracles.assignment_to_clusters(mapping)
        assert len(groups) == len(set(labels))
