"""Unsupervised clustering baselines over tf-idf document vectors.

Both baselines are deliberately deterministic given their inputs: HAC
breaks distance ties lexicographically by member document ids, and K-Means
draws its initial centroids from a seeded generator.  That keeps repeated
runs byte-identical, which library users and the test suite rely on.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .features import ConfigError

__all__ = [
    "BASELINES",
    "Clustering",
    "Gram",
    "gram",
    "hac_complete",
    "kmeans",
    "run_repetitions",
    "assignment_to_clusters",
]

# The baselines in report order; each name is also its `Clustering.method`.
BASELINES = ("hac_complete", "kmeans")


@dataclass
class Clustering:
    """A partition of document ids plus how it was produced."""

    clusters: list[list[str]]
    method: str
    k: int
    seed: int | None = None
    n_iterations: int | None = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for cluster in self.clusters:
            if not cluster:
                raise ValueError("clusters must be non-empty")
            for doc_id in cluster:
                if doc_id in seen:
                    raise ValueError(f"document {doc_id!r} appears in two clusters")
                seen.add(doc_id)

    def to_dict(self) -> dict:
        """JSON-ready form with canonically ordered clusters."""
        ordered = sorted((sorted(c) for c in self.clusters), key=lambda c: c[0])
        out: dict = {"method": self.method, "k": self.k, "clusters": ordered}
        if self.seed is not None:
            out["seed"] = self.seed
        return out


@dataclass(frozen=True, eq=False)
class Gram:
    """Document ids and the Gram matrix of their unit rows, built by `gram`.

    Row and column i of ``matrix`` belong to ``ids[i]``.  One value serves
    every baseline call on the same documents.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray


# Document pairs summed per `np.bincount` call in `gram`.  It bounds the
# temporaries to a few arrays of this length; no sum depends on it.
_PAIR_CHUNK = 1 << 12


def gram(ids: Sequence[str], features: np.ndarray, offsets: np.ndarray, weights: np.ndarray) -> Gram:
    """Document ids and the Gram matrix ``G = U @ U.T`` of their unit rows.

    The documents come as CSR rows: ``ids[i]`` holds the features
    ``features[offsets[i]:offsets[i + 1]]``, each at most once, with the
    tf-idf ``weights`` at the same positions; stored zero weights are
    skipped.  A unit row is ``weights / norm``, its norm summed over its
    positions in stored order; an all-zero row stays zero.  The diagonal
    sums each unit row's squares in stored order.  An off-diagonal entry
    sums two rows' products over the features both hold, left to right
    in ascending feature id, whatever the chunking (`_pair_sums`); no BLAS
    routine runs, so no bit depends on the CPU.  Equal unit rows that hold
    no feature of their own share one row and column of G, diagonal
    included, so a point sits at distance exactly 0 from its duplicates,
    as it does under direct subtraction.
    """
    ids = tuple(ids)
    n = len(ids)
    rows = np.repeat(np.arange(n), np.diff(offsets))
    stored = weights != 0.0
    rows, features, weights = rows[stored], features[stored], weights[stored]
    norms = np.sqrt(np.bincount(rows, weights * weights, minlength=n))
    unit = weights / np.where(norms == 0.0, 1.0, norms)[rows]
    diagonal = np.bincount(rows, unit * unit, minlength=n)

    # Positions by feature id; the stable sort keeps each feature's rows ascending.
    order = np.argsort(features, kind="stable")
    by_feature = rows[order], features[order], unit[order]
    holders = _runs(by_feature[1])[1]
    has_own = np.bincount(by_feature[0][holders == 1], minlength=n) > 0

    # Only a row without features of its own can equal another row.  Its
    # key is its (feature, unit) pairs in ascending feature order.
    stops = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    slot_of: dict[object, int] = {}
    first: list[int] = []
    slot = []
    for i, (own, start, stop) in enumerate(zip(has_own.tolist(), [0] + stops, stops)):
        if own:
            key: object = i
        else:
            ascending = start + np.argsort(features[start:stop])
            key = (features[ascending].tobytes(), unit[ascending].tobytes())
        if key not in slot_of:
            slot_of[key] = len(first)
            first.append(i)
        slot.append(slot_of[key])
    inner = _pair_sums(*by_feature, first, n)
    inner[np.diag_indices(len(first))] = diagonal[first]
    return Gram(ids, inner if len(first) == n else inner[np.ix_(slot, slot)])


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each entry of sorted ``values``: one past the last entry equal to it, and how many are equal to it."""
    bounds = np.append(np.flatnonzero(values[1:] != values[:-1]) + 1, len(values))
    sizes = np.diff(bounds, prepend=0)
    return np.repeat(bounds, sizes), np.repeat(sizes, sizes)


def _pair_sums(rows: np.ndarray, features: np.ndarray, unit: np.ndarray, first: list[int], n: int) -> np.ndarray:
    """The symmetric sums of unit products over shared features, among the rows ``first``; zero diagonal.

    The positions come sorted by feature, then row.  Every pair a < b of
    rows holding one feature gives one product, in ascending feature
    order, and each `np.bincount` call takes the running sums as its
    first weights, so each entry adds its products left to right in that
    order, whether a chunk of `_PAIR_CHUNK` pairs ends inside a feature
    or not.
    """
    m = len(first)
    slots = np.full(n, -1)
    slots[first] = np.arange(m)
    kept = slots[rows] >= 0
    rows, unit = slots[rows[kept]], unit[kept]
    # Position p pairs with the later[p] positions after it that hold its
    # feature: pairs reach[p] - later[p] to reach[p] - 1 of the stream.
    later = _runs(features[kept])[0] - np.arange(len(rows)) - 1
    reach = np.cumsum(later)
    total = int(reach[-1]) if len(reach) else 0
    cells = np.arange(m * m)
    sums = np.zeros(m * m)
    for start in range(0, total, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, total)
        lo, hi = np.searchsorted(reach, [start, stop - 1], "right").tolist()
        taken = np.minimum(reach[lo : hi + 1], stop) - np.maximum(reach[lo : hi + 1] - later[lo : hi + 1], start)
        left = np.repeat(np.arange(lo, hi + 1), taken)
        right = left + 1 + np.arange(start, stop) - (reach[left] - later[left])
        sums = np.bincount(
            np.concatenate((cells, rows[left] * m + rows[right])),
            np.concatenate((sums, unit[left] * unit[right])),
        )
    upper = sums.reshape(m, m)
    return upper + upper.T


def _check_k(k: int, n: int) -> int:
    if n == 0:
        raise ValueError("cannot cluster an empty document set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # More clusters than documents is unsatisfiable; clamp to n.
    return min(k, n)


def hac_complete(gram: Gram, k: int) -> Clustering:
    """Agglomerate documents bottom-up under complete linkage.

    Distance is 1 - cosine, read off ``gram`` (all-zero vectors sit at
    distance 1 from everything).  Each step merges the pair of clusters
    with the smallest maximum pairwise distance; exact ties pick the pair
    whose sorted (min doc id, min doc id) key is lexicographically
    smallest.  Stops when ``k`` clusters remain.
    """
    ids = gram.ids
    n = len(ids)
    k = _check_k(k, n)
    # Complete-link distance between the clusters held in slots i and j; a
    # merged cluster keeps the lower slot.  The maximum of two rows is
    # exact, so every link value stays one of the pairwise distances.
    # Retired slots and the diagonal are infinite.
    link = 1.0 - gram.matrix
    np.fill_diagonal(link, np.inf)
    nearest = link.min(axis=1)
    # Rank of each slot's smallest member id: comparing ranks compares ids.
    mins = np.empty(n, dtype=np.int64)
    mins[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
    members: list[list[str] | None] = [[doc_id] for doc_id in ids]

    for _ in range(n - k):
        candidates = np.flatnonzero(nearest == nearest.min())
        hits, cols = np.nonzero(link[candidates] == nearest[candidates, None])
        rows = candidates[hits]
        lo, hi = np.minimum(mins[rows], mins[cols]), np.maximum(mins[rows], mins[cols])
        best = np.lexsort((hi, lo))[0]
        i, j = sorted((int(rows[best]), int(cols[best])))
        members[i] = members[i] + members[j]
        members[j] = None
        mins[i] = min(mins[i], mins[j])
        # Links only grow on a merge, so only rows whose nearest link was
        # to slot i or j need a new minimum.
        stale = (link[:, i] == nearest) | (link[:, j] == nearest)
        stale[[i, j]] = True
        link[i] = link[:, i] = np.maximum(link[i], link[j])
        link[j] = link[:, j] = np.inf
        nearest[stale] = link[stale].min(axis=1)

    clusters = [cluster for cluster in members if cluster is not None]
    return Clustering(clusters=clusters, method="hac_complete", k=k)


def _sq_distances(gram: np.ndarray, members: np.ndarray) -> np.ndarray:
    """n x k squared distances from each row to each cluster mean.

    ``members`` is the k x n 0/1 membership matrix M with sizes m, so the
    mean of cluster j is ``M_j @ U / m_j`` and ``|u_i - c_j|^2`` is
    ``G_ii - 2 (G M^T)_ij / m_j + (M G M^T)_jj / m_j^2``.  Sums are taken
    before dividing, as a mean is, so a mean of equal rows is that row.
    """
    sizes = members.sum(axis=1)
    cross = gram @ members.T
    spread = np.einsum("ji,ij->j", members, cross)
    return np.diagonal(gram)[:, None] - 2.0 * cross / sizes + spread / (sizes * sizes)


def _reseed_empty(labels: np.ndarray, gram: np.ndarray, members: np.ndarray, distances: np.ndarray) -> None:
    """Give each empty cluster the point farthest from its centroid.

    The relocated point becomes the empty cluster's centroid, so its
    objective contribution drops to zero and the k-means objective stays
    non-increasing through the reseed.  Points alone in their cluster are
    not movable (a new hole would open); by pigeonhole some cluster has
    two points whenever another is empty.  ``distances`` holds the n x k
    squared distances to the current centroids and is kept up to date.
    """
    counts = np.bincount(labels, minlength=members.shape[0])
    everyone = np.arange(len(labels))
    for cluster in np.flatnonzero(counts == 0):
        own = np.where(counts[labels] > 1, distances[everyone, labels], -np.inf)
        farthest = int(np.argmax(own))
        counts[labels[farthest]] -= 1
        counts[cluster] = 1
        labels[farthest] = cluster
        members[cluster] = 0.0
        members[cluster, farthest] = 1.0
        distances[:, cluster] = np.diagonal(gram) - 2.0 * gram[:, farthest] + gram[farthest, farthest]


# Lloyd iterations after which `kmeans` stops even without a repeat.
_MAX_ITERATIONS = 100


def _lloyd(gram: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, int]:
    """Run Lloyd iterations on a Gram matrix; returns labels and iteration count.

    Every centroid is the mean of a set of rows, held as a row of the
    k x n membership matrix.  The run stops when a labeling repeats any
    earlier one: from then on the labels cycle, since after the first
    iteration the next labeling depends only on the current one.
    """
    n = gram.shape[0]
    rng = np.random.default_rng(seed)
    members = np.zeros((k, n))
    members[np.arange(k), rng.choice(n, size=k, replace=False)] = 1.0
    distances = _sq_distances(gram, members)

    labels = np.full(n, -1)
    seen: set[bytes] = set()
    n_iterations = 0
    for _ in range(_MAX_ITERATIONS):
        n_iterations += 1
        labels = np.argmin(distances, axis=1)
        _reseed_empty(labels, gram, members, distances)
        key = labels.tobytes()
        if key in seen:
            break
        seen.add(key)
        members = (labels == np.arange(k)[:, None]).astype(float)
        distances = _sq_distances(gram, members)
    return labels, n_iterations


def kmeans(gram: Gram, k: int, seed: int) -> Clustering:
    """Lloyd iterations on L2-normalized vectors with seeded init.

    Initial centroids are ``k`` distinct documents drawn without
    replacement from ``np.random.default_rng(seed)``.  A document goes to
    the centroid with the smallest computed distance; ties between computed
    distances go to the lowest centroid index.  Distances equal in exact
    arithmetic need not be equal once computed: for an all-zero row, or a
    row orthogonal to several centroids, the rounding of each centroid's
    norm decides the cluster.  A cluster left empty after assignment
    is reseeded with the farthest point.  Stops when the assignments
    repeat those of any earlier iteration (a fixed point or a cycle) or
    after ``_MAX_ITERATIONS`` (100).  All distances come from ``gram``.
    """
    k = _check_k(k, len(gram.ids))
    labels, n_iterations = _lloyd(gram.matrix, k, seed)
    clusters = [[doc_id for doc_id, label in zip(gram.ids, labels) if label == cluster] for cluster in range(k)]
    clusters = [c for c in clusters if c]
    return Clustering(clusters=clusters, method="kmeans", k=k, seed=seed, n_iterations=n_iterations)


def _check_reps(reps: object) -> None:
    """Raise `ConfigError`, a ValueError, unless ``reps`` is an integer >= 1; a bool is not one."""
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
        raise ConfigError(f"reps must be an integer >= 1, got {reps!r}")


def run_repetitions(gram: Gram, k: int, reps: int) -> list[Clustering]:
    """K-Means runs with seeds 1..reps, for averaging metric estimates; ``reps`` as `_check_reps` requires."""
    _check_reps(reps)
    return [kmeans(gram, k, seed) for seed in range(1, reps + 1)]


def assignment_to_clusters(mapping: Mapping[str, str], doc_ids: Sequence[str] | None = None) -> list[list[str]]:
    """Group documents by assigned class, dropping the class labels.

    ``doc_ids`` restricts and orders the grouping; by default all mapped
    documents are used in mapping order.  Groups appear in first-seen
    order and empty groups are never produced.
    """
    ordered = list(mapping) if doc_ids is None else list(doc_ids)
    groups: dict[str, list[str]] = {}
    for doc_id in ordered:
        groups.setdefault(mapping[doc_id], []).append(doc_id)
    return list(groups.values())
