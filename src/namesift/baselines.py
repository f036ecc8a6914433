"""Unsupervised clustering baselines over tf-idf document vectors.

Both baselines are deliberately deterministic given their inputs: HAC
breaks distance ties lexicographically by member document ids, and K-Means
draws its initial centroids from a seeded generator.  That keeps repeated
runs byte-identical, which library users and the test suite rely on.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .features import FeatureVector

__all__ = [
    "Clustering",
    "hac_complete",
    "kmeans",
    "kmeans_objective",
    "run_repetitions",
    "assignment_to_clusters",
]


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


def _gram(doc_vectors: Mapping[str, FeatureVector]) -> tuple[list[str], np.ndarray]:
    """Document ids and the Gram matrix ``G = U @ U.T`` of their unit rows.

    ``U`` holds the vectors scaled to unit L2 length; all-zero vectors stay
    zero.  A feature found in one document only adds to that document's
    diagonal entry, so the product runs over the shared features alone.
    Equal unit rows share one row and column of G, diagonal included, so
    a point sits at distance exactly 0 from its duplicates, as it does
    under direct subtraction.
    """
    if isinstance(doc_vectors, _SharedGram):
        return doc_vectors.ids, doc_vectors.gram
    ids = list(doc_vectors)
    vectors = [doc_vectors[doc_id] for doc_id in ids]
    lengths = [len(vector) for vector in vectors]
    total = sum(lengths)
    features = np.fromiter(chain.from_iterable(vectors), dtype=np.int64, count=total)
    weights = np.fromiter(chain.from_iterable(v.values() for v in vectors), dtype=float, count=total)
    rows = np.repeat(np.arange(len(ids)), lengths)
    norms = np.sqrt(np.bincount(rows, weights * weights, minlength=len(ids)))
    unit = weights / np.where(norms == 0.0, 1.0, norms)[rows]

    _, column, document_frequency = np.unique(features, return_inverse=True, return_counts=True)
    shared = document_frequency > 1
    kept = shared[column]
    matrix = np.zeros((len(ids), int(shared.sum())))
    matrix[rows[kept], (np.cumsum(shared) - 1)[column[kept]]] = unit[kept]

    # Only a row without features of its own can equal another row.
    has_own = np.bincount(rows[~kept], minlength=len(ids)) > 0
    slot_of: dict[object, int] = {}
    first: list[int] = []
    slot = []
    for i, (own, row) in enumerate(zip(has_own, matrix)):
        key = i if own else row.tobytes()
        if key not in slot_of:
            slot_of[key] = len(first)
            first.append(i)
        slot.append(slot_of[key])
    inner = matrix[first] @ matrix[first].T
    np.fill_diagonal(inner, np.bincount(rows, unit * unit, minlength=len(ids))[first])
    return ids, inner[np.ix_(slot, slot)]


class _SharedGram(Mapping):
    """Read-only view of document vectors that holds their Gram matrix.

    `run_repetitions` hands one to every seeded `kmeans` call: the
    repetitions share one matrix, and each is still a plain `kmeans` call.
    """

    def __init__(self, doc_vectors: Mapping[str, FeatureVector]) -> None:
        self._vectors = doc_vectors
        self.ids, self.gram = _gram(doc_vectors)

    def __getitem__(self, doc_id: str) -> FeatureVector:
        return self._vectors[doc_id]

    def __iter__(self):
        return iter(self._vectors)

    def __len__(self) -> int:
        return len(self._vectors)


def _check_k(k: int, n: int) -> int:
    if n == 0:
        raise ValueError("cannot cluster an empty document set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # More clusters than documents is unsatisfiable; clamp to n.
    return min(k, n)


def hac_complete(doc_vectors: Mapping[str, FeatureVector], k: int) -> Clustering:
    """Agglomerate documents bottom-up under complete linkage.

    Distance is 1 - cosine over the given vectors (all-zero vectors sit at
    distance 1 from everything).  Each step merges the pair of clusters
    with the smallest maximum pairwise distance; exact ties pick the pair
    whose sorted (min doc id, min doc id) key is lexicographically
    smallest.  Stops when ``k`` clusters remain.
    """
    k = _check_k(k, len(doc_vectors))
    ids, gram = _gram(doc_vectors)
    n = len(ids)
    # Complete-link distance between the clusters held in slots i and j; a
    # merged cluster keeps the lower slot.  The maximum of two rows is
    # exact, so every link value stays one of the pairwise distances.
    # Retired slots and the diagonal are infinite.
    link = 1.0 - gram
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


def _lloyd(gram: np.ndarray, k: int, seed: int, max_iterations: int) -> tuple[np.ndarray, int, list[float]]:
    """Run Lloyd iterations on a Gram matrix; returns labels, iteration count, objectives.

    Every centroid is the mean of a set of rows, held as a row of the
    k x n membership matrix.  The objective (sum of squared distances to
    the assigned centroid) is recorded once per iteration, after the
    centroid update.  The run stops when a labeling repeats any earlier
    one: from then on the labels cycle, since after the first iteration
    the next labeling depends only on the current one.
    """
    n = gram.shape[0]
    rng = np.random.default_rng(seed)
    members = np.zeros((k, n))
    members[np.arange(k), rng.choice(n, size=k, replace=False)] = 1.0
    distances = _sq_distances(gram, members)

    everyone = np.arange(n)
    labels = np.full(n, -1)
    seen: set[bytes] = set()
    history: list[float] = []
    n_iterations = 0
    for _ in range(max_iterations):
        n_iterations += 1
        labels = np.argmin(distances, axis=1)
        _reseed_empty(labels, gram, members, distances)
        key = labels.tobytes()
        converged = key in seen
        seen.add(key)
        members = (labels == np.arange(k)[:, None]).astype(float)
        distances = _sq_distances(gram, members)
        history.append(float(distances[everyone, labels].sum()))
        if converged:
            break
    return labels, n_iterations, history


def kmeans(doc_vectors: Mapping[str, FeatureVector], k: int, seed: int, max_iterations: int = 100) -> Clustering:
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
    after ``max_iterations``.  All distances come from the documents'
    Gram matrix.
    """
    k = _check_k(k, len(doc_vectors))
    ids, gram = _gram(doc_vectors)
    labels, n_iterations, _ = _lloyd(gram, k, seed, max_iterations)
    clusters = [[ids[i] for i in range(len(ids)) if labels[i] == cluster] for cluster in range(k)]
    clusters = [c for c in clusters if c]
    return Clustering(clusters=clusters, method="kmeans", k=k, seed=seed, n_iterations=n_iterations)


def kmeans_objective(clustering: Clustering, doc_vectors: Mapping[str, FeatureVector]) -> float:
    """Sum of squared distances to cluster means over normalized vectors."""
    ids, gram = _gram(doc_vectors)
    row = {doc_id: i for i, doc_id in enumerate(ids)}
    total = 0.0
    for cluster in clustering.clusters:
        members = [row[doc_id] for doc_id in cluster]
        block = gram[np.ix_(members, members)]
        total += float(np.trace(block) - block.sum() / len(members))
    return total


def run_repetitions(doc_vectors: Mapping[str, FeatureVector], k: int, reps: int = 10) -> list[Clustering]:
    """K-Means runs with seeds 1..reps, for averaging metric estimates."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    shared = _SharedGram(doc_vectors)
    return [kmeans(shared, k, seed) for seed in range(1, reps + 1)]


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
