"""Unsupervised clustering baselines over tf-idf document vectors.

Both baselines are deliberately deterministic given their inputs: HAC
breaks distance ties lexicographically by member document ids, and K-Means
takes its initial centroids from `_choice`, an exact copy of numpy's
``default_rng(seed).choice(n, k, replace=False)`` (SeedSequence, PCG64,
then Floyd's algorithm and a shuffle, or a tail shuffle above 10,000
documents) that never imports `numpy.random`.  That keeps repeated runs
byte-identical, which library users and the test suite rely on.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
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
    # Rank of each slot's smallest member id: comparing ranks compares ids.
    mins = np.empty(n, dtype=np.int64)
    mins[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
    members: list[list[str] | None] = [[doc_id] for doc_id in ids]

    for _ in range(n - k):
        nearest = link.min(axis=1)
        candidates = np.flatnonzero(nearest == nearest.min())
        hits, cols = np.nonzero(link[candidates] == nearest[candidates, None])
        rows = candidates[hits]
        lo, hi = np.minimum(mins[rows], mins[cols]), np.maximum(mins[rows], mins[cols])
        best = np.lexsort((hi, lo))[0]
        i, j = sorted((int(rows[best]), int(cols[best])))
        members[i] = members[i] + members[j]
        members[j] = None
        mins[i] = min(mins[i], mins[j])
        link[i] = link[:, i] = np.maximum(link[i], link[j])
        link[j] = link[:, j] = np.inf

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


def _reseed_empty(labels: np.ndarray, gram: np.ndarray, k: int, distances: np.ndarray) -> None:
    """Give each of the ``k`` clusters that is empty the point farthest from its centroid.

    The relocated point becomes the empty cluster's centroid, so its
    objective contribution drops to zero and the k-means objective stays
    non-increasing through the reseed.  Points alone in their cluster are
    not movable (a new hole would open); by pigeonhole some cluster has
    two points whenever another is empty.  ``distances`` holds the n x k
    squared distances to the current centroids and is kept up to date.
    """
    counts = np.bincount(labels, minlength=k)
    everyone = np.arange(len(labels))
    for cluster in np.flatnonzero(counts == 0):
        own = np.where(counts[labels] > 1, distances[everyone, labels], -np.inf)
        farthest = int(np.argmax(own))
        counts[labels[farthest]] -= 1
        counts[cluster] = 1
        labels[farthest] = cluster
        distances[:, cluster] = np.diagonal(gram) - 2.0 * gram[:, farthest] + gram[farthest, farthest]


# Lloyd iterations after which `kmeans` stops even without a repeat.
_MAX_ITERATIONS = 100

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _pcg64(seed: int) -> tuple[int, int]:
    """The PCG64 (state, increment) of ``np.random.default_rng(seed)``, seeded as numpy's SeedSequence does.

    The seed's 32-bit words, low first and at least four, hash into a pool of four that yields eight.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 128), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int, mult: int = 0x931E8875) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in words[:4]]
    # Mix each pool word into the other three, then each later seed word into all four.
    for src in range(len(words)):
        for dst in range(4):
            if src != dst:
                mixed = hashmix(pool[src] if src < 4 else words[src])
                value = (0xCA01F9DD * pool[dst] - 0x4973F715 * mixed) & _MASK32
                pool[dst] = value ^ value >> 16
    hash_const = 0x8B51F9DD
    w = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
    inc = ((w[4] | w[5] << 32) << 65 | (w[6] | w[7] << 32) << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc


def _choice(seed: int, n: int, k: int) -> list[int]:
    """``np.random.default_rng(seed).choice(n, size=k, replace=False).tolist()``, without `numpy.random`.

    PCG64 (O'Neill 2014) draws bounded by Lemire's method feed Floyd's algorithm and a shuffle, or,
    above 10,000 documents with k > n // 50, a shuffle of the last k places of ``range(n)``.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    state, inc = _pcg64(seed)
    halves: list[int] = []

    def next64() -> int:
        nonlocal state
        state = (state * _PCG_MULT + inc) & _MASK128
        value, turn = (state >> 64 ^ state) & _MASK64, state >> 122
        return (value >> turn | value << (64 - turn)) & _MASK64

    def next32() -> int:
        if not halves:
            value = next64()
            halves.extend((value >> 32, value & _MASK32))
        return halves.pop()

    def bounded(top: int) -> int:
        bits, mask, draw = (32, _MASK32, next32) if top <= _MASK32 else (64, _MASK64, next64)
        threshold = (mask - top) % (top + 1)
        while True:
            product = draw() * (top + 1)
            if (product & mask) >= threshold:
                return product >> bits

    def shuffle(values: list[int], first: int) -> list[int]:
        for i in range(len(values) - 1, first - 1, -1):
            j = bounded(i)
            values[i], values[j] = values[j], values[i]
        return values

    if n > 10_000 and k > n // 50:
        return shuffle(list(range(n)), max(n - k, 1))[n - k :]
    picks: dict[int, None] = {}
    for top in range(n - k, n):
        value = bounded(top) if top else 0  # numpy draws nothing for [0, 0]
        picks[top if value in picks else value] = None
    return shuffle(list(picks), 1)


def _lloyd(gram: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, int]:
    """Run Lloyd iterations on a Gram matrix; returns labels and iteration count.

    Every centroid is the mean of a set of rows, held as a row of the
    k x n membership matrix.  The run stops when a labeling repeats any
    earlier one: from then on the labels cycle, since after the first
    iteration the next labeling depends only on the current one.
    """
    n = gram.shape[0]
    members = np.zeros((k, n))
    members[np.arange(k), _choice(seed, n, k)] = 1.0
    seen: set[bytes] = set()
    for n_iterations in range(1, _MAX_ITERATIONS + 1):
        distances = _sq_distances(gram, members)
        labels = np.argmin(distances, axis=1)
        _reseed_empty(labels, gram, k, distances)
        key = labels.tobytes()
        if key in seen:
            break
        seen.add(key)
        members = (labels == np.arange(k)[:, None]).astype(float)
    return labels, n_iterations


def kmeans(gram: Gram, k: int, seed: int) -> Clustering:
    """Lloyd iterations on L2-normalized vectors with seeded init.

    Initial centroids are the ``k`` distinct documents that numpy's
    ``default_rng(seed).choice(n, k, replace=False)`` picks, drawn by
    `_choice`; ``seed`` is a non-negative integer, not None.  A document goes to
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
    # `_reseed_empty` leaves no cluster empty.
    clusters: list[list[str]] = [[] for _ in range(k)]
    for doc_id, label in zip(gram.ids, labels.tolist()):
        clusters[label].append(doc_id)
    return Clustering(clusters=clusters, method="kmeans", k=k, seed=seed, n_iterations=n_iterations)


def _check_reps(reps: object) -> None:
    """Raise `ConfigError`, a ValueError, unless ``reps`` is an integer >= 1; a bool is not one."""
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
        raise ConfigError(f"reps must be an integer >= 1, got {reps!r}")


def run_repetitions(gram: Gram, k: int, reps: int) -> list[Clustering]:
    """K-Means runs with seeds 1..reps, for averaging metric estimates; ``reps`` as `_check_reps` requires."""
    _check_reps(reps)
    return [kmeans(gram, k, seed) for seed in range(1, reps + 1)]
