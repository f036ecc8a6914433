"""Independent reference implementations used to cross-check the library.

Everything here is recomputed from first principles with dense loops over
raw token lists and plain dictionaries.  Nothing imports from the package
under test, so a bug would have to be made twice, in two different shapes,
to slip through a comparison.  numpy appears for the seeded draw of
K-Means' initial centroids, and in `dot_ref`, whose job is to fix the
floating-point summation order of the sparse row product.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from pathlib import Path

import numpy as np

NOISE = "__NOISE__"

_LOG_BASE = {"e": math.e, "2": 2.0, "10": 10.0}


# ---------------------------------------------------------------------------
# term weighting


def element_tokens(task) -> dict[str, list[str]]:
    """Element id -> token list, documents first, then entity profiles."""
    out = {d.id: list(d.tokens) for d in task.documents}
    out.update({e.id: list(e.tokens) for e in task.entities})
    return out


def dense_weights(task, idf_numerator: str = "corpus", log_base: str = "e") -> dict[str, dict[str, float]]:
    """Element id -> token -> tf-idf weight, zeros dropped."""
    elements = element_tokens(task)
    df: Counter = Counter()
    for tokens in elements.values():
        df.update(set(tokens))
    base = _LOG_BASE[log_base]
    out: dict[str, dict[str, float]] = {}
    for cid, tokens in elements.items():
        counts = Counter(tokens)
        vec: dict[str, float] = {}
        if counts:
            peak = max(counts.values())
            numerator = len(counts) if idf_numerator == "paper" else len(elements)
            for token, n in counts.items():
                w = (n / peak) * math.log(numerator / df[token], base)
                if w != 0.0:
                    vec[token] = w
        out[cid] = vec
    return out


def index_ref(task, idf_numerator: str = "corpus", log_base: str = "e") -> dict:
    """The feature index as one scalar loop over plain dicts.

    Feature ids follow first occurrence, scanning documents and then
    entities in task order; each element's counts keep the order in which
    it first uses a token.  Weights are ``(n / peak) * (log(num / df) /
    divisor)`` with ``divisor`` the natural log of the base, zeros dropped.
    Returns ``tokens``, ``df`` (per feature id), ``counts`` (element id ->
    [(feature id, count)]) and ``weights`` (element id -> {feature id:
    weight}).
    """
    divisor = {"e": 1.0, "2": math.log(2.0), "10": math.log(10.0)}[log_base]
    ids: dict[str, int] = {}
    df: list[int] = []
    counts: dict[str, list[tuple[int, int]]] = {}
    for cid, tokens in element_tokens(task).items():
        local: dict[str, int] = {}
        for token in tokens:
            local[token] = local.get(token, 0) + 1
        for token in local:
            if token not in ids:
                ids[token] = len(ids)
                df.append(0)
            df[ids[token]] += 1
        counts[cid] = [(ids[token], n) for token, n in local.items()]
    weights: dict[str, dict[int, float]] = {}
    for cid, pairs in counts.items():
        peak = max((n for _, n in pairs), default=0)
        numerator = len(pairs) if idf_numerator == "paper" else len(counts)
        vec: dict[int, float] = {}
        for fid, n in pairs:
            w = (n / peak) * (math.log(numerator / df[fid]) / divisor)
            if w != 0.0:
                vec[fid] = w
        weights[cid] = vec
    return {"tokens": list(ids), "df": df, "counts": counts, "weights": weights}


def vector_ref(element_id: str, index, config) -> dict[int, float]:
    """One element's tf-idf vector as a dict copied from the index's arrays.

    Keys are Python ints in the element's stored order and values Python
    floats; exact zeros are dropped.  The view ``vectorize`` returns must
    equal it item by item.
    """
    span = index.span(element_id)
    weights = index.weights(config)[span]
    nonzero = weights != 0.0
    return dict(zip(index.features[span][nonzero].tolist(), weights[nonzero].tolist()))


def counts_ref(element_id: str, index) -> dict[int, float]:
    """One element's token counts as a dict copied from the index's arrays, keys in stored order."""
    span = index.span(element_id)
    return dict(zip(index.features[span].tolist(), index.counts[span].tolist()))


def l1(vector: dict) -> dict:
    total = sum(abs(w) for w in vector.values())
    if total == 0.0:
        return {}
    return {f: w / total for f, w in vector.items() if w != 0.0}


# ---------------------------------------------------------------------------
# noise feature sets, straight from the quantifier reading


def union_features(task) -> set[str]:
    feats: set[str] = set()
    for entity in task.entities:
        feats.update(entity.tokens)
    return feats


def exists_intersection_features(task) -> set[str]:
    """Features shared by at least one (entity, other element) pair."""
    tokens = element_tokens(task)
    entity_ids = [e.id for e in task.entities]
    feats: set[str] = set()
    for eid in entity_ids:
        for cid in tokens:
            if cid == eid:
                continue
            feats |= set(tokens[eid]) & set(tokens[cid])
    return feats


def forall_intersection_features(task) -> set[str]:
    """Features shared by every (entity, other element) pair; empty if no pair."""
    tokens = element_tokens(task)
    entity_ids = [e.id for e in task.entities]
    common: set[str] | None = None
    for eid in entity_ids:
        for cid in tokens:
            if cid == eid:
                continue
            shared = set(tokens[eid]) & set(tokens[cid])
            common = shared if common is None else common & shared
    return common or set()


def forall_pairs_ref(index) -> set[int]:
    """Feature ids shared by every (entity, other element) pair of an index.

    The pairs are enumerated over the index's own per-element counts
    (`counts_ref`); empty if no pair exists.
    """
    element_ids = index.document_ids + index.entity_ids
    common: set[int] | None = None
    for eid in index.entity_ids:
        entity_feats = set(counts_ref(eid, index))
        for cid in element_ids:
            if cid == eid:
                continue
            shared = entity_feats & set(counts_ref(cid, index))
            common = shared if common is None else common & shared
    return common or set()


def class_weights(task, noise: str = "none", idf_numerator: str = "corpus", log_base: str = "e"):
    """Class id -> token -> weight: tf-idf for entities, uniform for noise."""
    weights = dense_weights(task, idf_numerator, log_base)
    out = {e.id: dict(weights[e.id]) for e in task.entities}
    if noise == "none":
        return out
    feats = union_features(task) if noise == "union" else exists_intersection_features(task)
    out[NOISE] = {t: 1.0 / len(feats) for t in sorted(feats)} if feats else {}
    return out


# ---------------------------------------------------------------------------
# vector models: cosine, dot product, smoothed-profile dot product


def dot_ref(indices: np.ndarray, offsets: np.ndarray, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Documents x classes product of CSR document rows with every row of ``weights``.

    Gathers all class rows at once (classes x stored positions), scales
    them by ``values`` and sums each document's segment with
    ``np.add.reduceat``.  Empty documents score 0.
    """
    gathered = np.take(weights, indices, axis=1)
    gathered *= values
    sizes = np.diff(offsets)
    out = np.zeros((len(weights), len(sizes)))
    nonempty = sizes > 0
    if nonempty.any():
        out[:, nonempty] = np.add.reduceat(gathered, offsets[:-1][nonempty], axis=-1)
    return out.T


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of each CSR segment of ``values``; empty segments give 0."""
    sizes = np.diff(offsets)
    out = np.zeros(len(sizes))
    nonempty = sizes > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty])
    return out


def _inverse(norms: np.ndarray) -> np.ndarray:
    return np.divide(1.0, norms, out=np.zeros_like(norms), where=norms != 0.0)


def smoothed_ref(entities: np.ndarray, indices: np.ndarray, offsets: np.ndarray, tfidf: np.ndarray) -> np.ndarray:
    """Smoothed entity profiles with every pull added by one bincount over (class, feature) cells.

    Each entity row is L1-normalized and gets, for every document, the
    document's L1-normalized tf-idf row scaled by their cosine (taken with
    `dot_ref`).  The pulls of all classes are gathered at once, classes x
    stored positions, and summed into each cell in position order.
    """
    k, width = entities.shape
    sizes = np.diff(offsets)
    unit_entities = entities * _inverse(np.sqrt((entities * entities).sum(axis=1)))[:, None]
    unit_docs = tfidf * np.repeat(_inverse(np.sqrt(_segment_sums(tfidf**2, offsets))), sizes)
    l1_docs = tfidf * np.repeat(_inverse(_segment_sums(np.abs(tfidf), offsets)), sizes)
    sims = dot_ref(indices, offsets, unit_entities, unit_docs)
    pulled = np.repeat(sims, sizes, axis=0).T * l1_docs
    cells = (np.arange(k)[:, None] * width + indices).ravel()
    mixed = np.bincount(cells, weights=pulled.ravel(), minlength=k * width).reshape(k, width)
    l1_entities = entities * _inverse(np.abs(entities).sum(axis=1))[:, None]
    return l1_entities + mixed


def _dot(u: dict, v: dict) -> float:
    return sum(w * v[t] for t, w in u.items() if t in v)


def vector_scores_ref(task, doc_id: str, noise: str = "none", idf_numerator: str = "corpus",
                      log_base: str = "e") -> dict[str, dict[str, float]]:
    """Model -> class -> score of one document under the three vector models.

    A smoothed entity profile is the L1-normalized entity vector plus every
    document's L1-normalized vector scaled by its cosine with the raw entity
    vector; the noise profile is used unsmoothed.
    """
    weights = dense_weights(task, idf_numerator, log_base)
    classes = class_weights(task, noise, idf_numerator, log_base)
    docs = [weights[d.id] for d in task.documents]
    smoothed: dict[str, dict[str, float]] = {}
    for cid, vec in classes.items():
        profile = dict(l1(vec)) if cid != NOISE else dict(vec)
        if cid != NOISE:
            for other in docs:
                sim = _cosine(vec, other)
                for token, w in l1(other).items():
                    profile[token] = profile.get(token, 0.0) + sim * w
        smoothed[cid] = profile
    doc = weights[doc_id]
    return {
        "cosine": {cid: _cosine(doc, vec) for cid, vec in classes.items()},
        "score": {cid: _dot(doc, vec) for cid, vec in classes.items()},
        "score_smoothed": {cid: _dot(doc, smoothed[cid]) for cid in classes},
    }


# ---------------------------------------------------------------------------
# naive Bayes in the linear domain


def _priors(masses: dict[str, float], alpha: float, denominator: str) -> dict[str, float]:
    extra = alpha if denominator == "paper" else alpha * len(masses)
    pool = sum(masses.values()) + extra
    return {cid: (mass + alpha) / pool for cid, mass in masses.items()}


def bernoulli_linear(task, doc_id: str, alpha: float = 0.01, noise: str = "none",
                     denominator: str = "paper", idf_numerator: str = "corpus") -> dict[str, float]:
    """Linear-domain presence-model probabilities for one document."""
    classes = class_weights(task, noise, idf_numerator)
    feature_count = len({t for toks in element_tokens(task).values() for t in toks})
    masses = {cid: sum(vec.values()) for cid, vec in classes.items()}
    priors = _priors(masses, alpha, denominator)
    doc = next(d for d in task.documents if d.id == doc_id)
    scores: dict[str, float] = {}
    for cid, vec in classes.items():
        denom = masses[cid] + (alpha if denominator == "paper" else alpha * feature_count)
        p = priors[cid]
        for token in set(doc.tokens):
            p *= (vec.get(token, 0.0) + alpha) / denom
        scores[cid] = p
    return scores


def multinomial_linear(task, doc_id: str, lam: float = 0.5, alpha: float = 0.01,
                       noise: str = "none", denominator: str = "paper",
                       idf_numerator: str = "corpus", with_coefficient: bool = False) -> dict[str, float]:
    """Linear-domain multinomial probabilities with background mixing."""
    classes = class_weights(task, noise, idf_numerator)
    masses = {cid: sum(vec.values()) for cid, vec in classes.items()}
    priors = _priors(masses, alpha, denominator)

    tokens = element_tokens(task)
    background: Counter = Counter()
    for toks in tokens.values():
        background.update(toks)
    grand_total = sum(background.values())

    ml: dict[str, dict[str, float]] = {}
    for entity in task.entities:
        counts = Counter(entity.tokens)
        total = len(entity.tokens)
        ml[entity.id] = {t: n / total for t, n in counts.items()} if total else {}
    if NOISE in classes:
        ml[NOISE] = dict(classes[NOISE])  # uniform over the noise feature set

    doc = next(d for d in task.documents if d.id == doc_id)
    freqs = Counter(doc.tokens)
    coefficient = 1.0
    if with_coefficient:
        coefficient = math.factorial(len(doc.tokens))
        for n in freqs.values():
            coefficient /= math.factorial(n)

    scores: dict[str, float] = {}
    for cid in classes:
        p = priors[cid] * coefficient
        for token, n in freqs.items():
            mixed = (1.0 - lam) * ml[cid].get(token, 0.0) + lam * (background[token] / grand_total)
            p *= mixed ** n
        scores[cid] = p
    return scores


def multinomial_log_coefficient(freqs) -> float:
    """log(|d|! / prod_f freq(f,d)!) of a feature -> count mapping, the term the multinomial model drops."""
    total = sum(freqs.values())
    return math.lgamma(total + 1) - sum(math.lgamma(n + 1) for n in freqs.values())


# ---------------------------------------------------------------------------
# clustering metrics from the contingency table


def assignment_to_clusters(mapping: dict[str, str], doc_ids=None) -> list[list[str]]:
    """Documents grouped by assigned class, the labels dropped.

    ``doc_ids`` restricts and orders the grouping; by default every mapped
    document is used in mapping order.  Groups appear in first-seen order,
    and none is empty.
    """
    groups: dict[str, list[str]] = {}
    for doc_id in mapping if doc_ids is None else doc_ids:
        groups.setdefault(mapping[doc_id], []).append(doc_id)
    return list(groups.values())


def purity_ref(clusters, labels) -> float:
    total = sum(len(c) for c in clusters)
    hits = sum(max(Counter(labels[d] for d in c).values()) for c in clusters)
    return hits / total


def nmi_ref(clusters, labels) -> float:
    total = sum(len(c) for c in clusters)
    class_sizes = Counter(labels[d] for c in clusters for d in c)
    p_cluster = [len(c) / total for c in clusters]
    p_class = {g: n / total for g, n in class_sizes.items()}

    h_omega = -sum(p * math.log(p) for p in p_cluster if p > 0)
    h_class = -sum(p * math.log(p) for p in p_class.values() if p > 0)
    if h_omega + h_class == 0.0:
        return 1.0

    mi = 0.0
    for i, cluster in enumerate(clusters):
        joint = Counter(labels[d] for d in cluster)
        for g, n in joint.items():
            p = n / total
            mi += p * math.log(p / (p_cluster[i] * p_class[g]))
    if mi <= 0.0:
        return 0.0
    return min(1.0, mi / ((h_omega + h_class) / 2.0))


def micro_macro_ref(pred: dict[str, str], gold: dict[str, str]) -> tuple[float, float]:
    """One-vs-rest F1 over the gold-present classes, via precision/recall."""
    classes = sorted(set(gold.values()))
    per_class = []
    tp_sum = fp_sum = fn_sum = 0
    for c in classes:
        tp = sum(1 for d in gold if gold[d] == c and pred[d] == c)
        fp = sum(1 for d in gold if gold[d] != c and pred[d] == c)
        fn = sum(1 for d in gold if gold[d] == c and pred[d] != c)
        tp_sum, fp_sum, fn_sum = tp_sum + tp, fp_sum + fp, fn_sum + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    macro = sum(per_class) / len(per_class)
    precision = tp_sum / (tp_sum + fp_sum) if tp_sum + fp_sum else 0.0
    recall = tp_sum / (tp_sum + fn_sum) if tp_sum + fn_sum else 0.0
    micro = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return micro, macro


# ---------------------------------------------------------------------------
# complete-link agglomeration, recomputed from scratch at every step


def _cosine(u: dict, v: dict) -> float:
    nu = math.sqrt(sum(w * w for w in u.values()))
    nv = math.sqrt(sum(w * w for w in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return sum(w * v[f] for f, w in u.items() if f in v) / (nu * nv)


def gram_ref(vectors: dict[str, dict]) -> np.ndarray:
    """The library's Gram matrix of the unit rows, by its summation rule.

    Zero weights are skipped.  A unit row is ``w / norm``, the norm and
    the diagonal entry each summed left to right in the vector's order.
    Two rows' entry sums their products left to right over the features
    both hold, in ascending feature id.  A row none of whose features is
    its own (held by no other row) takes the row and column of the first
    row with the same features and bit-equal unit values.
    """
    units = []
    for vector in vectors.values():
        stored = [(f, w) for f, w in vector.items() if w != 0.0]
        total = 0.0
        for _, w in stored:
            total += w * w
        norm = math.sqrt(total) or 1.0
        units.append({f: w / norm for f, w in stored})
    holders = Counter(f for unit in units for f in unit)
    first: dict[object, int] = {}
    slot = []
    for i, unit in enumerate(units):
        own = any(holders[f] == 1 for f in unit)
        key = i if own else tuple(sorted((f, u.hex()) for f, u in unit.items()))
        slot.append(first.setdefault(key, i))

    def entry(a: int, b: int) -> float:
        total = 0.0
        if a == b:
            for u in units[a].values():
                total += u * u
        else:
            for f in sorted(set(units[a]) & set(units[b])):
                total += units[a][f] * units[b][f]
        return total

    n = len(units)
    return np.array([[entry(slot[i], slot[j]) for j in range(n)] for i in range(n)]).reshape(n, n)


def hac_ref(vectors: dict[str, dict], k: int) -> set[frozenset]:
    """Brute-force complete linkage; same distance and tie conventions."""
    clusters: list[set[str]] = [{doc_id} for doc_id in vectors]
    while len(clusters) > k:
        best_key = None
        best_pair = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                dist = max(
                    1.0 - _cosine(vectors[a], vectors[b])
                    for a in clusters[i]
                    for b in clusters[j]
                )
                lo, hi = sorted((min(clusters[i]), min(clusters[j])))
                key = (dist, lo, hi)
                if best_key is None or key < best_key:
                    best_key, best_pair = key, (i, j)
        i, j = best_pair
        clusters[i] |= clusters[j]
        del clusters[j]
    return {frozenset(c) for c in clusters}


# ---------------------------------------------------------------------------
# Lloyd's K-Means by direct subtraction, one coordinate at a time


def kmeans_ref(vectors: dict[str, dict], k: int, seed: int, max_iterations: int = 100) -> tuple[set[frozenset], int]:
    """Partition and iteration count of seeded K-Means on unit vectors.

    Same conventions as the library: rows scaled to unit length (all-zero
    rows stay zero); ``k`` clamped to the row count; initial centroids are
    the rows drawn by ``np.random.default_rng(seed).choice(n, k, replace=
    False)``; assignment ties go to the lowest centroid index; each empty
    cluster in turn takes the point farthest from its own centroid among
    points whose cluster has another member (the first such point on
    ties) and that point becomes its centroid; stop when the labels
    equal those of any earlier iteration (a fixed point, or a cycle the
    farthest-point reseed can start on duplicate points) or after
    ``max_iterations``.
    """
    ids = list(vectors)
    features = sorted({f for vec in vectors.values() for f in vec})
    points = []
    for doc_id in ids:
        vec = vectors[doc_id]
        norm = math.sqrt(sum(w * w for w in vec.values()))
        points.append([vec.get(f, 0.0) / norm if norm else 0.0 for f in features])
    n = len(points)
    k = min(k, n)

    def sq(a: list[float], b: list[float]) -> float:
        return sum((x - y) ** 2 for x, y in zip(a, b))

    chosen = np.random.default_rng(seed).choice(n, size=k, replace=False)
    centroids = [list(points[int(i)]) for i in chosen]
    seen: list[list[int]] = []
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        new = [min(range(k), key=lambda j: sq(p, centroids[j])) for p in points]
        for cluster in range(k):
            if cluster in new:
                continue
            sizes = Counter(new)
            movable = [i for i in range(n) if sizes[new[i]] > 1]
            farthest = max(movable, key=lambda i: sq(points[i], centroids[new[i]]))
            new[farthest] = cluster
            centroids[cluster] = list(points[farthest])
        converged = new in seen
        seen.append(new)
        labels = new
        for cluster in range(k):
            members = [points[i] for i in range(n) if labels[i] == cluster]
            centroids[cluster] = [sum(column) / len(members) for column in zip(*members)]
        if converged:
            break
    partition = {frozenset(ids[i] for i in range(n) if labels[i] == cluster) for cluster in range(k)}
    return partition, iteration


def kmeans_objective(clustering, gram) -> float:
    """Sum of squared distances to cluster means over the unit rows of a `Gram`.

    A cluster of m rows with Gram block B contributes ``trace(B) - sum(B) / m``.
    """
    row = {doc_id: i for i, doc_id in enumerate(gram.ids)}
    total = 0.0
    for cluster in clustering.clusters:
        members = [row[doc_id] for doc_id in cluster]
        block = gram.matrix[np.ix_(members, members)]
        total += float(np.trace(block) - block.sum() / len(members))
    return total


# ---------------------------------------------------------------------------
# corpus bodies


def body_ref(task_dir, file):
    """What a task's manifest ``file`` reads as, by resolving the whole path.

    ``"outside"`` when ``file`` is absolute, or names a path that lies
    outside ``task_dir`` once every symlink and ``..`` is resolved;
    otherwise the body's text, read without newline translation, or the
    OSError or ValueError that reading it raised.
    """
    path = Path(task_dir, file)
    try:
        inside = os.path.join(os.path.realpath(path), "").startswith(os.path.join(os.path.realpath(task_dir), ""))
    except (OSError, ValueError):
        inside = False
    if os.path.isabs(file) or not inside:
        return "outside"
    try:
        with open(path, encoding="utf-8", newline="", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK)) as f:
            if not os.path.isfile(f.fileno()):
                return OSError("not a regular file")
            return f.read()
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError, as is a NUL byte
        return exc
