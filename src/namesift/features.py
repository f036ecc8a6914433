"""Corpus-wide feature index, tf-idf weighting, and noise-entity profiles.

The indexed corpus C for a task is its documents followed by its entity
profiles.  The artificial noise entity is an extra class built on top of
the index; it contributes no term statistics and is excluded from document
frequencies.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Callable, Iterator, TypeVar

import numpy as np

from .corpus import NOISE_LABEL, Task, term_frequencies

__all__ = [
    "FeatureVector",
    "ConfigError",
    "FeatureConfig",
    "FeatureIndex",
    "NoiseProfile",
    "build_index",
    "tfidf",
    "vectorize",
    "l1_normalize",
    "union_noise",
    "intersection_noise",
    "build_noise_profile",
]

# Sparse vector over integer feature ids; exact zeros are never stored.
FeatureVector = dict[int, float]

IDF_NUMERATORS = ("corpus", "paper")
LOG_BASES = ("e", "2", "10")
NOISE_MODES = ("none", "union", "intersection")
INTERSECTION_SEMANTICS = ("exists", "forall")

# Divisor applied to natural logs to change base.
_LOG_DIVISOR = {"e": 1.0, "2": math.log(2.0), "10": math.log(10.0)}

_V = TypeVar("_V")


class ConfigError(ValueError):
    """A configuration value is outside its legal domain."""


def _check(value: str, allowed: tuple[str, ...], key: str) -> None:
    if value not in allowed:
        raise ConfigError(f"{key} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class FeatureConfig:
    """Weighting and noise-profile options.

    ``idf_numerator`` selects the numerator inside the idf log: ``corpus``
    uses the number of indexed elements |C|, ``paper`` uses the element's own
    distinct-feature count |F_c| (an element-local variant; it can produce
    zero or negative weights).  ``log_base`` is one of ``e``, ``2``, ``10``.
    ``noise`` picks the artificial noise profile (``none``, ``union``,
    ``intersection``) and ``intersection_semantics`` chooses between the
    ``exists`` reading (feature shared by an entity and at least one other
    element) and the strict ``forall`` reading (feature shared by every
    entity/element pair), which is empty on all but degenerate corpora.
    """

    idf_numerator: str = "corpus"
    log_base: str = "e"
    noise: str = "none"
    intersection_semantics: str = "exists"

    def __post_init__(self) -> None:
        _check(self.idf_numerator, IDF_NUMERATORS, "idf_numerator")
        _check(self.log_base, LOG_BASES, "log_base")
        _check(self.noise, NOISE_MODES, "noise")
        _check(self.intersection_semantics, INTERSECTION_SEMANTICS, "intersection_semantics")


class _ElementView(Mapping[str, _V]):
    """Read-only element id -> value mapping, computed from the index on access."""

    def __init__(self, index: "FeatureIndex", value_of: Callable[[str], _V]) -> None:
        self._index = index
        self._value_of = value_of

    def __getitem__(self, element_id: str) -> _V:
        return self._value_of(element_id)

    def __iter__(self) -> Iterator[str]:
        return iter(self._index.document_ids + self._index.entity_ids)

    def __len__(self) -> int:
        return self._index.corpus_size


@dataclass(eq=False)
class FeatureIndex:
    """Term statistics for one task's corpus C = documents + entities.

    The statistics are stored once, CSR style over the elements of C in
    order (documents in task order, then entities): element ``r`` holds the
    features ``features[offsets[r]:offsets[r + 1]]``, in the order it first
    uses them, with their occurrence counts at the same positions of
    ``counts`` (whole numbers held as floats, so scoring uses them as is).
    ``df`` counts, per feature, the elements of C containing it at least
    once.  The noise placeholder closes the element list and carries no
    term statistics.  ``term_counts`` (element id -> feature id -> count),
    ``max_counts`` and ``token_totals`` are read-only views computed on
    access.  The arrays are read-only.
    """

    tokens: list[str]
    ids: dict[str, int]
    document_ids: list[str]
    entity_ids: list[str]
    features: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    df: np.ndarray
    _rows: dict[str, int] = field(init=False, repr=False)
    _weights: dict[tuple[str, str], np.ndarray] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._rows = {element_id: r for r, element_id in enumerate(self.document_ids + self.entity_ids)}
        for array in (self.features, self.counts, self.offsets, self.df):
            array.flags.writeable = False

    @property
    def elements(self) -> list[str]:
        return self.document_ids + self.entity_ids + [NOISE_LABEL]

    @property
    def corpus_size(self) -> int:
        """|C|: elements carrying term statistics (noise excluded)."""
        return len(self.document_ids) + len(self.entity_ids)

    @property
    def feature_count(self) -> int:
        return len(self.tokens)

    def feature_id(self, token: str) -> int:
        try:
            return self.ids[token]
        except KeyError:
            raise KeyError(f"unknown feature {token!r}") from None

    def span(self, element_id: str) -> slice:
        """The positions of one element's features in the stored arrays."""
        if element_id == NOISE_LABEL:
            raise KeyError("the noise entity carries no term statistics")
        try:
            r = self._rows[element_id]
        except KeyError:
            raise KeyError(f"unknown element {element_id!r}") from None
        return slice(int(self.offsets[r]), int(self.offsets[r + 1]))

    def counts_of(self, element_id: str) -> dict[int, int]:
        span = self.span(element_id)
        return dict(zip(self.features[span].tolist(), map(int, self.counts[span].tolist())))

    @property
    def term_counts(self) -> Mapping[str, dict[int, int]]:
        return _ElementView(self, self.counts_of)

    @property
    def max_counts(self) -> Mapping[str, int]:
        return _ElementView(self, lambda element_id: int(self.counts[self.span(element_id)].max(initial=0)))

    @property
    def token_totals(self) -> Mapping[str, int]:
        return _ElementView(self, lambda element_id: int(self.counts[self.span(element_id)].sum()))

    def weights(self, config: FeatureConfig) -> np.ndarray:
        """The tf-idf weight at every stored position, computed once per weighting."""
        key = (config.idf_numerator, config.log_base)
        if key not in self._weights:
            weights = _tfidf_weights(self, *key)
            weights.flags.writeable = False
            self._weights[key] = weights
        return self._weights[key]


def build_index(task: Task) -> FeatureIndex:
    """Index every document and entity profile of ``task``.

    Feature ids are assigned in first-occurrence order, scanning documents
    in task order and then entities in task order, so indexing is
    deterministic.  Each element's counts become its feature-id and count
    arrays before the next element is tokenized.
    """
    # Looking up a token the defaultdict has not seen gives it the next id,
    # so ids follow first occurrence in one pass over the (element, token)
    # stream.  Without its factory it then raises KeyError like a dict.
    ids: defaultdict[str, int] = defaultdict(count().__next__)
    features, counts, sizes = [np.empty(0, dtype=np.int64)], [np.empty(0)], [0]
    for element in chain(task.documents, task.entities):
        frequencies = term_frequencies(element.tokens)
        sizes.append(len(frequencies))
        features.append(np.fromiter(map(ids.__getitem__, frequencies), dtype=np.int64, count=sizes[-1]))
        counts.append(np.fromiter(frequencies.values(), dtype=float, count=sizes[-1]))
    ids.default_factory = None
    # The empty first arrays keep a task without elements joinable, and each
    # join drops its per-element arrays before the next join starts.
    features = np.concatenate(features)
    counts = np.concatenate(counts)
    return FeatureIndex(
        tokens=list(ids),
        ids=ids,
        document_ids=[d.id for d in task.documents],
        entity_ids=[e.id for e in task.entities],
        features=features,
        counts=counts,
        offsets=np.cumsum(sizes, dtype=np.int64),
        df=np.bincount(features, minlength=len(ids)),
    )


def _logs(ratios: np.ndarray, divisor: float) -> np.ndarray:
    """``math.log(r) / divisor`` for every ratio, one ``math.log`` per distinct value.

    ``np.log`` is not used: it can differ from ``math.log`` in the last bit,
    and the weights are defined by the scalar formula.
    """
    distinct, where = np.unique(ratios, return_inverse=True)
    logs = np.fromiter(map(math.log, distinct.tolist()), dtype=float, count=len(distinct))
    return (logs / divisor)[where]


def _tfidf_weights(index: FeatureIndex, idf_numerator: str, log_base: str) -> np.ndarray:
    """``(count / element max count) * log(numerator / df) / divisor`` at every position."""
    sizes = np.diff(index.offsets)
    nonempty = sizes > 0
    peaks = np.zeros(len(sizes))
    # reduceat misreads empty segments, so only nonempty ones are reduced.
    if nonempty.any():
        peaks[nonempty] = np.maximum.reduceat(index.counts, index.offsets[:-1][nonempty])
    divisor = _LOG_DIVISOR[log_base]
    if idf_numerator == "paper":
        idf = _logs(np.repeat(sizes, sizes) / index.df[index.features], divisor)
    else:
        idf = _logs(index.corpus_size / index.df, divisor)[index.features]
    return (index.counts / np.repeat(peaks, sizes)) * idf


def tfidf(
    feature: int | str,
    element_id: str,
    index: FeatureIndex,
    config: FeatureConfig = FeatureConfig(),
) -> float:
    """Augmented-tf times idf for one feature of one element.

    The term factor divides the feature's count by the element's maximum
    count; the idf factor is ``log(numerator / df)`` per the config.  A
    feature absent from the element scores 0.  Unknown features or elements
    raise ``KeyError``.
    """
    fid = index.feature_id(feature) if isinstance(feature, str) else feature
    if not 0 <= fid < index.feature_count:
        raise KeyError(f"feature id {fid} out of range")
    span = index.span(element_id)
    hit = np.flatnonzero(index.features[span] == fid)
    return float(index.weights(config)[span][hit[0]]) if hit.size else 0.0


def vectorize(
    element_id: str,
    index: FeatureIndex,
    config: FeatureConfig = FeatureConfig(),
) -> FeatureVector:
    """Sparse tf-idf vector of one element; exact zeros are omitted."""
    span = index.span(element_id)
    weights = index.weights(config)[span]
    nonzero = weights != 0.0
    return dict(zip(index.features[span][nonzero].tolist(), weights[nonzero].tolist()))


def l1_normalize(vector: FeatureVector) -> FeatureVector:
    """Scale so absolute values sum to 1; empty or all-zero input gives {}."""
    total = sum(abs(w) for w in vector.values())
    if total == 0.0:
        return {}
    return {f: w / total for f, w in vector.items() if w != 0.0}


@dataclass(frozen=True)
class NoiseProfile:
    """Artificial entity absorbing documents that match nobody.

    ``vector`` spreads weight uniformly over the selected feature set, so
    non-empty profiles sum to 1.  An empty feature set gives an empty
    vector, which is legal: the noise class then scores 0 everywhere.
    """

    kind: str
    vector: FeatureVector

    @property
    def features(self) -> set[int]:
        return set(self.vector)


def _uniform(feature_ids: np.ndarray, kind: str) -> NoiseProfile:
    """Uniform weight over the distinct ``feature_ids``, in ascending order."""
    ordered = np.sort(feature_ids)
    distinct = np.ones(len(ordered), dtype=bool)
    distinct[1:] = ordered[1:] != ordered[:-1]
    ordered = ordered[distinct].tolist()
    return NoiseProfile(kind, dict.fromkeys(ordered, 1.0 / len(ordered) if ordered else 0.0))


def _entity_features(index: FeatureIndex) -> np.ndarray:
    """Feature ids at the stored positions of every entity profile."""
    return index.features[index.offsets[len(index.document_ids)] :]


def union_noise(index: FeatureIndex) -> NoiseProfile:
    """Noise profile over the union of all entity-profile features."""
    return _uniform(_entity_features(index), "union")


def intersection_noise(index: FeatureIndex, semantics: str = "exists") -> NoiseProfile:
    """Noise profile over pairwise entity/element feature intersections.

    ``exists`` collects every feature shared by at least one pair (e, c)
    with e an entity, c any corpus element, e != c; that is exactly the
    features occurring in some entity profile with df >= 2, which biases
    the profile toward frequent features.  ``forall`` keeps only features
    shared by every such pair: once a pair exists (an entity and |C| >= 2),
    every element of C is in one, so these are the features present in
    every element of C.  With no valid pair the profile is empty.
    """
    _check(semantics, INTERSECTION_SEMANTICS, "intersection_semantics")
    if semantics == "exists":
        feats = _entity_features(index)
        return _uniform(feats[index.df[feats] >= 2], "intersection")
    if not index.entity_ids or index.corpus_size < 2:
        return _uniform(np.empty(0, dtype=np.int64), "intersection")
    return _uniform(np.flatnonzero(index.df == index.corpus_size), "intersection")


def build_noise_profile(index: FeatureIndex, config: FeatureConfig) -> NoiseProfile | None:
    """Noise profile selected by ``config.noise``; None when disabled."""
    if config.noise == "none":
        return None
    if config.noise == "union":
        return union_noise(index)
    return intersection_noise(index, config.intersection_semantics)
