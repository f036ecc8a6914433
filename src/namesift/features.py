"""Corpus-wide feature index, tf-idf weighting, and noise-entity profiles.

The indexed corpus C for a task is its documents followed by its entity
profiles.  The artificial noise entity is an extra class built on top of
the index; it contributes no term statistics and is excluded from document
frequencies.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count
from typing import Iterator

import numpy as np

from .corpus import NOISE_LABEL, Task

__all__ = [
    "FeatureVector",
    "ConfigError",
    "FeatureConfig",
    "FeatureIndex",
    "NoiseProfile",
    "build_index",
    "vectorize",
    "union_noise",
    "intersection_noise",
    "build_noise_profile",
]

IDF_NUMERATORS = ("corpus", "paper")
LOG_BASES = ("e", "2", "10")
NOISE_MODES = ("none", "union", "intersection")
INTERSECTION_SEMANTICS = ("exists", "forall")

# Divisor applied to natural logs to change base.
_LOG_DIVISOR = {"e": 1.0, "2": math.log(2.0), "10": math.log(10.0)}


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


class _TermCounts(Mapping[str, dict[int, int]]):
    """Read-only element id -> feature id -> count mapping, computed from the index on access."""

    def __init__(self, index: "FeatureIndex") -> None:
        self._index = index

    def __getitem__(self, element_id: str) -> dict[int, int]:
        index = self._index
        span = index.span(element_id)
        return dict(zip(index.features[span].tolist(), map(int, index.counts[span].tolist())))

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
    once.  ``term_counts`` (element id -> feature id -> count) is a
    read-only view computed on access.  The arrays are read-only.
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

    @property
    def term_counts(self) -> Mapping[str, dict[int, int]]:
        return _TermCounts(self)

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
        frequencies = Counter(element.tokens)
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


def reduce_segments(ufunc: np.ufunc, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``ufunc`` over each segment ``offsets[i]:offsets[i + 1]`` of the last axis, which they cover; 0 if empty."""
    # reduceat misreads empty segments, so only nonempty ones are reduced.
    nonempty = offsets[1:] > offsets[:-1]
    starts = offsets[:-1][nonempty]
    out = np.zeros(values.shape[:-1] + (len(nonempty),))
    if len(starts):
        out[..., nonempty] = ufunc.reduceat(values, starts, axis=-1)
    return out


def _tfidf_weights(index: FeatureIndex, idf_numerator: str, log_base: str) -> np.ndarray:
    """``(count / element max count) * log(numerator / df) / divisor`` at every position."""
    sizes = np.diff(index.offsets)
    peaks = reduce_segments(np.maximum, index.counts, index.offsets)
    divisor = _LOG_DIVISOR[log_base]
    if idf_numerator == "paper":
        idf = _logs(np.repeat(sizes, sizes) / index.df[index.features], divisor)
    else:
        idf = _logs(index.corpus_size / index.df, divisor)[index.features]
    return (index.counts / np.repeat(peaks, sizes)) * idf


class FeatureVector(Mapping[int, float]):
    """Read-only sparse vector, feature id -> weight, over one element's slice of the index's arrays.

    Keys keep the element's stored order and exact zeros are omitted, as
    in a dict built from the slice; ``len`` counts the nonzero weights
    without building one.  That dict of Python ints and floats is built on
    the first key lookup or iteration and then cached.  The view keeps the
    index's arrays alive; ``dict(vector)`` is a detached copy.
    """

    def __init__(self, features: np.ndarray, weights: np.ndarray) -> None:
        self._features = features
        self._weights = weights

    @cached_property
    def _dict(self) -> dict[int, float]:
        nonzero = self._weights != 0.0
        return dict(zip(self._features[nonzero].tolist(), self._weights[nonzero].tolist()))

    def __getitem__(self, feature: int) -> float:
        return self._dict[feature]

    def __iter__(self) -> Iterator[int]:
        return iter(self._dict)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._weights))

    def __repr__(self) -> str:
        return f"FeatureVector({self._dict!r})"


def vectorize(
    element_id: str,
    index: FeatureIndex,
    config: FeatureConfig = FeatureConfig(),
) -> FeatureVector:
    """Sparse tf-idf vector of one element, a view of the index's arrays; exact zeros are omitted."""
    span = index.span(element_id)
    return FeatureVector(index.features[span], index.weights(config)[span])


@dataclass(frozen=True, eq=False)
class NoiseProfile:
    """Artificial entity absorbing documents that match nobody.

    ``features`` holds the selected feature ids, each once in ascending
    order, as a read-only int64 array, whatever ids construction was given.
    The profile spreads ``weight`` uniformly over them, so a non-empty
    profile sums to 1.  An empty feature set (weight 0) is legal: the noise
    class then scores 0 everywhere.
    """

    kind: str
    features: np.ndarray

    def __post_init__(self) -> None:
        # A sort and a neighbour mask, not np.unique, which is several times
        # slower on these arrays with numpy 2.4.
        ordered = np.sort(np.asarray(self.features, dtype=np.int64))
        distinct = np.ones(len(ordered), dtype=bool)
        distinct[1:] = ordered[1:] != ordered[:-1]
        ordered = ordered[distinct]
        ordered.flags.writeable = False
        object.__setattr__(self, "features", ordered)

    @property
    def weight(self) -> float:
        return 1.0 / len(self.features) if len(self.features) else 0.0


def _entity_features(index: FeatureIndex) -> np.ndarray:
    """Feature ids at the stored positions of every entity profile."""
    return index.features[index.offsets[len(index.document_ids)] :]


def union_noise(index: FeatureIndex) -> NoiseProfile:
    """Noise profile over the union of all entity-profile features."""
    return NoiseProfile("union", _entity_features(index))


def intersection_noise(index: FeatureIndex, semantics: str = FeatureConfig.intersection_semantics) -> NoiseProfile:
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
        return NoiseProfile("intersection", feats[index.df[feats] >= 2])
    if not index.entity_ids or index.corpus_size < 2:
        return NoiseProfile("intersection", ())
    return NoiseProfile("intersection", np.flatnonzero(index.df == index.corpus_size))


def build_noise_profile(index: FeatureIndex, config: FeatureConfig) -> NoiseProfile | None:
    """Noise profile selected by ``config.noise``; None when disabled."""
    if config.noise == "none":
        return None
    if config.noise == "union":
        return union_noise(index)
    return intersection_noise(index, config.intersection_semantics)
