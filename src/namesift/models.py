"""Membership scoring models and the document-to-entity assignment step.

All five models are one linear layer over a task's sparse document rows:
``scores = rows @ W.T + b``.  ``W`` holds one row per class, the real
entities in task order followed by the artificial noise entity when it is
enabled, and ``b`` one bias per class.  Each document goes to its first
highest-scoring class (``argmax``), so ties go to the earliest class and a
real entity always wins an exact tie against the noise entity.

The models differ only in the document row values and in ``W`` and ``b``:

* ``cosine``: unit-length tf-idf rows against unit-length class rows.
* ``score``: tf-idf rows against the raw tf-idf class rows.
* ``score_smoothed``: tf-idf rows against entity profiles pulled toward
  similar documents (`smoothed_profile`); the noise row is left as is.
* ``nb_bernoulli_laplace``: Bernoulli Naive Bayes.  Presence bits of the
  distinct document features against ``log((W + alpha) / denom)``, the
  additively smoothed class-weight rows, plus the log prior; tf-idf
  weights act as soft counts.
* ``nb_multinomial_jm``: multinomial Naive Bayes.  Token counts against
  ``log((1 - lambda) * ml + lambda * background)``, the Jelinek-Mercer mix
  of each class's maximum-likelihood token distribution with the
  corpus-wide one, plus the log prior.  The multinomial coefficient is
  omitted: it is constant per document and cannot change the argmax.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .baselines import Gram, gram
from .corpus import NOISE_LABEL, Task, clustering_eval_filter, tsv_cell
from .features import (
    ConfigError,
    FeatureConfig,
    FeatureIndex,
    FeatureVector,
    build_index,
    build_noise_profile,
    reduce_segments,
    vectorize,
)

__all__ = [
    "MODELS",
    "ModelConfig",
    "Assignment",
    "DocumentRows",
    "TaskResources",
    "ClassFit",
    "ScoringContext",
    "unit_rows",
    "smoothed_profile",
    "multinomial_log_coefficient",
    "floored_log",
    "laplace_log_priors",
    "bernoulli_log_probs",
    "jelinek_mercer_log_probs",
    "build_context",
    "assign_from_context",
    "map_documents",
]

COSINE = "cosine"
SCORE = "score"
SCORE_SMOOTHED = "score_smoothed"
NB_BERNOULLI = "nb_bernoulli_laplace"
NB_MULTINOMIAL = "nb_multinomial_jm"
MODELS = (COSINE, SCORE, SCORE_SMOOTHED, NB_BERNOULLI, NB_MULTINOMIAL)

LAPLACE_DENOMINATORS = ("paper", "per_feature")

# Positivity floor applied before logs; only degenerate configurations
# (e.g. negative element-local idf weights) ever hit it.
PROB_FLOOR = 1e-300


def _is_real(value: object) -> bool:
    """A finite int or float; booleans are rejected."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class ModelConfig:
    """One classification configuration: model choice plus its parameters."""

    model: str
    alpha: float = 0.01
    jm_lambda: float = 0.5
    laplace_denominator: str = "paper"
    features: FeatureConfig = FeatureConfig()

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if not (_is_real(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be a finite number > 0, got {self.alpha!r}")
        if not (_is_real(self.jm_lambda) and 0.0 < self.jm_lambda < 1.0):
            raise ConfigError(f"lambda must lie strictly between 0 and 1, got {self.jm_lambda!r}")
        if self.laplace_denominator not in LAPLACE_DENOMINATORS:
            raise ConfigError(
                f"laplace_denominator must be one of {LAPLACE_DENOMINATORS}, got {self.laplace_denominator!r}"
            )


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself, marked read-only."""
    array.flags.writeable = False
    return array


def _inverse(norms: np.ndarray) -> np.ndarray:
    """1 / norms, with 0 where a norm is 0."""
    return np.divide(1.0, norms, out=np.zeros_like(norms), where=norms != 0.0)


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 length; all-zero rows stay zero."""
    return matrix * _inverse(np.sqrt((matrix * matrix).sum(axis=1)))[:, None]


@dataclass(frozen=True)
class DocumentRows:
    """Sparse document rows of one task, CSR style.

    Document ``i`` holds the features ``indices[offsets[i]:offsets[i + 1]]``
    with tf-idf weights ``tfidf`` and token counts ``counts`` at the same
    positions.  A stored feature may carry a tf-idf weight of exactly 0.
    """

    indices: np.ndarray
    offsets: np.ndarray
    tfidf: np.ndarray
    counts: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def per_document(self, values: np.ndarray) -> np.ndarray:
        """Sums over each document's positions along the last axis of ``values``."""
        return reduce_segments(np.add, values, self.offsets)

    def unit(self) -> np.ndarray:
        """tf-idf weights scaled to unit L2 length per document; all-zero rows stay zero."""
        return self.tfidf * np.repeat(_inverse(np.sqrt(self.per_document(self.tfidf**2))), self.sizes)

    def l1(self) -> np.ndarray:
        """tf-idf weights scaled so their absolute values sum to 1 per document."""
        return self.tfidf * np.repeat(_inverse(self.per_document(np.abs(self.tfidf))), self.sizes)

    def dot(self, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Documents x classes: rows holding ``values`` at their positions, dotted with each row of ``weights``.

        One class row is gathered at a time, so the temporary is one stored
        position long, not classes x positions.
        """
        out = np.empty((len(weights), len(self.offsets) - 1))
        for row, products in zip(weights, out):
            products[:] = self.per_document(np.take(row, self.indices) * values)
        return out.T


def smoothed_profile(entities: np.ndarray, rows: DocumentRows, sims: np.ndarray) -> np.ndarray:
    """Entity profiles pulled toward documents by cosine-weighted mixing.

    Row e of the result starts from entity row e, L1-normalized, and adds,
    for every document, its L1-normalized tf-idf row scaled by the cosine
    between the raw entity and document rows.  Every document contributes,
    including the one later being scored.  ``sims`` holds those cosines,
    documents x entities: ``rows.dot(unit_rows(entities), rows.unit())``,
    which is the ``cosine`` model's entity product.

    One class row is pulled at a time: a weighted bincount over the stored
    positions adds each feature's pulls in position order, so the
    temporaries are one position long, not classes x positions.
    """
    l1, sizes = rows.l1(), rows.sizes
    profiles = entities * _inverse(np.abs(entities).sum(axis=1))[:, None]
    for profile, column in zip(profiles, sims.T):
        profile += np.bincount(rows.indices, weights=np.repeat(column, sizes) * l1, minlength=entities.shape[1])
    return profiles


def multinomial_log_coefficient(freqs: Mapping[int, int]) -> float:
    """log(|d|! / prod_f freq(f,d)!), the term the multinomial model drops."""
    total = sum(freqs.values())
    return math.lgamma(total + 1) - sum(math.lgamma(n + 1) for n in freqs.values())


def floored_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Natural log with entries <= 0 clamped to PROB_FLOOR, and the clamp mask.

    The logs are written over ``p``, so callers pass an array of their own.
    """
    clamped = p <= 0.0
    p[clamped] = PROB_FLOOR
    return np.log(p, out=p), clamped


def laplace_log_priors(masses: np.ndarray, alpha: float, *, denominator: str) -> tuple[np.ndarray, np.ndarray]:
    """Additively smoothed log priors from per-class weight masses.

    The denominator pools the weight mass of every class being scored and
    adds ``alpha`` once (``paper``) or once per class (``per_feature``).
    Returns the log priors and their clamp mask.
    """
    extra = alpha if denominator == "paper" else alpha * len(masses)
    return floored_log((masses + alpha) / (masses.sum() + extra))


def bernoulli_log_probs(profiles: np.ndarray, alpha: float, *, denominator: str) -> tuple[np.ndarray, int]:
    """Per-class feature log probabilities of the Bernoulli model.

    For class e with weight mass M(e), a feature with weight w gets
    probability (w + alpha) / (M(e) + alpha) in ``paper`` mode, or
    (w + alpha) / (M(e) + alpha * F) in ``per_feature`` mode, F being the
    number of columns.  Features outside the class use w = 0.  Returns the
    log matrix and the number of clamped fit-time probabilities: one per
    stored (nonzero) class weight, plus one per class for the shared value
    of its absent features.
    """
    masses = profiles.sum(axis=1)
    denom = masses + (alpha if denominator == "paper" else alpha * profiles.shape[1])
    probs = profiles + alpha
    probs /= denom[:, None]
    logs, clamped = floored_log(probs)
    floored = (clamped & (profiles != 0.0)).sum() + (alpha / denom <= 0.0).sum()
    return logs, int(floored)


def jelinek_mercer_log_probs(ml: np.ndarray, background: np.ndarray, jm_lambda: float) -> tuple[np.ndarray, np.ndarray]:
    """log((1 - lambda) * ml + lambda * background) per class and feature, and the clamp mask."""
    mixed = ml * (1.0 - jm_lambda)
    mixed += jm_lambda * background
    return floored_log(mixed)


@dataclass(frozen=True)
class ClassFit:
    """The product ``rows.dot(W, values)`` of one model setting's class rows ``W``.

    ``values`` are the document row values the product was taken with,
    ``masses`` the row sums of the weight rows the fit started from (the
    Naive Bayes priors pool them across classes), and ``floored`` the
    count of clamped fit-time probabilities.  The arrays are read-only;
    ``W`` itself is not kept.
    """

    values: np.ndarray
    product: np.ndarray
    masses: np.ndarray
    floored: int


def _document_values(model: str, rows: DocumentRows) -> np.ndarray:
    if model == COSINE:
        return rows.unit()
    if model == NB_BERNOULLI:
        return np.ones_like(rows.counts)
    if model == NB_MULTINOMIAL:
        return rows.counts
    return rows.tfidf


@dataclass
class TaskResources:
    """Feature artifacts one task shares across model configurations.

    Everything here depends only on the weighting options (idf numerator
    and log base) of ``weighting``, the `FeatureConfig` the resources were
    built with, never on the model or noise choice, so a configuration
    grid can reuse one instance per task.  Built on first use and
    read-only once built:

    * the scoring arrays: ``rows``, the documents' `DocumentRows`;
      ``entities`` and ``ml``, the k entities' tf-idf rows and token
      distributions over the F features (k x F); ``background``, the
      token distribution of documents and entities together;
    * per (noise, intersection semantics): the dense noise row;
    * per model setting (model, ``alpha``, ``jm_lambda``,
      ``laplace_denominator``): the `ClassFit` of the entity rows, which
      holds the document values and their product with the rows; the
      ``score_smoothed`` fit smooths with the ``cosine`` fit's product;
    * per model setting, noise and intersection semantics: the `ClassFit`
      of the one noise row (no row when noise is off);
    * the Gram matrix of the clustered documents.
    """

    task: Task
    index: FeatureIndex
    weighting: FeatureConfig
    doc_vectors: dict[str, FeatureVector]
    _noise: dict[tuple[str, str], np.ndarray] = field(init=False, default_factory=dict)
    _fits: dict[tuple, ClassFit] = field(init=False, default_factory=dict)

    @classmethod
    def from_task(cls, task: Task, config: FeatureConfig) -> "TaskResources":
        index = build_index(task)
        return cls(
            task=task,
            index=index,
            weighting=config,
            # Nothing in the package reads these views.  perfbench's
            # `features.vectorize` span and its `doc_vector_nonzeros` size
            # figure do, so the loop stays until tracing moves into namesift.
            doc_vectors={d.id: vectorize(d.id, index, config) for d in task.documents},
        )

    def check(self, task: Task, config: FeatureConfig) -> None:
        """Raise ValueError unless these resources were built for ``task`` with ``config``'s weighting."""
        if self.task is not task:
            raise ValueError("resources were built for a different task")
        if (config.idf_numerator, config.log_base) != (self.weighting.idf_numerator, self.weighting.log_base):
            raise ValueError("resources were built with different weighting options")

    def noise_rows(self, config: FeatureConfig) -> np.ndarray:
        """The noise profile as a dense row, 1 x F; 0 x F when noise is off."""
        key = (config.noise, config.intersection_semantics)
        if key not in self._noise:
            profile = build_noise_profile(self.index, config)
            row = np.zeros((int(profile is not None), self.index.feature_count))
            if profile is not None:
                row[0, profile.features] = profile.weight
            self._noise[key] = _read_only(row)
        return self._noise[key]

    @cached_property
    def rows(self) -> DocumentRows:
        index, n_docs = self.index, len(self.index.document_ids)
        split = int(index.offsets[n_docs])
        return DocumentRows(
            indices=index.features[:split],
            offsets=index.offsets[: n_docs + 1],
            tfidf=index.weights(self.weighting)[:split],
            counts=index.counts[:split],
        )

    def _entity_rows(self, values: np.ndarray) -> np.ndarray:
        """k x F: ``values`` at the entity profiles' stored positions, 0 elsewhere."""
        index, n_docs = self.index, len(self.index.document_ids)
        split = int(index.offsets[n_docs])
        rows = np.zeros((len(index.entity_ids), index.feature_count))
        entity_of = np.repeat(np.arange(len(index.entity_ids)), np.diff(index.offsets[n_docs:]))
        rows[entity_of, index.features[split:]] = values[split:]
        return rows

    @cached_property
    def entities(self) -> np.ndarray:
        return _read_only(self._entity_rows(self.index.weights(self.weighting)))

    @cached_property
    def ml(self) -> np.ndarray:
        counts = self._entity_rows(self.index.counts)
        return _read_only(counts * _inverse(counts.sum(axis=1))[:, None])

    @cached_property
    def background(self) -> np.ndarray:
        # Counts are integers, so these sums are exact in any order.
        totals = np.bincount(self.index.features, weights=self.index.counts, minlength=self.index.feature_count)
        grand_total = int(self.index.counts.sum())
        return _read_only(totals / grand_total if grand_total else totals)

    def _fit(self, config: ModelConfig, profiles: np.ndarray, ml: np.ndarray, values: np.ndarray) -> ClassFit:
        """``config``'s class rows for weight rows ``profiles`` with token distributions ``ml``.

        Every model fits each class row on its own, so rows fitted apart equal
        the rows of a fit over all classes at once.
        """
        floored = 0
        if config.model == COSINE:
            W = unit_rows(profiles)
        elif config.model == NB_BERNOULLI:
            W, floored = bernoulli_log_probs(profiles, config.alpha, denominator=config.laplace_denominator)
        elif config.model == NB_MULTINOMIAL:
            W, clamped = jelinek_mercer_log_probs(ml, self.background, config.jm_lambda)
            floored = int(clamped.sum(axis=0)[self.rows.indices].sum())
        else:
            W = profiles
        product = self.rows.dot(W, values)
        return ClassFit(_read_only(values), _read_only(product), _read_only(profiles.sum(axis=1)), floored)

    def fits(self, config: ModelConfig) -> tuple[ClassFit, ClassFit]:
        """The entity-row and noise-row `ClassFit` of ``config``."""
        setting = (config.model, config.alpha, config.jm_lambda, config.laplace_denominator)
        noise_key = setting + (config.features.noise, config.features.intersection_semantics)
        if setting not in self._fits:
            profiles = self.entities
            if config.model == SCORE_SMOOTHED:
                # The pulls are the cosine entity product; the noise row is never smoothed.
                sims = self.fits(replace(config, model=COSINE))[0].product
                profiles = smoothed_profile(profiles, self.rows, sims)
            values = _document_values(config.model, self.rows)
            self._fits[setting] = self._fit(config, profiles, self.ml, values)
        entity = self._fits[setting]
        if noise_key not in self._fits:
            # The noise profile is uniform over its feature set, so it serves
            # both as the noise class's weight row and as its token distribution.
            noise_rows = self.noise_rows(config.features)
            self._fits[noise_key] = self._fit(config, noise_rows, noise_rows, entity.values)
        return entity, self._fits[noise_key]

    @cached_property
    def kept_gram(self) -> Gram:
        """The `gram` of the documents `clustering_eval_filter` keeps, from their rows of the index."""
        kept = clustering_eval_filter(self.task)
        spans = [self.index.span(doc_id) for doc_id in kept]
        positions = np.concatenate([np.arange(0)] + [np.arange(span.start, span.stop) for span in spans])
        offsets = np.cumsum([0] + [span.stop - span.start for span in spans])
        shared = gram(kept, self.index.features[positions], offsets, self.index.weights(self.weighting)[positions])
        shared.matrix.flags.writeable = False
        return shared


@dataclass(frozen=True)
class ScoringContext:
    """One (task, configuration) pair as a fitted linear layer.

    ``product`` holds ``rows.dot(W, values)``, one row per document in
    ``doc_ids`` and one column per class in ``class_ids``, so document i
    scores ``product[i] + b``; ``floored`` counts the probabilities clamped
    on the way.  `build_context` joins ``product`` from the entity and
    noise `ClassFit` cached in `TaskResources`.
    """

    config: ModelConfig
    class_ids: list[str]
    doc_ids: list[str]
    product: np.ndarray
    b: np.ndarray
    floored: int = 0


def build_context(task: Task, config: ModelConfig, resources: TaskResources | None = None) -> ScoringContext:
    """The fitted product and bias of one configuration.

    Resources built for another task or with other weighting options raise ValueError.
    """
    if resources is None:
        resources = TaskResources.from_task(task, config.features)
    else:
        resources.check(task, config.features)

    index = resources.index
    class_ids = list(index.entity_ids) + [NOISE_LABEL] * len(resources.noise_rows(config.features))
    if not class_ids:
        raise ValueError(f"task {task.name!r} has no entities and noise is disabled; nothing to assign to")

    entity, noise = resources.fits(config)
    b = np.zeros(len(class_ids))
    floored = entity.floored + noise.floored
    if config.model in (NB_BERNOULLI, NB_MULTINOMIAL):
        masses = np.concatenate([entity.masses, noise.masses])
        b, clamped = laplace_log_priors(masses, config.alpha, denominator=config.laplace_denominator)
        floored += int(clamped.sum())
    return ScoringContext(
        config=config,
        class_ids=class_ids,
        doc_ids=list(index.document_ids),
        product=np.hstack([entity.product, noise.product]),
        b=b,
        floored=floored,
    )


@dataclass(frozen=True, eq=False)
class Assignment:
    """Every document's class, with the full score matrix.

    Row i of ``matrix`` holds the scores of ``doc_ids[i]``, one column per
    class in ``class_ids``, and ``labels[i]`` is the column it is assigned
    to.  Two assignments are equal when these and ``floored`` are.

    ``floored`` counts probabilities clamped to ``PROB_FLOOR`` before their
    log was taken; only the Naive Bayes models can clamp.  Both count the
    priors they clamp.  Bernoulli also counts the clamped fit-time class
    probabilities: one per stored class weight and one per class for the
    value shared by its absent features.  Multinomial also counts the
    clamped (document, class, feature) events, one per distinct feature
    of each document and class.
    """

    doc_ids: list[str]
    class_ids: list[str]
    labels: np.ndarray
    matrix: np.ndarray
    floored: int = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        same = (self.doc_ids, self.class_ids, self.floored) == (other.doc_ids, other.class_ids, other.floored)
        return same and np.array_equal(self.labels, other.labels) and np.array_equal(self.matrix, other.matrix)

    @cached_property
    def mapping(self) -> Mapping[str, str]:
        """Read-only ``doc_id -> class_id``, built on first read."""
        return MappingProxyType(dict(zip(self.doc_ids, [self.class_ids[i] for i in self.labels.tolist()])))

    @cached_property
    def scores(self) -> Mapping[str, Mapping[str, float]]:
        """Read-only ``doc_id -> {class_id: score}``, built on first read."""
        return MappingProxyType({doc_id: MappingProxyType(row) for doc_id, row in self.scores_dict().items()})

    def to_tsv(self) -> str:
        """doc_id, assigned class, winning score; one row per document."""
        lines = ["doc_id\tassigned\tscore"]
        best = self.matrix[np.arange(len(self.labels)), self.labels].tolist()
        for doc_id, label, score in zip(self.doc_ids, self.labels.tolist(), best):
            lines.append(f"{tsv_cell(doc_id)}\t{tsv_cell(self.class_ids[label])}\t{score:.10g}")
        return "\n".join(lines) + "\n"

    def scores_dict(self) -> dict[str, dict[str, float]]:
        return {doc_id: dict(zip(self.class_ids, row)) for doc_id, row in zip(self.doc_ids, self.matrix.tolist())}


def assign_from_context(ctx: ScoringContext) -> Assignment:
    """Score every document and map it to its first highest-scoring class."""
    scores = ctx.product + ctx.b
    return Assignment(ctx.doc_ids, ctx.class_ids, scores.argmax(axis=1), scores, ctx.floored)


def map_documents(task: Task, config: ModelConfig, resources: TaskResources | None = None) -> Assignment:
    """Classify every document of ``task`` under ``config``."""
    return assign_from_context(build_context(task, config, resources))
