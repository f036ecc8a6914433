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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import NOISE_LABEL, Task, tsv_cell
from .features import (
    ConfigError,
    FeatureConfig,
    FeatureIndex,
    FeatureVector,
    NoiseProfile,
    build_index,
    build_noise_profile,
    vectorize,
)

__all__ = [
    "MODELS",
    "ModelConfig",
    "Assignment",
    "DocumentRows",
    "TaskArrays",
    "TaskResources",
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


def _dense(vectors: Sequence[Mapping[int, float]], width: int) -> np.ndarray:
    """Sparse vectors as the rows of a dense ``len(vectors) x width`` matrix."""
    out = np.zeros((len(vectors), width))
    for row, vector in zip(out, vectors):
        row[list(vector)] = list(vector.values())
    return out


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
        out = np.zeros(values.shape[:-1] + (len(self.offsets) - 1,))
        nonempty = self.sizes > 0
        # reduceat misreads empty segments, so only nonempty ones are reduced;
        # together they cover every stored position.
        if nonempty.any():
            out[..., nonempty] = np.add.reduceat(values, self.offsets[:-1][nonempty], axis=-1)
        return out

    def unit(self) -> np.ndarray:
        """tf-idf weights scaled to unit L2 length per document; all-zero rows stay zero."""
        return self.tfidf * np.repeat(_inverse(np.sqrt(self.per_document(self.tfidf**2))), self.sizes)

    def l1(self) -> np.ndarray:
        """tf-idf weights scaled so their absolute values sum to 1 per document."""
        return self.tfidf * np.repeat(_inverse(self.per_document(np.abs(self.tfidf))), self.sizes)

    def dot(self, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Documents x classes: rows holding ``values`` at their positions, dotted with each row of ``weights``."""
        gathered = np.take(weights, self.indices, axis=1)
        gathered *= values
        return self.per_document(gathered).T


def smoothed_profile(entities: np.ndarray, rows: DocumentRows) -> np.ndarray:
    """Entity profiles pulled toward documents by cosine-weighted mixing.

    Row e of the result starts from entity row e, L1-normalized, and adds,
    for every document, its L1-normalized tf-idf row scaled by the cosine
    between the raw entity and document rows.  Every document contributes,
    including the one later being scored.
    """
    k, width = entities.shape
    sims = rows.dot(unit_rows(entities), rows.unit())
    pulled = np.repeat(sims, rows.sizes, axis=0).T * rows.l1()
    # One weighted bincount over (class, feature) cells adds every pull.
    cells = (np.arange(k)[:, None] * width + rows.indices).ravel()
    mixed = np.bincount(cells, weights=pulled.ravel(), minlength=k * width).reshape(k, width)
    l1_entities = entities * _inverse(np.abs(entities).sum(axis=1))[:, None]
    return l1_entities + mixed


def multinomial_log_coefficient(freqs: Mapping[int, int]) -> float:
    """log(|d|! / prod_f freq(f,d)!), the term the multinomial model drops."""
    total = sum(freqs.values())
    return math.lgamma(total + 1) - sum(math.lgamma(n + 1) for n in freqs.values())


def floored_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Natural log with entries <= 0 clamped to PROB_FLOOR, and the clamp mask."""
    clamped = p <= 0.0
    return np.log(np.where(clamped, PROB_FLOOR, p)), clamped


def laplace_log_priors(
    masses: np.ndarray, alpha: float, *, denominator: str = "paper"
) -> tuple[np.ndarray, np.ndarray]:
    """Additively smoothed log priors from per-class weight masses.

    The denominator pools the weight mass of every class being scored and
    adds ``alpha`` once (``paper``) or once per class (``per_feature``).
    Returns the log priors and their clamp mask.
    """
    extra = alpha if denominator == "paper" else alpha * len(masses)
    return floored_log((masses + alpha) / (masses.sum() + extra))


def bernoulli_log_probs(profiles: np.ndarray, alpha: float, *, denominator: str = "paper") -> tuple[np.ndarray, int]:
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
    logs, clamped = floored_log((profiles + alpha) / denom[:, None])
    floored = (clamped & (profiles != 0.0)).sum() + (alpha / denom <= 0.0).sum()
    return logs, int(floored)


def jelinek_mercer_log_probs(ml: np.ndarray, background: np.ndarray, jm_lambda: float) -> tuple[np.ndarray, np.ndarray]:
    """log((1 - lambda) * ml + lambda * background) per class and feature, and the clamp mask."""
    return floored_log((1.0 - jm_lambda) * ml + jm_lambda * background)


@dataclass(frozen=True)
class TaskArrays:
    """One task's scoring inputs as arrays over its F indexed features.

    ``entities`` holds the tf-idf rows and ``ml`` the maximum-likelihood
    token distributions of the k entities (k x F); ``background`` is the
    corpus-wide relative token frequency over documents and entities.
    """

    rows: DocumentRows
    entities: np.ndarray
    ml: np.ndarray
    background: np.ndarray

    @classmethod
    def build(cls, resources: "TaskResources") -> "TaskArrays":
        """Slices of the index arrays: document rows first, then the entity rows."""
        index = resources.index
        weights = index.weights(FeatureConfig(idf_numerator=resources.idf_numerator, log_base=resources.log_base))
        n_docs, width = len(index.document_ids), index.feature_count
        split = int(index.offsets[n_docs])
        rows = DocumentRows(
            indices=index.features[:split],
            offsets=index.offsets[: n_docs + 1],
            tfidf=weights[:split],
            counts=index.counts[:split],
        )
        cells = (
            np.repeat(np.arange(len(index.entity_ids)), np.diff(index.offsets[n_docs:])),
            index.features[split:],
        )
        entities = np.zeros((len(index.entity_ids), width))
        entities[cells] = weights[split:]
        entity_counts = np.zeros_like(entities)
        entity_counts[cells] = index.counts[split:]
        # Counts are integers, so these sums are exact in any order.
        feature_totals = np.bincount(index.features, weights=index.counts, minlength=width)
        grand_total = int(index.counts.sum())
        return cls(
            rows=rows,
            entities=entities,
            ml=entity_counts * _inverse(entity_counts.sum(axis=1))[:, None],
            background=feature_totals / grand_total if grand_total else feature_totals,
        )


@dataclass
class TaskResources:
    """Feature artifacts one task shares across model configurations.

    Everything here depends only on the weighting options (idf numerator
    and log base), never on the model or noise choice, so a configuration
    grid can reuse one instance per task.  The scoring arrays and smoothed
    profiles are built on first use.
    """

    task: Task
    index: FeatureIndex
    idf_numerator: str
    log_base: str
    doc_vectors: dict[str, FeatureVector]
    _noise: dict[tuple[str, str], NoiseProfile | None] = field(default_factory=dict)
    _arrays: TaskArrays | None = None
    _smoothed: np.ndarray | None = None

    @classmethod
    def from_task(cls, task: Task, config: FeatureConfig) -> "TaskResources":
        index = build_index(task)
        return cls(
            task=task,
            index=index,
            idf_numerator=config.idf_numerator,
            log_base=config.log_base,
            doc_vectors={d.id: vectorize(d.id, index, config) for d in task.documents},
        )

    def matches(self, config: FeatureConfig) -> bool:
        return config.idf_numerator == self.idf_numerator and config.log_base == self.log_base

    def noise_profile(self, config: FeatureConfig) -> NoiseProfile | None:
        key = (config.noise, config.intersection_semantics)
        if key not in self._noise:
            self._noise[key] = build_noise_profile(self.index, config)
        return self._noise[key]

    def arrays(self) -> TaskArrays:
        if self._arrays is None:
            self._arrays = TaskArrays.build(self)
        return self._arrays

    def smoothed_profiles(self) -> np.ndarray:
        if self._smoothed is None:
            arrays = self.arrays()
            self._smoothed = smoothed_profile(arrays.entities, arrays.rows)
        return self._smoothed


@dataclass
class ScoringContext:
    """One (task, configuration) pair as a linear layer over document rows.

    Document i scores ``rows.dot(W, values)[i] + b`` against ``class_ids``;
    ``floored`` counts the probabilities clamped on the way.
    """

    config: ModelConfig
    class_ids: list[str]
    doc_ids: list[str]
    rows: DocumentRows
    values: np.ndarray
    W: np.ndarray
    b: np.ndarray
    floored: int = 0


def build_context(task: Task, config: ModelConfig, resources: TaskResources | None = None) -> ScoringContext:
    """The class matrix, bias and document row values of one configuration."""
    if resources is None:
        resources = TaskResources.from_task(task, config.features)
    elif not resources.matches(config.features):
        raise ValueError("resources were built with different weighting options")

    index = resources.index
    noise = resources.noise_profile(config.features)
    class_ids = list(index.entity_ids) + ([NOISE_LABEL] if noise is not None else [])
    if not class_ids:
        raise ValueError(f"task {task.name!r} has no entities and noise is disabled; nothing to assign to")

    arrays = resources.arrays()
    rows = arrays.rows
    # The noise profile is uniform over its feature set, so it serves both
    # as the noise class's weight row and as its token distribution.
    noise_rows = _dense([noise.vector] if noise is not None else [], index.feature_count)
    profiles = np.vstack([arrays.entities, noise_rows])
    values = rows.tfidf
    b = np.zeros(len(class_ids))
    floored = 0
    model = config.model
    if model == COSINE:
        W, values = unit_rows(profiles), rows.unit()
    elif model == SCORE:
        W = profiles
    elif model == SCORE_SMOOTHED:
        W = np.vstack([resources.smoothed_profiles(), noise_rows])
    else:
        b, clamped = laplace_log_priors(profiles.sum(axis=1), config.alpha, denominator=config.laplace_denominator)
        floored = int(clamped.sum())
        if model == NB_BERNOULLI:
            W, fit_floored = bernoulli_log_probs(profiles, config.alpha, denominator=config.laplace_denominator)
            values = np.ones_like(rows.counts)
            floored += fit_floored
        else:
            ml = np.vstack([arrays.ml, noise_rows])
            W, clamped = jelinek_mercer_log_probs(ml, arrays.background, config.jm_lambda)
            values = rows.counts
            floored += int(clamped.sum(axis=0)[rows.indices].sum())
    return ScoringContext(
        config=config,
        class_ids=class_ids,
        doc_ids=list(index.document_ids),
        rows=rows,
        values=values,
        W=W,
        b=b,
        floored=floored,
    )


@dataclass
class Assignment:
    """Mapping of every document to a class, with the full score matrix.

    ``floored`` counts probabilities clamped to ``PROB_FLOOR`` before their
    log was taken; only the Naive Bayes models can clamp.  Both count the
    priors they clamp.  Bernoulli also counts the clamped fit-time class
    probabilities: one per stored class weight and one per class for the
    value shared by its absent features.  Multinomial also counts the
    clamped (document, class, feature) events, one per distinct feature
    of each document and class.
    """

    mapping: dict[str, str]
    scores: dict[str, dict[str, float]]
    floored: int = 0

    def to_tsv(self) -> str:
        """doc_id, assigned class, winning score; one row per document."""
        lines = ["doc_id\tassigned\tscore"]
        for doc_id, assigned in self.mapping.items():
            lines.append(f"{tsv_cell(doc_id)}\t{tsv_cell(assigned)}\t{self.scores[doc_id][assigned]:.10g}")
        return "\n".join(lines) + "\n"

    def scores_dict(self) -> dict[str, dict[str, float]]:
        return {doc_id: dict(row) for doc_id, row in self.scores.items()}


def assign_from_context(ctx: ScoringContext) -> Assignment:
    """Score every document and map it to its first highest-scoring class."""
    scores = ctx.rows.dot(ctx.W, ctx.values) + ctx.b
    best = scores.argmax(axis=1).tolist()
    return Assignment(
        mapping={doc_id: ctx.class_ids[i] for doc_id, i in zip(ctx.doc_ids, best)},
        scores={doc_id: dict(zip(ctx.class_ids, row)) for doc_id, row in zip(ctx.doc_ids, scores.tolist())},
        floored=ctx.floored,
    )


def map_documents(task: Task, config: ModelConfig, resources: TaskResources | None = None) -> Assignment:
    """Classify every document of ``task`` under ``config``."""
    return assign_from_context(build_context(task, config, resources))
