"""Clustering and classification quality metrics, per-task and aggregated.

Every metric reads one contingency table of (predicted, gold) pairs, so
`evaluate_assignment` builds two tables per classification run (F1; purity
and NMI) and `evaluate_clusterings` one per baseline clustering.  Gold
labels are a plain ``doc_id -> label`` mapping such as `Task.gold`.
Metric functions accept either the library's dataclasses (Clustering,
Assignment) or plain lists and mappings, so they are easy to call from
scripts and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from .baselines import Clustering
from .corpus import NOISE_LABEL, CorpusIntegrityError, Task, clustering_eval_filter, tsv_cell
from .models import Assignment

__all__ = [
    "TaskMetrics",
    "EvalReport",
    "purity",
    "nmi",
    "micro_macro_f1",
    "f1_bar",
    "clustering_eval_filter",
    "evaluate_assignment",
    "evaluate_clusterings",
    "aggregate_metrics",
]

METRIC_COLUMNS = ("purity", "nmi", "micro_f1", "macro_f1", "f1_bar")


def _contingency(pairs: Iterable[tuple[object, str]]) -> dict[object, dict[str, int]]:
    """Gold-label counts per predicted group: groups, and labels within one, in first-seen order."""
    table: dict[object, dict[str, int]] = {}
    for predicted, label in pairs:
        row = table.setdefault(predicted, {})
        row[label] = row.get(label, 0) + 1
    return table


def _cluster_pairs(clusters, gold: Mapping[str, str]) -> Iterable[tuple[int, str]]:
    """(cluster index, gold label) per member; raises on unlabeled documents."""
    for i, cluster in enumerate(clusters.clusters if isinstance(clusters, Clustering) else clusters):
        for doc_id in cluster:
            if doc_id not in gold:
                raise CorpusIntegrityError(f"document {doc_id!r} has no gold label")
            yield i, gold[doc_id]


def _assigned_pairs(assignment, gold: Mapping[str, str]) -> list[tuple[str, str]]:
    """(assigned class, gold label) per document, in assignment order; coverage must be exact."""
    if isinstance(assignment, Assignment):
        doc_ids, assigned = assignment.doc_ids, [assignment.class_ids[i] for i in assignment.labels.tolist()]
    else:
        doc_ids, assigned = list(assignment), list(assignment.values())
    covered = set(doc_ids)
    if gold.keys() - covered:
        raise CorpusIntegrityError(f"assignment does not cover documents {sorted(gold.keys() - covered)!r}")
    if covered - gold.keys():
        raise CorpusIntegrityError(f"assignment covers unlabeled documents {sorted(covered - gold.keys())!r}")
    return [(predicted, gold[doc_id]) for doc_id, predicted in zip(doc_ids, assigned)]


def _purity(table: Mapping[object, dict[str, int]]) -> float:
    if not table:
        raise ValueError("cannot score an empty clustering")
    return sum(max(row.values()) for row in table.values()) / sum(sum(row.values()) for row in table.values())


def _nmi(table: Mapping[object, dict[str, int]]) -> float:
    if not table:
        raise ValueError("cannot score an empty clustering")
    cluster_sizes = [sum(row.values()) for row in table.values()]
    total = sum(cluster_sizes)
    class_sizes: dict[str, int] = {}
    for row in table.values():
        for label, n in row.items():
            class_sizes[label] = class_sizes.get(label, 0) + n

    h_clusters = -sum((n / total) * math.log(n / total) for n in cluster_sizes)
    h_classes = -sum((n / total) * math.log(n / total) for n in class_sizes.values())
    if h_clusters + h_classes == 0.0:
        return 1.0

    mutual = 0.0
    for row, size in zip(table.values(), cluster_sizes):
        for label, n in row.items():
            mutual += (n / total) * math.log(total * n / (size * class_sizes[label]))
    if mutual <= 0.0:
        return 0.0
    # Clamp float noise so the documented [0,1] range is exact.
    return min(1.0, mutual / ((h_clusters + h_classes) / 2.0))


def _micro_macro_f1(table: Mapping[object, dict[str, int]]) -> tuple[float, float]:
    classes = sorted({label for row in table.values() for label in row})
    if not classes:
        raise ValueError("cannot score an empty assignment")
    tp: dict[str, int] = {c: 0 for c in classes}
    fp: dict[str, int] = {c: 0 for c in classes}
    fn: dict[str, int] = {c: 0 for c in classes}
    for predicted, row in table.items():
        for label, n in row.items():
            if predicted == label:
                tp[label] += n
            else:
                fn[label] += n
                if predicted in fp:
                    fp[predicted] += n

    def f1(t: int, p: int, n: int) -> float:
        return 2.0 * t / (2.0 * t + p + n) if t else 0.0

    macro = sum(f1(tp[c], fp[c], fn[c]) for c in classes) / len(classes)
    micro = f1(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    return micro, macro


def purity(clusters, gold) -> float:
    """Fraction of documents that belong to their cluster's majority class."""
    return _purity(_contingency(_cluster_pairs(clusters, gold)))


def nmi(clusters, gold) -> float:
    """Mutual information normalized by the mean of the two entropies.

    Natural logarithms throughout.  Two degenerate cases are pinned: when
    both partitions are trivial (one cluster, one class) the score is 1.0,
    and when the mutual information is 0 the score is 0.0.
    """
    return _nmi(_contingency(_cluster_pairs(clusters, gold)))


def micro_macro_f1(assignment, gold) -> tuple[float, float]:
    """Pooled and unweighted-mean F1 over the gold-present classes.

    The class universe is every entity id used in gold plus NOISE when
    gold uses it.  Predictions outside the universe still count as false
    negatives for the document's gold class.  A class with precision +
    recall = 0 contributes F1 = 0.  Micro-F1 pools TP/FP/FN over the
    universe.
    """
    return _micro_macro_f1(_contingency(_assigned_pairs(assignment, gold)))


def f1_bar(micro_macro_pairs: Iterable[tuple[float, float]]) -> float:
    """Mean over tasks of (micro + macro) / 2."""
    pairs = list(micro_macro_pairs)
    if not pairs:
        raise ValueError("f1_bar needs at least one task")
    return sum((micro + macro) / 2.0 for micro, macro in pairs) / len(pairs)


@dataclass
class TaskMetrics:
    """Metric values for one task; None marks a metric that does not apply."""

    purity: float | None = None
    nmi: float | None = None
    micro_f1: float | None = None
    macro_f1: float | None = None
    f1_bar: float | None = None

    def as_dict(self) -> dict[str, float | None]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def evaluate_assignment(task: Task, assignment: Assignment) -> TaskMetrics:
    """Score one classification run on one task.

    F1 metrics cover every document.  Purity and NMI follow the clustering
    protocol: documents with a NOISE gold label are dropped, the rest are
    grouped by assigned class into anonymous clusters, and the grouping is
    compared with the gold partition.  With no entity-labeled documents
    the clustering metrics stay None; an empty task leaves every metric
    None.
    """
    metrics = TaskMetrics()
    if not task.documents:
        return metrics
    pairs = _assigned_pairs(assignment, task.gold)
    micro, macro = _micro_macro_f1(_contingency(pairs))
    metrics.micro_f1, metrics.macro_f1 = micro, macro
    metrics.f1_bar = (micro + macro) / 2.0
    kept = _contingency(pair for pair in pairs if pair[1] != NOISE_LABEL)
    if kept:
        metrics.purity, metrics.nmi = _purity(kept), _nmi(kept)
    return metrics


def evaluate_clusterings(task: Task, runs: Sequence[Clustering]) -> TaskMetrics:
    """Purity and NMI of a baseline on one task: means over ``runs``, in run order.

    Each run's one contingency table gives both metrics; the runs cluster
    the documents `clustering_eval_filter` keeps.
    """
    tables = [_contingency(_cluster_pairs(run, task.gold)) for run in runs]
    return TaskMetrics(
        purity=sum(_purity(table) for table in tables) / len(tables),
        nmi=sum(_nmi(table) for table in tables) / len(tables),
    )


def aggregate_metrics(per_task: Mapping[str, TaskMetrics]) -> TaskMetrics:
    """Unweighted means over tasks, skipping None values per column."""
    out = TaskMetrics()
    for column in METRIC_COLUMNS:
        values = [getattr(m, column) for m in per_task.values() if getattr(m, column) is not None]
        if values:
            setattr(out, column, sum(values) / len(values))
    return out


@dataclass
class EvalReport:
    """Per-task and aggregate metrics for one configuration cell."""

    model: str
    noise: str
    per_task: dict[str, TaskMetrics]
    aggregate: TaskMetrics
    config: dict[str, object]

    AGGREGATE_ROW = "aggregate"

    @classmethod
    def build(cls, model: str, noise: str, per_task: Mapping[str, TaskMetrics], config: Mapping[str, object]) -> "EvalReport":
        ordered = {name: per_task[name] for name in sorted(per_task)}
        return cls(
            model=model,
            noise=noise,
            per_task=ordered,
            aggregate=aggregate_metrics(ordered),
            config=dict(config),
        )

    def _rows(self) -> list[tuple[str, TaskMetrics]]:
        return list(self.per_task.items()) + [(self.AGGREGATE_ROW, self.aggregate)]

    def to_tsv(self) -> str:
        lines = ["task\tmodel\tnoise\t" + "\t".join(METRIC_COLUMNS)]
        for name, metrics in self._rows():
            cells = [tsv_cell(name), tsv_cell(self.model), tsv_cell(self.noise)]
            for column in METRIC_COLUMNS:
                value = getattr(metrics, column)
                cells.append("" if value is None else f"{value:.6f}")
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "noise": self.noise,
            "config": self.config,
            "per_task": {name: metrics.as_dict() for name, metrics in self.per_task.items()},
            "aggregate": self.aggregate.as_dict(),
        }
