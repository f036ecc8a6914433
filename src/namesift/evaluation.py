"""Clustering and classification quality metrics, per-task and aggregated.

Metric functions accept either the library's dataclasses (Clustering,
Assignment, GoldAlignment) or plain lists and mappings, so they are easy
to call from scripts and tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping

from .baselines import Clustering, assignment_to_clusters
from .corpus import NOISE_LABEL, CorpusIntegrityError, GoldAlignment, Task, tsv_cell
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
    "aggregate_metrics",
]

METRIC_COLUMNS = ("purity", "nmi", "micro_f1", "macro_f1", "f1_bar")


def _cluster_lists(clusters) -> list[list[str]]:
    if isinstance(clusters, Clustering):
        return [list(c) for c in clusters.clusters]
    return [list(c) for c in clusters]


def _label_map(gold) -> Mapping[str, str]:
    if isinstance(gold, GoldAlignment):
        return gold.labels
    return gold


def _contingency(clusters: list[list[str]], labels: Mapping[str, str]) -> tuple[list[dict[str, int]], int]:
    """Per-cluster gold-class counts; raises on unlabeled documents."""
    table: list[dict[str, int]] = []
    total = 0
    for cluster in clusters:
        row: dict[str, int] = {}
        for doc_id in cluster:
            if doc_id not in labels:
                raise CorpusIntegrityError(f"document {doc_id!r} has no gold label")
            label = labels[doc_id]
            row[label] = row.get(label, 0) + 1
            total += 1
        table.append(row)
    return table, total


def purity(clusters, gold) -> float:
    """Fraction of documents that belong to their cluster's majority class."""
    table, total = _contingency(_cluster_lists(clusters), _label_map(gold))
    if total == 0:
        raise ValueError("cannot score an empty clustering")
    return sum(max(row.values()) for row in table if row) / total


def nmi(clusters, gold) -> float:
    """Mutual information normalized by the mean of the two entropies.

    Natural logarithms throughout.  Two degenerate cases are pinned: when
    both partitions are trivial (one cluster, one class) the score is 1.0,
    and when the mutual information is 0 the score is 0.0.
    """
    table, total = _contingency(_cluster_lists(clusters), _label_map(gold))
    if total == 0:
        raise ValueError("cannot score an empty clustering")

    cluster_sizes = [sum(row.values()) for row in table]
    class_sizes: dict[str, int] = {}
    for row in table:
        for label, n in row.items():
            class_sizes[label] = class_sizes.get(label, 0) + n

    h_clusters = -sum((n / total) * math.log(n / total) for n in cluster_sizes if n)
    h_classes = -sum((n / total) * math.log(n / total) for n in class_sizes.values())
    if h_clusters + h_classes == 0.0:
        return 1.0

    mutual = 0.0
    for row, size in zip(table, cluster_sizes):
        for label, n in row.items():
            mutual += (n / total) * math.log(total * n / (size * class_sizes[label]))
    if mutual <= 0.0:
        return 0.0
    # Clamp float noise so the documented [0,1] range is exact.
    return min(1.0, mutual / ((h_clusters + h_classes) / 2.0))


def micro_macro_f1(assignment, gold) -> tuple[float, float]:
    """Pooled and unweighted-mean F1 over the gold-present classes.

    The class universe is every entity id used in gold plus NOISE when
    gold uses it.  Predictions outside the universe still count as false
    negatives for the document's gold class.  A class with precision +
    recall = 0 contributes F1 = 0.  Micro-F1 pools TP/FP/FN over the
    universe.
    """
    labels = _label_map(gold)
    mapping = assignment.mapping if isinstance(assignment, Assignment) else assignment
    missing = [doc_id for doc_id in labels if doc_id not in mapping]
    if missing:
        raise CorpusIntegrityError(f"assignment does not cover documents {sorted(missing)!r}")
    extra = [doc_id for doc_id in mapping if doc_id not in labels]
    if extra:
        raise CorpusIntegrityError(f"assignment covers unlabeled documents {sorted(extra)!r}")

    classes = sorted(set(labels.values()))
    if not classes:
        raise ValueError("cannot score an empty assignment")
    tp: dict[str, int] = {c: 0 for c in classes}
    fp: dict[str, int] = {c: 0 for c in classes}
    fn: dict[str, int] = {c: 0 for c in classes}
    for doc_id, true_label in labels.items():
        predicted = mapping[doc_id]
        if predicted == true_label:
            tp[true_label] += 1
        else:
            fn[true_label] += 1
            if predicted in fp:
                fp[predicted] += 1

    def f1(t: int, p: int, n: int) -> float:
        return 2.0 * t / (2.0 * t + p + n) if t else 0.0

    macro = sum(f1(tp[c], fp[c], fn[c]) for c in classes) / len(classes)
    micro = f1(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    return micro, macro


def f1_bar(micro_macro_pairs: Iterable[tuple[float, float]]) -> float:
    """Mean over tasks of (micro + macro) / 2."""
    pairs = list(micro_macro_pairs)
    if not pairs:
        raise ValueError("f1_bar needs at least one task")
    return sum((micro + macro) / 2.0 for micro, macro in pairs) / len(pairs)


def clustering_eval_filter(task: Task) -> list[str]:
    """Documents whose gold label is a real entity, in task order."""
    return [d.id for d in task.documents if task.gold.labels[d.id] != NOISE_LABEL]


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
    if task.documents:
        micro, macro = micro_macro_f1(assignment, task.gold)
        metrics.micro_f1, metrics.macro_f1 = micro, macro
        metrics.f1_bar = (micro + macro) / 2.0
    kept = clustering_eval_filter(task)
    if kept:
        clusters = assignment_to_clusters(assignment.mapping, kept)
        subset = {doc_id: task.gold.labels[doc_id] for doc_id in kept}
        metrics.purity = purity(clusters, subset)
        metrics.nmi = nmi(clusters, subset)
    return metrics


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"
