"""Clustering and classification quality metrics, per-task and aggregated.

Every metric reads one integer count table of predicted groups by gold labels, built by one
`np.bincount`: one per classification run (purity and NMI drop its NOISE column) and one per baseline
clustering.  Every float sum (entropies, mutual information, macro-F1, means over runs and tasks) is an
exactly rounded `math.fsum`, so no order of documents, groups, labels, runs or tasks moves a bit.  Gold
labels are a plain ``doc_id -> label`` mapping such as `Task.gold`.  Metric functions accept either the
library's dataclasses (Clustering, Assignment) or plain lists and mappings, so they are easy to call
from scripts and tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .baselines import Clustering
from .corpus import NOISE_LABEL, CorpusIntegrityError, Task, clustering_eval_filter, tsv_cell
from .models import Assignment

__all__ = [
    "TaskMetrics",
    "EvalReport",
    "purity",
    "nmi",
    "micro_macro_f1",
    "clustering_eval_filter",
    "evaluate_assignment",
    "evaluate_clusterings",
    "aggregate_metrics",
]


def _table(cells: list[int], n_rows: int, n_cols: int) -> list[list[int]]:
    """The ``n_rows`` x ``n_cols`` counts of the cell codes ``column * n_rows + row``, from one bincount."""
    counts = np.bincount(np.asarray(cells, dtype=np.intp), minlength=n_rows * n_cols)
    return counts.reshape(n_cols, n_rows).T.tolist()


def _cluster_tables(runs, gold: Mapping[str, str]) -> list[list[list[int]]]:
    """One table per clustering, gold labels coded once: row i counts the gold labels of cluster i's members."""
    labels: dict[str, int] = {}
    codes = {doc_id: labels.setdefault(label, len(labels)) for doc_id, label in gold.items()}
    tables = []
    for run in runs:
        clusters = run.clusters if isinstance(run, Clustering) else run
        n = len(clusters)
        try:
            cells = [codes[doc_id] * n + i for i, cluster in enumerate(clusters) for doc_id in cluster]
        except KeyError as exc:
            raise CorpusIntegrityError(f"document {exc.args[0]!r} has no gold label") from None
        if not cells:
            raise ValueError("cannot score an empty clustering")
        tables.append(_table(cells, n, len(labels)))
    return tables


def _assignment_table(assignment, gold: Mapping[str, str]) -> tuple[list[list[int]], dict[str, int]]:
    """Square table of assigned (rows) by gold (columns) class, ``class_ids`` then other gold labels; and their index."""
    if isinstance(assignment, Assignment):
        doc_ids, class_ids, rows = assignment.doc_ids, assignment.class_ids, assignment.labels.tolist()
    else:
        doc_ids, class_ids = list(assignment), list(dict.fromkeys(assignment.values()))
        rows = list(map(class_ids.index, assignment.values()))
    covered = set(doc_ids)
    for problem, ids in (("does not cover", gold.keys() - covered), ("covers unlabeled", covered - gold.keys())):
        if ids:
            raise CorpusIntegrityError(f"assignment {problem} documents {sorted(ids)!r}")
    if not doc_ids:
        raise ValueError("cannot score an empty assignment")
    index = {c: i for i, c in enumerate(dict.fromkeys([*class_ids, *gold.values()]))}
    n = len(index)
    cells = [index[gold[doc_id]] * n + row for doc_id, row in zip(doc_ids, rows)]
    return _table(cells, n, n), index


def _mean(values: list[float]) -> float:
    """Exactly rounded sum over count: no order of ``values`` moves a bit."""
    return math.fsum(values) / len(values)


def _entropy(sizes: list[int], total: int) -> float:
    return -math.fsum([(n / total) * math.log(n / total) for n in sizes if n])


def _purity(table: list[list[int]]) -> float:
    return sum(map(max, table)) / sum(map(sum, table))


def _nmi(table: list[list[int]]) -> float:
    cluster_sizes, class_sizes = list(map(sum, table)), list(map(sum, zip(*table)))
    total = sum(cluster_sizes)
    h_clusters, h_classes = _entropy(cluster_sizes, total), _entropy(class_sizes, total)
    if h_clusters + h_classes == 0.0:
        return 1.0
    mutual = math.fsum(
        (n / total) * math.log(total * n / (size * m))
        for row, size in zip(table, cluster_sizes) for n, m in zip(row, class_sizes) if n
    )
    # Clamp float noise so the documented [0,1] range is exact.
    return min(1.0, max(0.0, mutual) / ((h_clusters + h_classes) / 2.0))


def _micro_macro_f1(table: list[list[int]]) -> tuple[float, float]:
    """F1 over the classes some document's gold label names, from a square table."""
    predicted, gold = list(map(sum, table)), list(map(sum, zip(*table)))
    # (TP, FP, FN) per class
    counts = [(table[c][c], predicted[c] - table[c][c], n - table[c][c]) for c, n in enumerate(gold) if n]

    def f1(t: int, p: int, n: int) -> float:
        return 2.0 * t / (2.0 * t + p + n) if t else 0.0

    return f1(*map(sum, zip(*counts))), _mean([f1(*c) for c in counts])


def purity(clusters, gold) -> float:
    """Fraction of documents that belong to their cluster's majority class."""
    return _purity(*_cluster_tables([clusters], gold))


def nmi(clusters, gold) -> float:
    """Mutual information normalized by the mean of the two entropies.

    Natural logarithms throughout.  Two degenerate cases are pinned: when
    both partitions are trivial (one cluster, one class) the score is 1.0,
    and when the mutual information is 0 the score is 0.0.
    """
    return _nmi(*_cluster_tables([clusters], gold))


def micro_macro_f1(assignment, gold) -> tuple[float, float]:
    """Pooled and unweighted-mean F1 over the gold-present classes.

    The class universe is every entity id used in gold plus NOISE when
    gold uses it.  Predictions outside the universe still count as false
    negatives for the document's gold class.  A class with precision +
    recall = 0 contributes F1 = 0.  Micro-F1 pools TP/FP/FN over the
    universe.
    """
    return _micro_macro_f1(_assignment_table(assignment, gold)[0])


@dataclass
class TaskMetrics:
    """Metric values for one task; None marks a metric that does not apply."""

    purity: float | None = None
    nmi: float | None = None
    micro_f1: float | None = None
    macro_f1: float | None = None
    f1_bar: float | None = None


METRIC_COLUMNS = tuple(f.name for f in fields(TaskMetrics))
# The header of every metrics TSV table; `EvalReport.tsv_rows` writes its rows.
TSV_HEADER = "task\tmodel\tnoise\t" + "\t".join(METRIC_COLUMNS)


def evaluate_assignment(task: Task, assignment: Assignment) -> TaskMetrics:
    """Score one classification run on one task.

    F1 metrics cover every document.  Purity and NMI follow the clustering
    protocol: documents with a NOISE gold label are dropped, the rest are
    grouped by assigned class into anonymous clusters, and the grouping is
    compared with the gold partition.  With no entity-labeled documents
    the clustering metrics stay None; an empty task leaves every metric
    None.
    """
    if not task.documents:
        return TaskMetrics()
    table, index = _assignment_table(assignment, task.gold)
    micro, macro = _micro_macro_f1(table)
    metrics = TaskMetrics(micro_f1=micro, macro_f1=macro, f1_bar=(micro + macro) / 2.0)
    noise = index.get(NOISE_LABEL)
    kept = table if noise is None else [row[:noise] + row[noise + 1 :] for row in table]
    if any(map(any, kept)):
        metrics.purity, metrics.nmi = _purity(kept), _nmi(kept)
    return metrics


def evaluate_clusterings(task: Task, runs: Sequence[Clustering]) -> TaskMetrics:
    """Purity and NMI of a baseline on one task: `math.fsum` means over ``runs``, so no run order moves a bit.

    Each run's one count table gives both; the runs cluster the documents `clustering_eval_filter` keeps.
    """
    if not runs:
        raise ValueError("cannot score an empty list of clusterings")
    tables = _cluster_tables(runs, task.gold)
    return TaskMetrics(purity=_mean([_purity(t) for t in tables]), nmi=_mean([_nmi(t) for t in tables]))


def aggregate_metrics(per_task: Mapping[str, TaskMetrics]) -> TaskMetrics:
    """Unweighted `math.fsum` means over tasks, skipping None values per column; task order moves no bit."""
    out = TaskMetrics()
    for column in METRIC_COLUMNS:
        values = [getattr(m, column) for m in per_task.values() if getattr(m, column) is not None]
        if values:
            setattr(out, column, _mean(values))
    return out


@dataclass
class EvalReport:
    """Per-task and aggregate metrics for one configuration cell."""

    model: str
    noise: str
    per_task: dict[str, TaskMetrics]
    aggregate: TaskMetrics
    config: dict[str, object]

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

    def tsv_rows(self) -> list[str]:
        """One row under `TSV_HEADER` per task, in task order, then the ``aggregate`` row."""
        rows = []
        for name, metrics in [*self.per_task.items(), ("aggregate", self.aggregate)]:
            cells = [tsv_cell(name), tsv_cell(self.model), tsv_cell(self.noise)]
            values = [getattr(metrics, column) for column in METRIC_COLUMNS]
            cells += ["" if value is None else f"{value:.6f}" for value in values]
            rows.append("\t".join(cells))
        return rows

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "noise": self.noise,
            "config": self.config,
            "per_task": {name: asdict(metrics) for name, metrics in self.per_task.items()},
            "aggregate": asdict(self.aggregate),
        }
