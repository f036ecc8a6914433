"""Experiment driver: corpus validation, configuration grids, baselines.

`run_grid` evaluates a model x noise-mode grid plus optional clustering
baselines over a corpus directory and returns one report per cell.  Cells
share per-task feature artifacts but never intermediate results, so a
grid cell always equals the same configuration run alone.  All outputs
are deterministically ordered by task name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .baselines import Clustering, hac_complete, run_repetitions
from .corpus import (
    CorpusFormatError,
    CorpusIntegrityError,
    Task,
    discover_tasks,
    load_task,
)
from .evaluation import EvalReport, TaskMetrics, clustering_eval_filter, evaluate_assignment, nmi, purity
from .features import NOISE_MODES, FeatureConfig
from .features import build_index, vectorize  # noqa: F401  (kept importable here: perfbench's tracer wraps them in this module)
from .models import MODELS, Assignment, ModelConfig, TaskResources, map_documents

__all__ = [
    "RunSpec",
    "GridResult",
    "TaskValidation",
    "run_grid",
    "classification_report",
    "baseline_report",
    "task_clusterings",
    "validate_corpus",
    "grid_tsv",
    "grid_json_dict",
    "pivot_tsv",
]

@dataclass
class RunSpec:
    """Everything one experiment run depends on.

    Feature and model settings default to the `FeatureConfig` and
    `ModelConfig` defaults.
    """

    corpus_root: Path
    tasks: Sequence[str] | None = None
    models: Sequence[str] = MODELS
    noise_modes: Sequence[str] = NOISE_MODES
    hac: bool = False
    kmeans: bool = False
    reps: int = 10
    idf_numerator: str = FeatureConfig.idf_numerator
    log_base: str = FeatureConfig.log_base
    intersection_semantics: str = FeatureConfig.intersection_semantics
    alpha: float = ModelConfig.alpha
    jm_lambda: float = ModelConfig.jm_lambda
    laplace_denominator: str = ModelConfig.laplace_denominator
    strip_markup: bool = False
    stopwords: frozenset[str] | None = None

    def __post_init__(self) -> None:
        self.corpus_root = Path(self.corpus_root)
        if not (self.models or self.hac or self.kmeans):
            raise ValueError("select at least one model or baseline")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")

    def feature_config(self, noise: str = "none") -> FeatureConfig:
        return FeatureConfig(
            idf_numerator=self.idf_numerator,
            log_base=self.log_base,
            noise=noise,
            intersection_semantics=self.intersection_semantics,
        )

    def model_config(self, model: str, noise: str) -> ModelConfig:
        return ModelConfig(
            model=model,
            alpha=self.alpha,
            jm_lambda=self.jm_lambda,
            laplace_denominator=self.laplace_denominator,
            features=self.feature_config(noise),
        )

    def fingerprint(self, **overrides) -> dict[str, object]:
        base: dict[str, object] = {
            "idf_numerator": self.idf_numerator,
            "log_base": self.log_base,
            "intersection_semantics": self.intersection_semantics,
            "alpha": self.alpha,
            "lambda": self.jm_lambda,
            "laplace_denominator": self.laplace_denominator,
        }
        base.update(overrides)
        return base


@dataclass
class GridResult:
    """All reports from one run plus the tasks that could not load.

    ``assignments`` maps (model, noise) to task name to assignment, and
    ``clusterings`` maps a baseline to task name to its clusterings.
    """

    reports: list[EvalReport]
    task_names: list[str]
    skipped: list[tuple[str, str]] = field(default_factory=list)
    assignments: dict[tuple[str, str], dict[str, Assignment]] = field(default_factory=dict)
    clusterings: dict[str, dict[str, list[Clustering]]] = field(default_factory=dict)


def load_tasks(spec: RunSpec) -> tuple[list[Task], list[tuple[str, str]]]:
    """Load, filter, and name-sort the corpus; broken tasks are skipped.

    Returns the loadable tasks sorted by task name and a list of
    (directory, reason) pairs for tasks that failed to load.
    """
    tasks: list[Task] = []
    skipped: list[tuple[str, str]] = []
    for path in discover_tasks(spec.corpus_root):
        try:
            tasks.append(load_task(path, strip_markup=spec.strip_markup, stopwords=spec.stopwords))
        except (CorpusFormatError, CorpusIntegrityError) as exc:
            skipped.append((str(path), str(exc)))
    if spec.tasks is not None:
        wanted = set(spec.tasks)
        tasks = [t for t in tasks if t.name in wanted]
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise CorpusIntegrityError(f"duplicate task names across directories: {duplicates!r}")
    tasks.sort(key=lambda t: t.name)
    return tasks, skipped


def classification_report(
    tasks: Sequence[Task],
    config: ModelConfig,
    *,
    fingerprint: Mapping[str, object] | None = None,
    resources: Mapping[str, TaskResources] | None = None,
) -> tuple[EvalReport, dict[str, Assignment]]:
    """Run one configuration over all tasks; returns report and assignments."""
    per_task: dict[str, TaskMetrics] = {}
    assignments: dict[str, Assignment] = {}
    for task in tasks:
        shared = resources.get(task.name) if resources is not None else None
        assignments[task.name] = map_documents(task, config, shared)
        per_task[task.name] = evaluate_assignment(task, assignments[task.name])
    report = EvalReport.build(
        model=config.model,
        noise=config.features.noise,
        per_task=per_task,
        config=dict(fingerprint or {}),
    )
    return report, assignments


def task_clusterings(
    task: Task,
    method: str,
    feature_config: FeatureConfig,
    *,
    reps: int = 10,
    resources: TaskResources | None = None,
):
    """Baseline clusterings of one task's entity-labeled documents.

    Returns None when the task has no entities or no entity-labeled
    documents.  HAC yields a single clustering, K-Means one per seed
    1..reps.  k is the entity count, clamped to the subset size.  The
    document vectors come from ``resources``, built from the task when
    None; resources built with other weighting options raise ValueError.
    """
    if method not in ("hac_complete", "kmeans"):
        raise ValueError(f"unknown baseline {method!r}")
    kept = clustering_eval_filter(task)
    if not kept or not task.entities:
        return None
    if resources is None:
        resources = TaskResources.from_task(task, feature_config)
    elif not resources.matches(feature_config):
        raise ValueError("resources were built with different weighting options")
    vectors = {doc_id: resources.doc_vectors[doc_id] for doc_id in kept}
    k = min(len(task.entities), len(kept))
    if method == "hac_complete":
        return [hac_complete(vectors, k)]
    return run_repetitions(vectors, k, reps)


def baseline_report(
    tasks: Sequence[Task],
    method: str,
    feature_config: FeatureConfig,
    *,
    reps: int = 10,
    fingerprint: Mapping[str, object] | None = None,
    resources: Mapping[str, TaskResources] | None = None,
) -> tuple[EvalReport, dict[str, list[Clustering]]]:
    """Purity/NMI of one clustering baseline on the noise-filtered subset.

    k is the task's entity count (clamped to the subset size).  Tasks with
    no entity-labeled documents or no entities get no metrics and no
    clusterings.  K-Means metrics are means over ``reps`` seeded
    repetitions.  Returns the report and, per task, the clusterings it
    was computed from.
    """
    per_task: dict[str, TaskMetrics] = {}
    clusterings: dict[str, list[Clustering]] = {}
    for task in tasks:
        shared = resources.get(task.name) if resources is not None else None
        runs = task_clusterings(task, method, feature_config, reps=reps, resources=shared)
        if runs is None:
            per_task[task.name] = TaskMetrics()
            continue
        gold = {doc_id: task.gold.labels[doc_id] for doc_id in clustering_eval_filter(task)}
        per_task[task.name] = TaskMetrics(
            purity=sum(purity(c, gold) for c in runs) / len(runs),
            nmi=sum(nmi(c, gold) for c in runs) / len(runs),
        )
        clusterings[task.name] = runs
    report = EvalReport.build(model=method, noise="", per_task=per_task, config=dict(fingerprint or {}))
    return report, clusterings


def run_grid(spec: RunSpec) -> GridResult:
    """Evaluate every (model, noise) cell plus any enabled baselines."""
    tasks, skipped = load_tasks(spec)
    result = GridResult(reports=[], task_names=[t.name for t in tasks], skipped=skipped)
    if not tasks:
        return result

    # One set of feature artifacts per task, shared read-only by all cells.
    base_features = spec.feature_config()
    resources = {t.name: TaskResources.from_task(t, base_features) for t in tasks}

    for model in spec.models:
        for noise in spec.noise_modes:
            config = spec.model_config(model, noise)
            report, assignments = classification_report(
                tasks,
                config,
                fingerprint=spec.fingerprint(model=model, noise=noise),
                resources=resources,
            )
            result.reports.append(report)
            result.assignments[(model, noise)] = assignments

    for method, enabled in (("hac_complete", spec.hac), ("kmeans", spec.kmeans)):
        if not enabled:
            continue
        extra = {"reps": spec.reps} if method == "kmeans" else {}
        report, clusterings = baseline_report(
            tasks,
            method,
            base_features,
            reps=spec.reps,
            fingerprint=spec.fingerprint(model=method, noise=None, **extra),
            resources=resources,
        )
        result.reports.append(report)
        result.clusterings[method] = clusterings
    return result


@dataclass
class TaskValidation:
    """Validation outcome for one task directory."""

    directory: str
    name: str | None
    ok: bool
    problems: list[str] = field(default_factory=list)


def validate_corpus(
    root: str | Path,
    *,
    strip_markup: bool = False,
    stopwords: frozenset[str] | None = None,
) -> list[TaskValidation]:
    """Check every task directory under ``root``; never raises per task."""
    results: list[TaskValidation] = []
    for path in discover_tasks(root):
        try:
            task = load_task(path, strip_markup=strip_markup, stopwords=stopwords)
        except (CorpusFormatError, CorpusIntegrityError) as exc:
            results.append(TaskValidation(directory=str(path), name=None, ok=False, problems=[str(exc)]))
        else:
            results.append(TaskValidation(directory=str(path), name=task.name, ok=True))
    return results


def grid_tsv(reports: Iterable[EvalReport]) -> str:
    """All reports concatenated into one TSV table (single header)."""
    lines: list[str] = []
    for i, report in enumerate(reports):
        tsv = report.to_tsv().rstrip("\n").split("\n")
        lines.extend(tsv if i == 0 else tsv[1:])
    return "\n".join(lines) + "\n" if lines else ""


def grid_json_dict(result: GridResult) -> dict:
    return {
        "tasks": result.task_names,
        "skipped": [{"directory": d, "reason": r} for d, r in result.skipped],
        "reports": [report.to_dict() for report in result.reports],
    }


def pivot_tsv(reports: Iterable[EvalReport], metric: str = "f1_bar") -> str:
    """Model x noise table of one aggregate metric.

    Rows appear in first-seen model order, columns in first-seen noise
    order; baselines (whose noise column is empty) land in a column
    labelled "-".
    """
    rows: dict[str, dict[str, float | None]] = {}
    columns: list[str] = []
    for report in reports:
        noise = report.noise or "-"
        if noise not in columns:
            columns.append(noise)
        rows.setdefault(report.model, {})[noise] = getattr(report.aggregate, metric)
    lines = ["model\t" + "\t".join(columns)]
    for model, cells in rows.items():
        rendered = ["" if cells.get(c) is None else f"{cells[c]:.6f}" for c in columns]
        lines.append(model + "\t" + "\t".join(rendered))
    return "\n".join(lines) + "\n"
