"""Experiment driver: corpus validation, configuration grids, baselines.

`run_grid` evaluates a model x noise-mode grid plus optional clustering
baselines over a corpus directory and returns one report per cell.  Cells
share per-task feature artifacts but never intermediate results, so a
grid cell always equals the same configuration run alone.  All outputs
are deterministically ordered by task name.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .baselines import hac_complete, kmeans, run_repetitions
from .corpus import (
    CorpusFormatError,
    CorpusIntegrityError,
    Task,
    discover_tasks,
    load_task,
)
from .evaluation import EvalReport, TaskMetrics, clustering_eval_filter, evaluate_assignment, nmi, purity
from .features import NOISE_MODES, FeatureConfig, build_index, vectorize
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

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass
class RunSpec:
    """Everything one experiment run depends on."""

    corpus_root: Path
    tasks: Sequence[str] | None = None
    models: Sequence[str] = MODELS
    noise_modes: Sequence[str] = NOISE_MODES
    hac: bool = False
    kmeans: bool = False
    reps: int = 10
    idf_numerator: str = "corpus"
    log_base: str = "e"
    intersection_semantics: str = "exists"
    alpha: float = 0.01
    jm_lambda: float = 0.5
    laplace_denominator: str = "paper"
    strip_markup: bool = False
    stopwords: frozenset[str] | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        self.corpus_root = Path(self.corpus_root)
        if not (self.models or self.hac or self.kmeans):
            raise ValueError("select at least one model or baseline")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

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
    """All reports from one run plus the tasks that could not load."""

    reports: list[EvalReport]
    task_names: list[str]
    skipped: list[tuple[str, str]] = field(default_factory=list)
    assignments: dict[tuple[str, str], dict[str, Assignment]] = field(default_factory=dict)


def _parallel_map(fn: Callable[[_T], _R], items: Sequence[_T], jobs: int) -> list[_R]:
    """Order-preserving map, threaded when jobs > 1."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def load_tasks(spec: RunSpec) -> tuple[list[Task], list[tuple[str, str]]]:
    """Load, filter, and name-sort the corpus; broken tasks are skipped.

    Returns the loadable tasks sorted by task name and a list of
    (directory, reason) pairs for tasks that failed to load.
    """
    directories = discover_tasks(spec.corpus_root)

    def _load(path: Path) -> Task | Exception:
        try:
            return load_task(path, strip_markup=spec.strip_markup, stopwords=spec.stopwords)
        except (CorpusFormatError, CorpusIntegrityError) as exc:
            return exc

    results = _parallel_map(_load, directories, spec.jobs)
    tasks: list[Task] = []
    skipped: list[tuple[str, str]] = []
    for path, result in zip(directories, results):
        if isinstance(result, Exception):
            skipped.append((str(path), str(result)))
        else:
            tasks.append(result)
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
    jobs: int = 1,
    resources: Mapping[str, TaskResources] | None = None,
) -> tuple[EvalReport, dict[str, Assignment]]:
    """Run one configuration over all tasks; returns report and assignments."""

    def _run(task: Task) -> tuple[TaskMetrics, Assignment]:
        shared = resources.get(task.name) if resources is not None else None
        assignment = map_documents(task, config, shared)
        return evaluate_assignment(task, assignment), assignment

    results = _parallel_map(_run, list(tasks), jobs)
    per_task = {task.name: metrics for task, (metrics, _) in zip(tasks, results)}
    assignments = {task.name: assignment for task, (_, assignment) in zip(tasks, results)}
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
    1..reps.  k is the entity count, clamped to the subset size.
    """
    if method not in ("hac_complete", "kmeans"):
        raise ValueError(f"unknown baseline {method!r}")
    kept = clustering_eval_filter(task)
    if not kept or not task.entities:
        return None
    if resources is not None and resources.matches(feature_config):
        vectors = {doc_id: resources.doc_vectors[doc_id] for doc_id in kept}
    else:
        index = build_index(task)
        vectors = {doc_id: vectorize(doc_id, index, feature_config) for doc_id in kept}
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
    jobs: int = 1,
    resources: Mapping[str, TaskResources] | None = None,
) -> EvalReport:
    """Purity/NMI of one clustering baseline on the noise-filtered subset.

    k is the task's entity count (clamped to the subset size).  Tasks with
    no entity-labeled documents or no entities get no metrics.  K-Means
    metrics are means over ``reps`` seeded repetitions.
    """

    def _run(task: Task) -> TaskMetrics:
        shared = resources.get(task.name) if resources is not None else None
        clusterings = task_clusterings(task, method, feature_config, reps=reps, resources=shared)
        if clusterings is None:
            return TaskMetrics()
        kept = clustering_eval_filter(task)
        gold = {doc_id: task.gold.labels[doc_id] for doc_id in kept}
        p = sum(purity(c, gold) for c in clusterings) / len(clusterings)
        n = sum(nmi(c, gold) for c in clusterings) / len(clusterings)
        return TaskMetrics(purity=p, nmi=n)

    results = _parallel_map(_run, list(tasks), jobs)
    per_task = {task.name: metrics for task, metrics in zip(tasks, results)}
    return EvalReport.build(model=method, noise="", per_task=per_task, config=dict(fingerprint or {}))


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
                jobs=spec.jobs,
                resources=resources,
            )
            result.reports.append(report)
            result.assignments[(model, noise)] = assignments

    if spec.hac:
        result.reports.append(
            baseline_report(
                tasks,
                "hac_complete",
                base_features,
                reps=spec.reps,
                fingerprint=spec.fingerprint(model="hac_complete", noise=None),
                jobs=spec.jobs,
                resources=resources,
            )
        )
    if spec.kmeans:
        result.reports.append(
            baseline_report(
                tasks,
                "kmeans",
                base_features,
                reps=spec.reps,
                fingerprint=spec.fingerprint(model="kmeans", noise=None, reps=spec.reps),
                jobs=spec.jobs,
                resources=resources,
            )
        )
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
    jobs: int = 1,
) -> list[TaskValidation]:
    """Check every task directory under ``root``; never raises per task."""
    directories = discover_tasks(root)

    def _check(path: Path) -> TaskValidation:
        try:
            task = load_task(path, strip_markup=strip_markup, stopwords=stopwords)
        except (CorpusFormatError, CorpusIntegrityError) as exc:
            return TaskValidation(directory=str(path), name=None, ok=False, problems=[str(exc)])
        return TaskValidation(directory=str(path), name=task.name, ok=True)

    return _parallel_map(_check, directories, jobs)


def grid_tsv(reports: Iterable[EvalReport]) -> str:
    """All reports concatenated into one TSV table (single header)."""
    lines: list[str] = []
    for i, report in enumerate(reports):
        tsv = report.to_tsv().splitlines()
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
