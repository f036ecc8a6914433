"""Experiment driver: corpus validation, configuration grids, baselines.

`run_grid` evaluates a model x noise-mode grid plus optional clustering
baselines over a corpus directory and returns one report per cell and
baseline.  It runs task by task: it builds a task's `TaskResources`, runs
every (model, noise) cell and then every enabled baseline on that task,
and releases the resources before the next task's are built.  Cells and
baselines share a task's resources, whose caches hold only values that do
not depend on the order of use, so a grid cell or baseline always equals
the same configuration run alone.  Reports are in cell order, then
``hac_complete``, then ``kmeans``, and all outputs are deterministically
ordered by task name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .baselines import BASELINES, Clustering, _check_reps, hac_complete, run_repetitions
from .corpus import (
    CorpusFormatError,
    CorpusIntegrityError,
    Task,
    discover_tasks,
    load_task,
    read_manifest,
    tsv_cell,
)
from .evaluation import EvalReport, TaskMetrics, clustering_eval_filter, evaluate_assignment, evaluate_clusterings
from .features import NOISE_MODES, ConfigError, FeatureConfig
from .features import build_index, vectorize  # noqa: F401  (kept importable here: perfbench's tracer wraps them in this module)
from .models import MODELS, Assignment, ModelConfig, TaskResources, map_documents

__all__ = [
    "RunSpec",
    "GridResult",
    "TaskValidation",
    "run_grid",
    "task_clusterings",
    "validate_corpus",
    "grid_tsv",
    "grid_json_dict",
    "pivot_tsv",
]

@dataclass(frozen=True)
class RunSpec:
    """Everything one experiment run depends on.

    Feature and model settings default to the `FeatureConfig` and
    `ModelConfig` defaults.  ``tasks`` (None: every task), ``models`` and
    ``noise_modes`` are stored as tuples of names and ``stopwords`` as a
    frozenset; a bare string raises `ConfigError`, as does a ``reps`` that
    is not an integer >= 1 (a bool is not one).  Construction builds
    ``cells``, the `ModelConfig` of each (model, noise) pair in grid
    order, so a value either config class refuses raises `ConfigError`
    here, before any task loads; the spec is frozen, so its cells stay
    its own.
    """

    corpus_root: Path
    tasks: tuple[str, ...] | None = None
    models: tuple[str, ...] = MODELS
    noise_modes: tuple[str, ...] = NOISE_MODES
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
    cells: dict[tuple[str, str], ModelConfig] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "corpus_root", Path(self.corpus_root))
        for name in ("tasks", "models", "noise_modes", "stopwords"):
            names = getattr(self, name)
            if isinstance(names, str):
                raise ConfigError(f"{name} must be a collection of names, got the string {names!r}")
            if names is not None:
                object.__setattr__(self, name, frozenset(names) if name == "stopwords" else tuple(names))
        _check_reps(self.reps)
        self.feature_config()  # checks the feature settings, which the baselines read too
        object.__setattr__(self, "cells", {(m, n): self.model_config(m, n) for m in self.models for n in self.noise_modes})
        if not (self.cells or self.hac or self.kmeans):
            raise ConfigError("select at least one model and noise mode, or a baseline")

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

    def fingerprint(self, model: str, noise: str | None = None) -> dict[str, object]:
        """A report's ``config``: the settings its runs read; a baseline reads no model setting."""
        config: dict[str, object] = {"idf_numerator": self.idf_numerator, "log_base": self.log_base}
        if model not in BASELINES:
            config["intersection_semantics"] = self.intersection_semantics
            config["alpha"] = self.alpha
            config["lambda"] = self.jm_lambda
            config["laplace_denominator"] = self.laplace_denominator
        config.update(model=model, noise=noise)
        if model == "kmeans":
            config["reps"] = self.reps
        return config


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

    The filter reads a task's name before its bodies.  Returns the loadable
    tasks sorted by task name and a list of (directory, reason) pairs for
    tasks that failed to load.
    """
    tasks: list[Task] = []
    skipped: list[tuple[str, str]] = []
    for path in discover_tasks(spec.corpus_root):
        try:
            if spec.tasks is None or read_manifest(path)["name"] in spec.tasks:
                tasks.append(load_task(path, strip_markup=spec.strip_markup, stopwords=spec.stopwords))
        except (CorpusFormatError, CorpusIntegrityError) as exc:
            skipped.append((str(path), str(exc)))
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise CorpusIntegrityError(f"duplicate task names across directories: {duplicates!r}")
    tasks.sort(key=lambda t: t.name)
    return tasks, skipped


def task_clusterings(
    task: Task,
    method: str,
    feature_config: FeatureConfig,
    *,
    reps: int = RunSpec.reps,
    resources: TaskResources | None = None,
):
    """Baseline clusterings of one task's entity-labeled documents.

    Returns None when the task has no entities or no entity-labeled
    documents.  HAC yields a single clustering, K-Means one per seed
    1..reps, all from the one `gram` of the kept documents that
    ``resources`` holds (`TaskResources.kept_gram`).  k is the entity
    count, clamped to the subset size.  ``resources`` is built from the
    task when None; resources built for another task or with other
    weighting options raise ValueError.
    """
    if method not in BASELINES:
        raise ValueError(f"unknown baseline {method!r}")
    if resources is not None:
        resources.check(task, feature_config)
    kept = clustering_eval_filter(task)
    if not kept or not task.entities:
        return None
    if resources is None:
        resources = TaskResources.from_task(task, feature_config)
    kept_gram = resources.kept_gram
    k = min(len(task.entities), len(kept))
    if method == "hac_complete":
        return [hac_complete(kept_gram, k)]
    return run_repetitions(kept_gram, k, reps)


def run_grid(spec: RunSpec) -> GridResult:
    """Evaluate every (model, noise) cell plus any enabled baselines."""
    tasks, skipped = load_tasks(spec)
    result = GridResult(reports=[], task_names=[t.name for t in tasks], skipped=skipped)
    if not tasks:
        return result

    base_features = spec.feature_config()
    methods = [method for method, enabled in zip(BASELINES, (spec.hac, spec.kmeans)) if enabled]
    # Report (model, noise) -> fingerprint; a baseline's noise column is empty.
    fingerprints = {cell: spec.fingerprint(*cell) for cell in spec.cells}
    for method in methods:
        fingerprints[(method, "")] = spec.fingerprint(method)
    per_task: dict[tuple[str, str], dict[str, TaskMetrics]] = {key: {} for key in fingerprints}
    result.clusterings = {method: {} for method in methods}
    for task in tasks:
        # One set of feature artifacts per task, shared read-only by its cells and baselines.
        resources = TaskResources.from_task(task, base_features)
        for cell, config in spec.cells.items():
            assignment = map_documents(task, config, resources)
            result.assignments.setdefault(cell, {})[task.name] = assignment
            per_task[cell][task.name] = evaluate_assignment(task, assignment)
        for method in methods:
            runs = task_clusterings(task, method, base_features, reps=spec.reps, resources=resources)
            if runs is None:
                per_task[(method, "")][task.name] = TaskMetrics()
                continue
            # K-Means metrics are means over its seeded repetitions.
            per_task[(method, "")][task.name] = evaluate_clusterings(task, runs)
            result.clusterings[method][task.name] = runs
        del resources  # released before the next task's are built
    result.reports = [
        EvalReport.build(model=model, noise=noise, per_task=per_task[(model, noise)], config=fingerprint)
        for (model, noise), fingerprint in fingerprints.items()
    ]
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
    labelled "-".  Model and noise names are written as TSV cells
    (`tsv_cell`).
    """
    rows: dict[str, dict[str, float | None]] = {}
    columns: list[str] = []
    for report in reports:
        noise = report.noise or "-"
        if noise not in columns:
            columns.append(noise)
        rows.setdefault(report.model, {})[noise] = getattr(report.aggregate, metric)
    lines = ["model\t" + "\t".join(map(tsv_cell, columns))]
    for model, cells in rows.items():
        rendered = ["" if cells.get(c) is None else f"{cells[c]:.6f}" for c in columns]
        lines.append(tsv_cell(model) + "\t" + "\t".join(rendered))
    return "\n".join(lines) + "\n"
