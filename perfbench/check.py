"""Correctness check of one CLI invocation's output directory.

A (task, invocation) operation fails when the invocation exited nonzero,
the task is skipped or missing, a report row lacks the task or one of
its metrics, or a metric lies outside [0, 1].  An invocation whose output
differs from the run's first invocation by a single byte fails for every
task.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import KMEANS_REPS, Workload

CLASSIFIER_METRICS = ("purity", "nmi", "micro_f1", "macro_f1", "f1_bar")
BASELINE_METRICS = ("purity", "nmi")


@dataclass
class Checked:
    """What one invocation's output says, and what is wrong with it."""

    digest: str = ""
    failed_tasks: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    f1_bar_mean: float | None = None
    nmi_mean: float | None = None
    bytes_written: int = 0


def digest_tree(root: Path) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


def _in_unit_range(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value) and 0.0 <= value <= 1.0


def _metrics_problem(row: dict | None, required: tuple[str, ...]) -> str | None:
    if not isinstance(row, dict):
        return "missing"
    for metric in required:
        if not _in_unit_range(row.get(metric)):
            return f"{metric}={row.get(metric)!r}"
    return None


def check_output(output: Path, workload: Workload, task_names: list[str], exit_code: int) -> Checked:
    """Check one invocation; every task that fails is named in ``failed_tasks``."""
    checked = Checked()
    everyone = set(task_names)
    if exit_code != 0:
        checked.failed_tasks |= everyone
        checked.problems.append(f"exit code {exit_code}")
    if output.is_dir():
        checked.digest, checked.bytes_written = digest_tree(output)
    try:
        data = json.loads((output / workload.report_file).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        checked.failed_tasks |= everyone
        checked.problems.append(f"{workload.report_file} unreadable: {exc}")
        return checked

    if data.get("tasks") != task_names:
        missing = everyone - set(data.get("tasks") or ())
        checked.failed_tasks |= missing or everyone
        checked.problems.append(f"tasks reported {data.get('tasks')!r:.200}")
    if data.get("skipped"):
        checked.failed_tasks |= everyone
        checked.problems.append(f"skipped {data['skipped']!r:.200}")

    reports = data.get("reports") or []
    rows = [(r.get("model"), r.get("noise")) for r in reports]
    if rows != workload.rows():
        checked.failed_tasks |= everyone
        checked.problems.append(f"report rows {rows!r:.200}")
    for report in reports:
        required = BASELINE_METRICS if report.get("noise") == "" else CLASSIFIER_METRICS
        label = f"{report.get('model')}/{report.get('noise') or '-'}"
        problem = _metrics_problem(report.get("aggregate"), required)
        if problem:
            checked.failed_tasks |= everyone
            checked.problems.append(f"{label} aggregate: {problem}")
        per_task = report.get("per_task") or {}
        for task in task_names:
            problem = _metrics_problem(per_task.get(task), required)
            if problem:
                checked.failed_tasks.add(task)
                checked.problems.append(f"{label} {task}: {problem}")

    if workload.command == "cluster":
        for task in task_names:
            for method in workload.baselines:
                path = output / f"{task}.{method}.json"
                try:
                    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    checked.failed_tasks.add(task)
                    checked.problems.append(f"{path.name}: {exc}")
                    continue
                expected = 1 if method == "hac_complete" else KMEANS_REPS
                if len(runs) != expected:
                    checked.failed_tasks.add(task)
                    checked.problems.append(f"{path.name}: {len(runs)} runs, expected {expected}")

    if not checked.failed_tasks:
        aggregates = [r["aggregate"] for r in reports]
        f1 = [a["f1_bar"] for a, r in zip(aggregates, reports) if r["noise"] != ""]
        checked.f1_bar_mean = sum(f1) / len(f1) if f1 else None
        checked.nmi_mean = sum(a["nmi"] for a in aggregates) / len(aggregates)
    return checked

