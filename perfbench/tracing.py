"""Spans around namesift's layer entry points, and the arithmetic on them.

The program is not edited: `Tracer.wrap` replaces a function in the module
that calls it (for example ``namesift.experiments.map_documents``) with a
wrapper that records one span per call.  Spans stay in memory and are
written out once, when the traced run ends.

A span is a dict with ``id``, ``name``, ``start``, ``end`` (seconds,
``time.perf_counter``), ``parent`` (the id of the enclosing span or None),
``run`` (the run id shared by every span of one traced run) and ``attrs``.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Iterable


def _model_of_config(args, result):
    return {"model": args[1].model}


def _model_of_context(args, result):
    return {"model": args[0].config.model}


# Span name -> the places it is called from, as (module, attribute), and
# a function of (args, result) giving extra attributes to record.  Each
# function is replaced where its caller looks it up, so a call made from
# another module is not seen.
ENTRY_POINTS: dict[str, tuple[list[tuple[str, str]], Callable | None]] = {
    "cli.main": ([("namesift.cli", "main")], None),
    "experiments.run_grid": ([("namesift.cli", "run_grid")], None),
    "experiments.task_clusterings": (
        [("namesift.cli", "task_clusterings"), ("namesift.experiments", "task_clusterings")],
        None,
    ),
    "corpus.load_task": ([("namesift.experiments", "load_task")], None),
    "features.build_index": ([("namesift.models", "build_index"), ("namesift.experiments", "build_index")], None),
    "features.vectorize": ([("namesift.models", "vectorize"), ("namesift.experiments", "vectorize")], None),
    "features.noise": ([("namesift.models", "build_noise_profile")], None),
    "models.smooth": ([("namesift.models", "smoothed_profile")], None),
    "models.fit": ([("namesift.models", "build_context")], _model_of_config),
    "models.score": ([("namesift.models", "assign_from_context")], _model_of_context),
    "models.map_documents": (
        [("namesift.experiments", "map_documents")],
        lambda args, result: {"model": args[1].model, "floored": result.floored},
    ),
    "evaluation.evaluate": ([("namesift.experiments", "evaluate_assignment")], None),
    "baselines.hac": ([("namesift.experiments", "hac_complete")], None),
    "baselines.kmeans": (
        [("namesift.baselines", "kmeans")],
        lambda args, result: {"iterations": result.n_iterations},
    ),
}


class Tracer:
    """Records spans for the entry points it wraps, until `restore`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap_all(self) -> None:
        for name, (places, describe) in ENTRY_POINTS.items():
            for module_name, attr in places:
                self.wrap(importlib.import_module(module_name), attr, name, describe)

    def wrap(self, owner: object, attr: str, name: str, describe: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._traced(original, name, describe))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _traced(self, fn: Callable, name: str, describe: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "attrs": {},
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span["attrs"] = describe(args, result)
            return result

        return traced


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"]) - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }
