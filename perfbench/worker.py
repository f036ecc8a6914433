"""One benchmark repetition, in the fresh interpreter it needs.

    python3 worker.py setup CORPUS RESULT_JSON
    python3 worker.py run RESULT_JSON [--trace SPANS_JSON] -- NAMESIFT_ARGV...

``setup`` times what every namesift run does before its first model or
baseline call: ``import namesift``, ``load_tasks`` and
``TaskResources.from_task`` for every task.  It also records the size of
the indexed corpus.  ``run`` times one in-process ``namesift.cli.main``
call and records the process's CPU time and peak resident memory; with
``--trace`` it wraps the layer entry points and writes the spans.
The result is written as JSON to RESULT_JSON.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path


def setup(corpus: str) -> dict:
    start = time.perf_counter()
    import namesift  # noqa: F401  (timed: users pay for the import)
    from namesift.experiments import RunSpec, load_tasks
    from namesift.models import TaskResources

    spec = RunSpec(corpus_root=Path(corpus))
    tasks, skipped = load_tasks(spec)
    config = spec.feature_config()
    resources = [TaskResources.from_task(task, config) for task in tasks]
    setup_s = time.perf_counter() - start
    return {
        "setup_s": setup_s,
        "skipped": len(skipped),
        "module": namesift.__file__,
        "size": {
            "tasks": len(tasks),
            "documents": sum(len(t.documents) for t in tasks),
            "entities": sum(len(t.entities) for t in tasks),
            "tokens": sum(len(e.tokens) for t in tasks for e in t.documents + t.entities),
            "indexed_features": sum(r.index.feature_count for r in resources),
            "doc_vector_nonzeros": sum(len(v) for r in resources for v in r.doc_vectors.values()),
        },
    }


def run(argv: list[str], spans_path: str | None) -> dict:
    import namesift.cli

    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer(run_id=Path(spans_path).stem)
        tracer.wrap_all()
    gc.collect()
    cpu_start = time.process_time()
    start = time.perf_counter()
    code = namesift.cli.main(argv)
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    if tracer is not None:
        tracer.restore()
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return {
        "exit_code": code,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": namesift.cli.__file__,
    }


def main(args: list[str]) -> int:
    mode, rest = args[0], args[1:]
    if mode == "setup":
        corpus, result_path = rest
        result = setup(corpus)
    elif mode == "run":
        split = rest.index("--")
        options, argv = rest[:split], rest[split + 1 :]
        result_path = options[0]
        spans_path = options[options.index("--trace") + 1] if "--trace" in options else None
        result = run(argv, spans_path)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
