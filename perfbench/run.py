"""namesift benchmark: seeded workloads, timed CLI runs, output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a namesift source tree.  The corpus of workload NAME
is generated from seed N, then CLI invocations of the workload's command
repeat, one after another, until S seconds have passed (closed loop, one
client, namesift's default ``--jobs 1``).  Each repetition starts fresh
interpreters (see worker.py).  Every invocation's output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics; the
traced ones wrap the layer entry points (see tracing.py).  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.  Exit codes: 0 done, 1 a run could not be measured, 2 no
namesift source tree, 3 a layer the workload must reach was never called.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

from check import check_output
from tracing import self_times
from workloads import KMEANS_REPS, MODELS, NOISE_MODES, WORKLOADS, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_REPS = 2
# Children still running this long after the start are killed, so that a
# run ends within 180 s even when the program hangs.
DEADLINE_S = 170

# name -> (unit, better); the order is the printing order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "docs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "nmi_mean": ("ratio", "higher"),
}

_TIMED_LAYERS = (
    "corpus.load_task",
    "features.build_index",
    "features.vectorize",
    "evaluation.evaluate",
    "baselines.hac",
    "baselines.kmeans",
)
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer in _TIMED_LAYERS:
    PER_LAYER[f"{_layer}.s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
PER_LAYER["features.noise.s"] = ("s", "lower")
PER_LAYER["models.smooth.s"] = ("s", "lower")
for _model in MODELS:
    PER_LAYER[f"models.fit.{_model}.s"] = ("s", "lower")
    PER_LAYER[f"models.score.{_model}.s"] = ("s", "lower")
PER_LAYER.update(
    {
        "models.map_documents.p50_ms": ("ms", "lower"),
        "models.map_documents.p90_ms": ("ms", "lower"),
        "models.floored": ("count", "lower"),
        "baselines.kmeans.iterations": ("count", "lower"),
        "experiments.task_clusterings.calls": ("count", "lower"),
        "experiments.task_clusterings.per_task_method": ("ratio", "lower"),
        "experiments.run_grid.self_s": ("s", "lower"),
        "cli.main.self_s": ("s", "lower"),
        "cli.bytes_written": ("bytes", "lower"),
        "process.cpu_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
    }
)
# Per-layer metrics that must repeat exactly between traced invocations.
EXACT = {name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes", "ratio")}


class MeasureError(Exception):
    """A run that cannot produce its metrics."""


class UnmeasuredLayer(MeasureError):
    """A layer entry point the workload must reach recorded no calls."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for q in (99.9, 99, 95, 90, 75):
        if n - math.ceil(q / 100 * n) >= 10:
            return f"p{q:g} {percentile(values, q):.6g}, n={n}"
    return f"n={n}; no percentile above the median has 10 samples beyond it"


def required_calls(workload: Workload) -> list[str]:
    """Span names (and name.model keys) the workload's command must reach."""
    names = ["cli.main", "experiments.run_grid", "corpus.load_task", "features.build_index", "features.vectorize"]
    if workload.models:
        names += ["features.noise", "models.smooth", "models.map_documents", "evaluation.evaluate"]
        names += [f"models.{stage}.{model}" for stage in ("fit", "score") for model in workload.models]
    if workload.baselines:
        names += ["experiments.task_clusterings", "baselines.hac", "baselines.kmeans"]
    return names


def unreached(workload: Workload, spans: list[dict]) -> list[str]:
    counts = call_counts(spans)
    return [name for name in required_calls(workload) if counts[name] == 0]


def call_counts(spans: list[dict]) -> Counter:
    counts: Counter = Counter()
    for span in spans:
        counts[span["name"]] += 1
        if "model" in span["attrs"]:
            counts[f"{span['name']}.{span['attrs']['model']}"] += 1
    return counts


def layer_metrics(spans: list[dict], workload: Workload, n_tasks: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation; every ``.s`` is self time."""
    own = self_times(spans)
    counts = call_counts(spans)

    def busy(name: str, model: str | None = None) -> float:
        return sum(
            own[s["id"]] for s in spans if s["name"] == name and (model is None or s["attrs"].get("model") == model)
        )

    def attr_sum(name: str, attr: str) -> int:
        return sum(s["attrs"][attr] for s in spans if s["name"] == name)

    out: dict[str, float] = {}
    for layer in _TIMED_LAYERS:
        out[f"{layer}.s"] = busy(layer)
        out[f"{layer}.calls"] = counts[layer]
    out["features.noise.s"] = busy("features.noise")
    out["models.smooth.s"] = busy("models.smooth")
    for model in MODELS:
        out[f"models.fit.{model}.s"] = busy("models.fit", model)
        out[f"models.score.{model}.s"] = busy("models.score", model)
    mapped = [(s["end"] - s["start"]) * 1000 for s in spans if s["name"] == "models.map_documents"]
    out["models.map_documents.p50_ms"] = percentile(mapped, 50) if mapped else 0.0
    out["models.map_documents.p90_ms"] = percentile(mapped, 90) if mapped else 0.0
    out["models.floored"] = attr_sum("models.map_documents", "floored")
    out["baselines.kmeans.iterations"] = attr_sum("baselines.kmeans", "iterations")
    out["experiments.task_clusterings.calls"] = counts["experiments.task_clusterings"]
    pairs = n_tasks * len(workload.baselines)
    out["experiments.task_clusterings.per_task_method"] = counts["experiments.task_clusterings"] / pairs if pairs else 0.0
    out["experiments.run_grid.self_s"] = busy("experiments.run_grid")
    out["cli.main.self_s"] = busy("cli.main")
    return out


class Bench:
    """One benchmark run: a generated corpus and the invocations against it."""

    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float) -> None:
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.tasks = generate(work / "corpus", workload.name, workload.shape, seed)
        self.task_names = [t["name"] for t in self.tasks]
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("NAMESIFT_")}
        self.env["PYTHONPATH"] = str(SRC)

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(
                [sys.executable, *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired as exc:
            return subprocess.CompletedProcess(exc.cmd, returncode=-9, stdout="", stderr=f"killed after {exc.timeout:.0f} s")

    def _result(self, args: list[str], result_path: Path) -> tuple[dict | None, str]:
        proc = self._child([str(HERE / "worker.py"), *args])
        if proc.returncode != 0 or not result_path.is_file():
            return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not Path(result["module"]).resolve().is_relative_to(SRC):
            raise MeasureError(f"namesift was imported from {result['module']}, not from {SRC}")
        return result, ""

    def warm_up(self) -> None:
        """Compile namesift's bytecode once, as an installed package has it."""
        proc = self._child(["-c", "import namesift.cli"])
        if proc.returncode != 0:
            raise MeasureError(f"cannot import namesift: {proc.stderr.strip()[-500:]}")

    def setup(self, rep: int) -> dict:
        result_path = self.work / f"setup-{rep}.json"
        result, error = self._result(["setup", str(self.work / "corpus"), str(result_path)], result_path)
        if result is None:
            raise MeasureError(f"set-up failed: {error}")
        if result["skipped"]:
            raise MeasureError(f"set-up skipped {result['skipped']} task(s)")
        return result

    def invoke(self, rep: int, traced: bool) -> dict:
        """One CLI invocation: its timings, its output check and, if traced, its spans."""
        output = self.work / f"out-{rep}"
        result_path = self.work / f"run-{rep}.json"
        spans_path = self.work / f"spans-{rep}.json"
        options = [str(result_path)] + (["--trace", str(spans_path)] if traced else [])
        argv = self.workload.argv(self.work / "corpus", output)
        result, error = self._result(["run", *options, "--", *argv], result_path)
        exit_code = result["exit_code"] if result is not None else None
        checked = check_output(output, self.workload, self.task_names, exit_code)
        if result is None:
            checked.problems.insert(0, error)
        record = {"result": result, "checked": checked}
        if traced and result is not None:
            record["spans"] = json.loads(spans_path.read_text(encoding="utf-8"))
        shutil.rmtree(output, ignore_errors=True)
        return record

    def decisions(self) -> int:
        """Document decisions one invocation reports: cells x documents + baseline clusterings x kept."""
        shape = self.workload.shape
        total = shape.tasks * shape.documents * len(self.workload.models) * len(NOISE_MODES)
        per_baseline = {"hac_complete": 1, "kmeans": KMEANS_REPS}
        kept = sum(t["kept_documents"] for t in self.tasks)
        return total + kept * sum(per_baseline[m] for m in self.workload.baselines)


def measure(workload: Workload, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, list[str]]:
    bench = Bench(workload, seed, work, deadline=time.perf_counter() + DEADLINE_S)
    bench.warm_up()
    setups: list[dict] = []
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        use_trace = trace and rep % 2 == 1
        if not use_trace:
            setups.append(bench.setup(rep))
        (traced if use_trace else plain).append(bench.invoke(rep, use_trace))
        rep += 1

    invocations = plain + traced
    first = invocations[0]["checked"].digest
    failed = 0
    problems: list[str] = []
    for i, inv in enumerate(invocations):
        checked = inv["checked"]
        if checked.digest != first:
            checked.failed_tasks |= set(bench.task_names)
            checked.problems.append("output differs from the first invocation's")
        failed += len(checked.failed_tasks)
        problems += [f"invocation {i}: {p}" for p in checked.problems]
    attempted = len(invocations) * len(bench.task_names)

    lines = [
        f"workload {workload.name}: {workload.why}",
        f"seed {seed}, {seconds} s, trace {int(trace)}; machine: python {platform.python_version()}, "
        f"numpy {numpy.__version__}, nproc {os.cpu_count()}",
        "command: namesift " + " ".join(workload.argv(Path("CORPUS"), Path("OUT"))),
        "size: " + ", ".join(f"{k} {v}" for k, v in setups[0]["size"].items()),
        f"invocations: {len(plain)} untraced, {len(traced)} traced; decisions per invocation: {bench.decisions()}",
    ]
    ok = [inv["result"] for inv in plain if inv["result"] is not None]
    if not ok:
        raise MeasureError("no untraced invocation finished: " + "; ".join(problems[:3]))
    run_s = [r["run_s"] for r in ok]

    if not trace:
        samples = {
            "setup_s": [s["setup_s"] for s in setups],
            "run_s": run_s,
            "docs_per_s": [bench.decisions() / t for t in run_s],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        }
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        metrics["docs_per_s"] = bench.decisions() / metrics["run_s"]
        quality = [inv["checked"] for inv in invocations if not inv["checked"].failed_tasks]
        metrics["nmi_mean"] = quality[0].nmi_mean if quality else 0.0
        lines.append("end-to-end (medians):")
        for name, (unit, better) in END_TO_END.items():
            note = tail_note(samples[name]) if name in samples else "exact; repeats on every invocation"
            lines.append(f"  {name:<14} {metrics[name]:<12.6g} {unit:<6} ({better} is better; {note})")
        f1 = quality[0].f1_bar_mean if quality else None
        lines.append(f"  {'f1_bar_mean':<14} {'-' if f1 is None else f'{f1:.6g}':<12} ratio  (exact; classifier cells only)")
        lines.append(f"  {'fail_ratio':<14} {failed / attempted:<12.6g} ratio  ({failed} of {attempted} task operations)")
        for name in ("setup_s", "run_s"):
            lines.append(f"  {name} samples: " + " ".join(f"{v:.4g}" for v in samples[name]))
    else:
        metrics = traced_metrics(bench, traced, run_s, problems)
        lines.append("per-layer (medians over traced invocations; counts are exact):")
        for name, (unit, _) in PER_LAYER.items():
            lines.append(f"  {name:<46} {metrics[name]:<12.6g} {unit}")
    lines += [f"problem: {p}" for p in problems[:20]]
    summary = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed}
    units = END_TO_END if not trace else PER_LAYER
    summary["metrics"] = {name: {"value": metrics[name], "unit": units[name][0]} for name in units}
    return summary, lines


def traced_metrics(bench: Bench, traced: list[dict], run_s: list[float], problems: list[str]) -> dict[str, float]:
    done = [inv for inv in traced if inv["result"] is not None]
    if not done:
        raise MeasureError("no traced invocation finished")
    per_invocation = []
    for inv in done:
        missing = unreached(bench.workload, inv["spans"])
        if missing:
            raise UnmeasuredLayer(", ".join(missing))
        layers = layer_metrics(inv["spans"], bench.workload, len(bench.task_names))
        layers["cli.bytes_written"] = inv["checked"].bytes_written
        layers["process.cpu_s"] = inv["result"]["cpu_s"]
        per_invocation.append(layers)
    metrics = {}
    for name in per_invocation[0]:
        values = [layers[name] for layers in per_invocation]
        if name in EXACT and len(set(values)) > 1:
            problems.append(f"{name} differs between traced invocations: {values}")
        metrics[name] = values[0] if name in EXACT else statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(inv["result"]["run_s"] for inv in done) - statistics.median(run_s)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "namesift" / "__init__.py").is_file():
        print(f"error: no namesift source tree at {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        summary, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except UnmeasuredLayer as exc:
        print(f"error: the traced run never reached: {exc}", file=sys.stderr)
        return 3
    except MeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
