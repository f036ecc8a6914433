"""Tests of the benchmark itself: corpus generation, span arithmetic, output check.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from check import check_output, digest_tree  # noqa: E402
from tracing import Tracer, covered, self_times  # noqa: E402
from workloads import WORKLOADS, Shape, generate  # noqa: E402

TINY = Shape(tasks=2, entities=2, profile_tokens=80, documents=8, document_tokens=25, vocabulary=300, noise_share=0.25)


def _tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], shape=TINY)


def _span(id, start, end, parent=None, name="x", **attrs):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "run": "r", "attrs": attrs}


def test_same_seed_same_bytes_and_other_seed_other_bytes(tmp_path):
    shape = WORKLOADS["zipf_cluster"].shape
    generate(tmp_path / "a", "zipf_cluster", shape, seed=5)
    generate(tmp_path / "b", "zipf_cluster", shape, seed=5)
    generate(tmp_path / "c", "zipf_cluster", shape, seed=6)
    assert digest_tree(tmp_path / "a") == digest_tree(tmp_path / "b")
    assert digest_tree(tmp_path / "a")[0] != digest_tree(tmp_path / "c")[0]


def test_generated_corpus_matches_its_shape(tmp_path):
    tasks = generate(tmp_path / "corpus", "zipf_grid", TINY, seed=1)
    assert [t["name"] for t in tasks] == ["zipf_grid-000", "zipf_grid-001"]
    manifest = json.loads((tmp_path / "corpus" / "t000" / "task.json").read_text())
    assert len(manifest["entities"]) == TINY.entities
    assert len(manifest["documents"]) == TINY.documents
    gold = (tmp_path / "corpus" / "t000" / "gold.tsv").read_text().splitlines()
    assert sum(line.endswith("\t__NOISE__") for line in gold) == TINY.documents - tasks[0]["kept_documents"] == 2
    body = (tmp_path / "corpus" / "t000" / "documents" / "d000.txt").read_text()
    assert len(body.split()) == TINY.document_tokens


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 3), (2, 4), (8, 12)], 0, 10) == 5
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 6.0, 7.5, parent=0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.5)
    # Self times of a call tree add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_records_nesting_and_restores():
    class Layer:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Layer.inner(x) * 2

    tracer = Tracer("t")
    tracer.wrap(Layer, "inner", "inner")
    tracer.wrap(Layer, "outer", "outer", lambda args, result: {"result": result})
    assert Layer.outer(1) == 4
    tracer.restore()
    assert Layer.outer(1) == 4
    outer, inner = sorted(tracer.spans, key=lambda s: s["name"], reverse=True)
    assert len(tracer.spans) == 2
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert outer["attrs"] == {"result": 4}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def _invoke(workload, corpus: Path, output: Path, tracer: Tracer | None = None) -> int:
    import namesift.cli

    if tracer is not None:
        tracer.wrap_all()
    try:
        return namesift.cli.main(workload.argv(corpus, output))
    finally:
        if tracer is not None:
            tracer.restore()


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("grid")
    workload = _tiny("many_small_grid")
    tasks = generate(root / "corpus", workload.name, workload.shape, seed=3)
    tracer = Tracer("grid")
    code = _invoke(workload, root / "corpus", root / "out", tracer)
    return workload, [t["name"] for t in tasks], root, code, tracer.spans


def test_untampered_output_passes(grid_run):
    workload, names, root, code, _ = grid_run
    checked = check_output(root / "out", workload, names, code)
    assert code == 0
    assert checked.failed_tasks == set() and checked.problems == []
    assert 0.0 < checked.nmi_mean <= 1.0 and 0.0 < checked.f1_bar_mean <= 1.0


def _tampered(root: Path, tmp_path: Path, edit) -> Path:
    out = tmp_path / "out"
    out.mkdir()
    for path in (root / "out").iterdir():
        (out / path.name).write_bytes(path.read_bytes())
    grid = json.loads((out / "grid.json").read_text())
    edit(grid)
    (out / "grid.json").write_text(json.dumps(grid, indent=2) + "\n")
    return out


def test_check_catches_out_of_range_metric(grid_run, tmp_path):
    workload, names, root, code, _ = grid_run

    def edit(grid):
        grid["reports"][4]["per_task"][names[1]]["nmi"] = 1.5

    checked = check_output(_tampered(root, tmp_path, edit), workload, names, code)
    assert checked.failed_tasks == {names[1]}


def test_check_catches_missing_task_and_missing_row(grid_run, tmp_path):
    workload, names, root, code, _ = grid_run

    def edit(grid):
        del grid["reports"][0]["per_task"][names[0]]
        del grid["reports"][-1]

    checked = check_output(_tampered(root, tmp_path, edit), workload, names, code)
    assert checked.failed_tasks == set(names)
    assert any("report rows" in p for p in checked.problems)


def test_check_catches_changed_bytes(grid_run, tmp_path):
    workload, names, root, code, _ = grid_run

    def edit(grid):
        grid["reports"][2]["aggregate"]["purity"] *= 0.999

    first = check_output(root / "out", workload, names, code)
    again = check_output(_tampered(root, tmp_path, edit), workload, names, code)
    assert again.failed_tasks == set()
    assert again.digest != first.digest


def test_check_fails_every_task_on_nonzero_exit(grid_run):
    workload, names, root, _, _ = grid_run
    assert check_output(root / "out", workload, names, 3).failed_tasks == set(names)


def test_traced_grid_reaches_every_required_layer(grid_run):
    workload, names, _, _, spans = grid_run
    assert run.unreached(workload, spans) == []
    layers = run.layer_metrics(spans, workload, len(names))
    assert layers["models.map_documents.p50_ms"] > 0
    assert layers["experiments.task_clusterings.per_task_method"] == 1.0
    assert layers["evaluation.evaluate.calls"] == len(names) * 15
    assert all(layers[f"models.fit.{m}.s"] > 0 for m in workload.models)


def test_renamed_entry_point_is_reported_unreached(grid_run):
    workload, _, _, _, spans = grid_run
    without_smoothing = [s for s in spans if s["name"] != "models.smooth"]
    assert run.unreached(workload, without_smoothing) == ["models.smooth"]


def test_cluster_output_is_checked_and_traced(tmp_path):
    workload = _tiny("zipf_cluster")
    names = [t["name"] for t in generate(tmp_path / "corpus", workload.name, workload.shape, seed=4)]
    tracer = Tracer("cluster")
    code = _invoke(workload, tmp_path / "corpus", tmp_path / "out", tracer)
    checked = check_output(tmp_path / "out", workload, names, code)
    assert code == 0 and checked.problems == []
    assert run.unreached(workload, tracer.spans) == []
    # cluster --output clusters every task twice and loads it twice.
    layers = run.layer_metrics(tracer.spans, workload, len(names))
    assert layers["experiments.task_clusterings.per_task_method"] == 2.0
    assert layers["corpus.load_task.calls"] == 2 * len(names)

    (tmp_path / "out" / f"{names[0]}.kmeans.json").unlink()
    assert check_output(tmp_path / "out", workload, names, code).failed_tasks == {names[0]}


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for listed in spec["workloads"]:
        assert listed["why"] == WORKLOADS[listed["name"]].why
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
