"""End-to-end command line tests driven through main(argv).

Every test takes the clean_env fixture so stray NAMESIFT_* variables in
the host environment cannot leak into the precedence chain.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import namesift.cli
import namesift.experiments
from namesift.baselines import BASELINES
from namesift.cli import build_parser, main
from namesift.corpus import NOISE_LABEL, discover_tasks, load_task, write_task
from namesift.experiments import RunSpec, task_clusterings, validate_corpus
from namesift.features import IDF_NUMERATORS, INTERSECTION_SEMANTICS, LOG_BASES, NOISE_MODES, FeatureConfig
from namesift.models import LAPLACE_DENOMINATORS, MODELS
from namesift.synthetic import write_benchmark

from conftest import build_task, write_broken_task


# ---------------------------------------------------------------------------
# validate


def test_validate_ok_tsv(mini_corpus, clean_env, capsys):
    assert main(["validate", str(mini_corpus)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "directory\tname\tstatus\tproblems"
    assert len(lines) == 3
    assert "\tbaker\tok\t" in lines[1]
    assert "\tmason\tok\t" in lines[2]


def test_validate_json_format(mini_corpus, clean_env, capsys):
    assert main(["validate", str(mini_corpus), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert [t["name"] for t in payload["tasks"]] == ["baker", "mason"]


def test_validate_broken_task_exits_two(mini_corpus, clean_env, capsys):
    write_broken_task(mini_corpus)
    assert main(["validate", str(mini_corpus)]) == 2
    rows = [line for line in capsys.readouterr().out.splitlines() if "\tfail\t" in line]
    assert len(rows) == 1
    assert "gold" in rows[0]


def test_validate_malformed_manifest_is_a_diagnostic_not_a_crash(mini_corpus, clean_env, capsys):
    manifest_path = mini_corpus / "baker" / "task.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["entities"] = 5
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["validate", str(mini_corpus)]) == 2
    rows = [line for line in capsys.readouterr().out.splitlines() if "\tfail\t" in line]
    assert len(rows) == 1
    assert "entities must be a JSON list" in rows[0]


# Strings that may hold lone surrogates, which JSON escapes as \udXXX.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=4)
# Any JSON value.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _mostly(right, other=_JSON):
    """Nine times in ten a value of the right shape, else one of ``other``."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda keep: right if keep else other)


# Body files b0.txt and b1.txt exist (with generated bytes); the other paths
# are missing, escape the task directory, or name a directory.
_FILE = st.sampled_from(["b0.txt", "b1.txt", "missing.txt", "sub/../b1.txt", "../b0.txt", "/b0.txt", "", "sub"])
_ENTITY = st.fixed_dictionaries(
    {
        "id": _mostly(st.sampled_from(["e0", "e1", NOISE_LABEL])),
        "title": _mostly(_TEXT),
        "file": _mostly(_FILE),
    }
)
_DOCUMENT = st.fixed_dictionaries(
    {
        "id": _mostly(st.sampled_from(["d0", "d1", "e0"])),
        "url": _mostly(_TEXT),
        "rank": _mostly(st.integers(-1, 3)),
        "file": _mostly(_FILE),
    }
)
_MANIFEST = st.fixed_dictionaries(
    {
        "name": _mostly(st.text(st.characters(exclude_categories=()), min_size=1, max_size=4)),
        "entities": _mostly(st.lists(_mostly(_ENTITY), max_size=2)),
        "documents": _mostly(st.lists(_mostly(_DOCUMENT), max_size=2)),
    }
)
_MANIFEST_BYTES = st.one_of(
    _MANIFEST.map(lambda m: json.dumps(m).encode()),
    _MANIFEST.map(lambda m: json.dumps(m, ensure_ascii=False).encode("utf-8", "surrogatepass")),
    _JSON.map(lambda m: json.dumps(m).encode()),
    st.binary(max_size=40),
    # Nesting deeper than the decoder's recursion limit; an integer longer
    # than int() converts.
    st.sampled_from([b"[" * 100_000, b"1" * 5_000]),
)
_GOLD_ROWS = st.lists(
    st.sampled_from(["d0\te0", "d1\t" + NOISE_LABEL, "d0\te1", "d1\te9", "# note", "", "d1", "d0\te0\tx"]),
    max_size=3,
).map(lambda rows: "\n".join(rows).encode())
# None: no gold.tsv at all.
_GOLD_BYTES = _mostly(_GOLD_ROWS, st.none() | st.binary(max_size=30))
_BODY_BYTES = st.one_of(st.binary(max_size=20), st.text(max_size=20).map(str.encode))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    manifest=_MANIFEST_BYTES,
    gold=_GOLD_BYTES,
    bodies=st.lists(_BODY_BYTES, min_size=2, max_size=2),
    output_format=st.sampled_from(["tsv", "json"]),
)
def test_validate_never_raises_on_generated_tasks(clean_env, manifest, gold, bodies, output_format):
    """Every task ends ok or with problem strings, and the exit code is 0 or 2."""
    with tempfile.TemporaryDirectory() as root:
        task_dir = Path(root) / "t"
        (task_dir / "sub").mkdir(parents=True)
        (task_dir / "task.json").write_bytes(manifest)
        if gold is not None:
            (task_dir / "gold.tsv").write_bytes(gold)
        for i, body in enumerate(bodies):
            (task_dir / f"b{i}.txt").write_bytes(body)

        [result] = validate_corpus(root)
        assert result.ok != bool(result.problems)
        assert all(isinstance(problem, str) and problem for problem in result.problems)

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", root, "--format", output_format])
        assert code == (0 if result.ok else 2)
        # What a UTF-8 terminal would receive must be encodable.
        out.getvalue().encode("utf-8")
        err.getvalue().encode("utf-8")


# Task names and an entity id that task.json can carry but a raw TSV cell cannot.
_AWKWARD_NAMES = {"tab_newline": "a\tb\nc", "carriage": "back\\slash\r", "separator": "x\u2028y"}


def _write_awkward_corpus(root: Path) -> Path:
    for directory, name in _AWKWARD_NAMES.items():
        task = build_task(
            {"e\t1": "jazz guitar album", "e2": "protein enzyme cell"},
            {"d1": "jazz album", "d2": "enzyme cell", "d3": "lottery weather"},
            gold={"d1": NOISE_LABEL, "d2": "e2", "d3": NOISE_LABEL},
            name=name,
        )
        write_task(task, root / directory)
    return root


def test_validate_tsv_keeps_one_row_per_task_whatever_its_name(tmp_path, clean_env, capsys):
    root = _write_awkward_corpus(tmp_path / "corpus")
    assert main(["validate", str(root)]) == 0
    rows = capsys.readouterr().out.split("\n")
    assert rows.pop() == ""
    assert len(rows) == 1 + len(_AWKWARD_NAMES)
    assert all(len(row.split("\t")) == 4 for row in rows)
    assert [row.split("\t")[1] for row in rows[1:]] == ["back\\\\slash\\r", "x\u2028y", "a\\tb\\nc"]


def test_grid_tsv_keeps_one_row_per_task_whatever_its_name(tmp_path, clean_env, capsys):
    root = _write_awkward_corpus(tmp_path / "corpus")
    assert main(["grid", str(root), "--models", "cosine,score", "--noise-modes", "none"]) == 0
    rows = capsys.readouterr().out.split("\n")
    assert rows.pop() == ""
    assert len(rows) == 1 + 2 * (len(_AWKWARD_NAMES) + 1)
    assert all(len(row.split("\t")) == 8 for row in rows)
    assert [row.split("\t")[0] for row in rows[1:5]] == ["a\\tb\\nc", "back\\\\slash\\r", "x\u2028y", "aggregate"]


def test_assignment_tsv_keeps_one_row_per_document_whatever_its_class(tmp_path, clean_env, capsys):
    root = _write_awkward_corpus(tmp_path / "corpus")
    assert main(["classify", str(root), "--model", "score", "--output", str(tmp_path / "out")]) == 0
    paths = sorted((tmp_path / "out").glob("*.assignment.tsv"))
    assert len(paths) == len(_AWKWARD_NAMES)
    for path in paths:
        rows = path.read_text(encoding="utf-8").split("\n")
        assert rows.pop() == ""
        assert all(len(row.split("\t")) == 3 for row in rows)
        assert [row.split("\t")[:2] for row in rows] == [
            ["doc_id", "assigned"], ["d1", "e\\t1"], ["d2", "e2"], ["d3", "e\\t1"]
        ]


# Task name pieces: runs of characters a file name keeps, and runs it replaces by one "_".
_KEPT = st.text("Aaz09._-", min_size=1, max_size=3)
_REPLACED = st.text(" \t/\u00e9\u00e8\u2028!", min_size=1, max_size=2)


@st.composite
def _task_name_pairs(draw):
    """Two distinct task names; about half differ only inside their replaced runs."""
    pieces = draw(st.lists(st.tuples(_KEPT, _REPLACED), min_size=1, max_size=3))
    first = "".join(kept + replaced for kept, replaced in pieces)
    if draw(st.booleans()):
        second = "".join(kept + draw(_REPLACED | st.just("_")) for kept, _ in pieces)
    else:
        second = draw(st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6))
    assume(first != second)
    return first, second


def _file_name(task_name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", task_name)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(names=_task_name_pairs())
@example(names=("john porter", "john_porter"))
@example(names=("Jos\u00e9", "Jos\u00e8"))
@example(names=("john porter", "mary reilly"))
@example(names=("0\u00e8", "."))
@example(names=("..", "a"))
def test_tasks_sharing_an_output_file_are_refused_before_any_write(clean_env, names):
    collide = _file_name(names[0]) == _file_name(names[1])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        for i, name in enumerate(names):
            task = build_task({"e1": "jazz album", "e2": "enzyme cell"}, {"d1": "jazz", "d2": "cell"},
                              gold={"d1": "e1", "d2": "e2"}, name=name)
            write_task(task, root / f"t{i}")
        for argv, suffix in (
            (["classify", str(root), "--model", "score", "--scores"], ".assignment.tsv"),
            (["cluster", str(root), "--reps", "1"], ".hac_complete.json"),
        ):
            outdir = Path(tmp) / argv[0]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--output", str(outdir)])
            if collide:
                assert code == 1
                assert err.getvalue().startswith("usage error: tasks ")
                assert all(repr(name) in err.getvalue() for name in names)
                assert str(outdir / (_file_name(names[0]) + suffix)) in err.getvalue()
                assert list(outdir.iterdir()) == []
            else:
                assert code == 0, err.getvalue()
                for name in names:
                    assert (outdir / (_file_name(name) + suffix)).exists()
                if argv[0] == "cluster":
                    for name in names:
                        payload = json.loads((outdir / f"{_file_name(name)}.kmeans.json").read_text(encoding="utf-8"))
                        assert payload["task"] == name
        # Every file lands inside its --output directory, whatever the task's name.
        assert sorted(path.name for path in Path(tmp).iterdir()) == ["classify", "cluster", "corpus"]


def test_validate_empty_root_exits_two(tmp_path, clean_env, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["validate", str(empty)]) == 2
    assert "no task directories" in capsys.readouterr().err


def test_validate_output_file(mini_corpus, clean_env, tmp_path, capsys):
    out_file = tmp_path / "val.tsv"
    assert main(["validate", str(mini_corpus), "--output", str(out_file)]) == 0
    assert out_file.read_text(encoding="utf-8").startswith("directory\t")
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# classify


def test_classify_without_model_is_usage_error(mini_corpus, clean_env, capsys):
    assert main(["classify", str(mini_corpus)]) == 1
    assert "usage error" in capsys.readouterr().err


def test_classify_scores_require_output_dir(mini_corpus, clean_env, capsys):
    assert main(["classify", str(mini_corpus), "--model", "score", "--scores"]) == 1
    assert "--output" in capsys.readouterr().err


def test_classify_stdout_report(mini_corpus, clean_env, capsys):
    assert main(["classify", str(mini_corpus), "--model", "score", "--noise", "union"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("task\tmodel\tnoise")
    assert [row.split("\t")[0] for row in lines[1:]] == ["baker", "mason", "aggregate"]
    assert lines[1].split("\t")[1:3] == ["score", "union"]


def test_classify_writes_assignments_and_reports(mini_corpus, clean_env, tmp_path, capsys):
    outdir = tmp_path / "out"
    code = main(
        [
            "classify",
            str(mini_corpus),
            "--model",
            "score",
            "--noise",
            "union",
            "--output",
            str(outdir),
            "--scores",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    for name in ("report.tsv", "report.json"):
        assert (outdir / name).exists()
    tsv = (outdir / "baker.assignment.tsv").read_text(encoding="utf-8").splitlines()
    assert tsv[0] == "doc_id\tassigned\tscore"
    assert len(tsv) == 5
    scores = json.loads((outdir / "baker.scores.json").read_text(encoding="utf-8"))
    assert set(scores) == {"d1", "d2", "d3", "d4"}
    assert set(scores["d1"]) == {"e1", "e2", NOISE_LABEL}
    assert (outdir / "mason.assignment.tsv").exists()


def test_classify_task_filter(mini_corpus, clean_env, capsys):
    assert main(["classify", str(mini_corpus), "--model", "score", "--tasks", "mason"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[0] for row in lines[1:]] == ["mason", "aggregate"]


def test_task_filter_drops_other_tasks_before_reading_their_bodies(tmp_path, clean_env, capsys):
    corpus = tmp_path / "corpus"
    write_benchmark(corpus)
    other = write_task(build_task({"e1": "x"}, {"d1": "y"}, name="Someone Else"), corpus / "someone")
    (other / "documents" / "d000.txt").unlink()
    args = ["classify", str(corpus), "--model", "cosine", "--tasks", "John Porter"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    assert [row.split("\t")[0] for row in captured.out.splitlines()[1:]] == ["John Porter", "aggregate"]
    # A manifest that cannot be parsed names no task, so it is still reported.
    (other / "task.json").write_text("{", encoding="utf-8")
    assert main(args) == 3
    assert "warning: skipped" in capsys.readouterr().err


def test_classify_empty_root_exits_two(tmp_path, clean_env, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["classify", str(empty), "--model", "score"]) == 2
    assert "no loadable tasks" in capsys.readouterr().err


def test_classify_partial_failure_exits_three(mini_corpus, clean_env, capsys):
    write_broken_task(mini_corpus)
    code = main(["classify", str(mini_corpus), "--model", "score"])
    captured = capsys.readouterr()
    assert code == 3
    assert "warning: skipped" in captured.err
    assert captured.out.startswith("task\t")


# ---------------------------------------------------------------------------
# cluster


def test_cluster_writes_files(mini_corpus, clean_env, tmp_path, capsys):
    outdir = tmp_path / "clout"
    assert main(["cluster", str(mini_corpus), "--reps", "3", "--output", str(outdir)]) == 0
    for name in ("baker", "mason"):
        for method in ("hac_complete", "kmeans"):
            payload = json.loads((outdir / f"{name}.{method}.json").read_text(encoding="utf-8"))
            assert payload["task"] == name
            assert payload["method"] == method
            assert len(payload["runs"]) == (1 if method == "hac_complete" else 3)
    assert (outdir / "clusters.tsv").exists()
    assert (outdir / "clusters.json").exists()


def test_cluster_output_computes_each_clustering_once(mini_corpus, clean_env, tmp_path, capsys):
    tasks = [load_task(p) for p in discover_tasks(mini_corpus)]
    expected = {
        (task.name, method): [c.to_dict() for c in task_clusterings(task, method, FeatureConfig(), reps=3)]
        for task in tasks
        for method in ("hac_complete", "kmeans")
    }
    calls = {"hac_complete": 0, "run_repetitions": 0}

    def counted(name):
        original = getattr(namesift.experiments, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        clean_env.setattr(namesift.experiments, name, wrapper)

    counted("hac_complete")
    counted("run_repetitions")
    outdir = tmp_path / "clout"
    assert main(["cluster", str(mini_corpus), "--reps", "3", "--output", str(outdir)]) == 0
    assert calls == {"hac_complete": len(tasks), "run_repetitions": len(tasks)}
    for (name, method), runs in expected.items():
        payload = json.loads((outdir / f"{name}.{method}.json").read_text(encoding="utf-8"))
        assert payload["runs"] == runs


def test_cluster_stdout_single_method(mini_corpus, clean_env, capsys):
    assert main(["cluster", str(mini_corpus), "--method", "hac_complete"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("task\tmodel\tnoise")
    assert all(row.split("\t")[1] == "hac_complete" for row in lines[1:])


# ---------------------------------------------------------------------------
# grid and report


def test_grid_writes_three_artifacts_and_is_deterministic(mini_corpus, clean_env, tmp_path, capsys):
    argv = [
        "grid",
        str(mini_corpus),
        "--models",
        "cosine,score",
        "--noise-modes",
        "none,union",
        "--baselines",
        "--reps",
        "2",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    for name in ("grid.tsv", "grid.json", "pivot.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    payload = json.loads((a / "grid.json").read_text(encoding="utf-8"))
    assert len(payload["reports"]) == 2 * 2 + 2
    pivot = (a / "pivot.tsv").read_text(encoding="utf-8").splitlines()
    assert pivot[0] == "model\tnone\tunion\t-"


def test_grid_rejects_unknown_model(mini_corpus, clean_env, capsys):
    assert main(["grid", str(mini_corpus), "--models", "bogus"]) == 1
    assert "'bogus'" in capsys.readouterr().err


def test_grid_models_all_keyword(mini_corpus, clean_env, capsys):
    code = main(["grid", str(mini_corpus), "--models", "all", "--noise-modes", "none", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["model"] for r in payload["reports"]] == list(MODELS)


def test_report_pivots_saved_grid(mini_corpus, clean_env, tmp_path, capsys):
    outdir = tmp_path / "g"
    assert main(["grid", str(mini_corpus), "--models", "cosine", "--noise-modes", "none,union", "--output", str(outdir)]) == 0
    capsys.readouterr()
    assert main(["report", str(outdir / "grid.json")]) == 0
    out = capsys.readouterr().out
    # rebuilding reports from JSON reproduces the pivot written by grid
    assert out == (outdir / "pivot.tsv").read_text(encoding="utf-8")
    assert main(["report", str(outdir / "grid.json"), "--metric", "purity"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "model\tnone\tunion"


def test_report_missing_file_is_usage_error(tmp_path, clean_env, capsys):
    assert main(["report", str(tmp_path / "nope.json")]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [[], {"reports": 5}, {"reports": [{"model": "x"}]}, {"reports": [{"model": 1, "noise": "", "per_task": {}, "aggregate": {}}]}],
    ids=["array", "reports_not_a_list", "missing_key", "model_not_a_string"],
)
def test_report_names_a_malformed_grid_file(tmp_path, clean_env, capsys, payload):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: grid file") and str(path) in err


_METRICS = st.dictionaries(
    st.sampled_from(["purity", "nmi", "micro_f1", "macro_f1", "f1_bar", "recall"]),
    _mostly(st.none() | st.floats(0.0, 1.0)),
    max_size=2,
)
_REPORT_KEYS = {
    "model": _mostly(st.sampled_from(["cosine", "kmeans"])),
    "noise": _mostly(st.sampled_from(["", "none", None])),
    "per_task": _mostly(st.dictionaries(_TEXT, _mostly(_METRICS), max_size=2)),
    "aggregate": _mostly(_METRICS),
}
# Nine in ten reports have every key; the rest are any JSON value or lack keys.
_REPORT = _mostly(
    st.fixed_dictionaries(_REPORT_KEYS, optional={"config": _JSON}),
    _JSON | st.fixed_dictionaries({}, optional=_REPORT_KEYS),
)
_GRID_BYTES = _mostly(
    _mostly(st.fixed_dictionaries({"reports": _mostly(st.lists(_REPORT, max_size=3))})).map(
        lambda g: json.dumps(g).encode()
    ),
    st.binary(max_size=20),
)


@settings(max_examples=200, deadline=None)
@given(grid=_GRID_BYTES, metric=st.sampled_from(["f1_bar", "nmi"]))
def test_report_never_raises_on_generated_grid_files(grid, metric):
    """A saved grid pivots, or the command names the file and exits 1."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "grid.json"
        path.write_bytes(grid)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["report", str(path), "--metric", metric])
    assert code in (0, 1)
    if code == 1:
        assert str(path) in err.getvalue()
    else:
        assert out.getvalue().startswith("model\t")
    out.getvalue().encode("utf-8")
    err.getvalue().encode("utf-8")


_GRID_JSON = {
    "reports": [
        {"model": "cosine", "noise": "none", "per_task": {"t": {"f1_bar": 0.5}}, "aggregate": {"f1_bar": 0.5}},
        {"model": "kmeans", "noise": "", "per_task": {}, "aggregate": {"f1_bar": 0.25, "nmi": None}},
    ]
}
# Setting names from the settings table and others; any value an environment can hold.
_ENV_NAMES = st.sampled_from([key.upper() for key, *_ in namesift.cli._SETTINGS.values()]) | st.text(
    "ABJOSX_", min_size=1, max_size=6
)
_ENV_VALUES = st.sampled_from(["x", "", "xml", "1.5", "-1", "0", "2", "maybe", "all"]) | st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=5
)
# Each subcommand's long flags, written out by hand: a setting's flag is
# "--" plus its config key with "-" for "_", so these also name the
# settings each subcommand reads.
_FLAGS = {
    "validate": {"--output", "--config", "--format", "--strip-html", "--stopwords"},
    "classify": {
        "--output", "--scores", "--tasks", "--config", "--model", "--noise", "--idf-numerator", "--log-base",
        "--intersection-semantics", "--alpha", "--lambda", "--laplace-denominator", "--format", "--strip-html",
        "--stopwords",
    },
    "cluster": {
        "--method", "--output", "--tasks", "--config", "--idf-numerator", "--log-base", "--format", "--reps",
        "--strip-html", "--stopwords",
    },
    "grid": {
        "--baselines", "--output", "--tasks", "--config", "--models", "--noise-modes", "--idf-numerator",
        "--log-base", "--intersection-semantics", "--alpha", "--lambda", "--laplace-denominator", "--format",
        "--reps", "--strip-html", "--stopwords",
    },
    "report": {"--metric"},
}


def test_each_subcommand_has_exactly_its_flags():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = {
        name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, parser in commands.items()
    }
    assert flags == _FLAGS
    assert not flags["validate"] & {"--idf-numerator", "--log-base", "--intersection-semantics", "--tasks"}
    assert "--intersection-semantics" not in flags["cluster"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(sorted(_FLAGS)),
    environment=st.dictionaries(_ENV_NAMES, _ENV_VALUES, min_size=1, max_size=4),
)
@example(command="report", environment={"ALPHA": "x"})
@example(
    command="report", environment={"FORMAT": "xml", "REPS": "1.5", "STRIP_HTML": "maybe", "STOPWORDS": "/no/such/file"}
)
@example(command="validate", environment={"ALPHA": "x"})
@example(command="classify", environment={"REPS": "0"})
@example(command="cluster", environment={"ALPHA": "x"})
@example(command="cluster", environment={"LAMBDA": "2"})
def test_a_subcommand_ignores_settings_it_does_not_read(mini_corpus, command, environment):
    """NAMESIFT_* values, good or bad, of settings a subcommand does not read leave its run as in a clean one."""
    flags = _FLAGS[command]
    unread = {key: value for key, value in environment.items() if f"--{key.lower().replace('_', '-')}" not in flags}
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        path = Path(root) / "grid.json"
        path.write_text(json.dumps(_GRID_JSON), encoding="utf-8")
        argv = {
            "validate": ["validate", str(mini_corpus)],
            "classify": ["classify", str(mini_corpus), "--model", "cosine"],
            "cluster": ["cluster", str(mini_corpus), "--reps", "2"],
            "grid": ["grid", str(mini_corpus), "--models=cosine", "--noise-modes=none", "--baselines", "--reps=2"],
            "report": ["report", str(path)],
        }[command]
        for key in [key for key in os.environ if key.startswith("NAMESIFT_")]:
            mp.delenv(key)
        runs = []
        for variables in ({}, unread):
            for key, value in variables.items():
                mp.setenv(f"NAMESIFT_{key}", value)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                runs.append((main(argv), out.getvalue(), err.getvalue()))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]


# A bad value of each checked setting: (subcommand, config key, value).
_BAD_SETTINGS = [
    ("classify", "model", "bogus"),
    ("classify", "noise", "bogus"),
    ("grid", "models", "bogus"),
    ("grid", "noise_modes", "bogus"),
    ("grid", "alpha", "-1"),
    ("grid", "lambda", "2"),
    ("grid", "idf_numerator", "bogus"),
    ("grid", "log_base", "3"),
]
_CHOICE_FLAGS = ("model", "noise", "idf_numerator", "log_base")


@pytest.mark.parametrize("empty_root", [False, True])
@pytest.mark.parametrize("source", ["flag", "environment", "config"])
@pytest.mark.parametrize("command, key, value", _BAD_SETTINGS)
def test_a_bad_setting_fails_before_any_task_loads(
    mini_corpus, clean_env, tmp_path, capsys, command, key, value, source, empty_root
):
    root = tmp_path / "empty" if empty_root else mini_corpus
    root.mkdir(exist_ok=True)
    argv = [command, str(root)] + (["--model", "cosine"] if command == "classify" and key != "model" else [])
    if source == "flag":
        argv.append(f"--{key.replace('_', '-')}={value}")
    elif source == "environment":
        clean_env.setenv(f"NAMESIFT_{key.upper()}", value)
    else:
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        argv += ["--config", str(config)]
    loads = []
    load_task = namesift.experiments.load_task
    clean_env.setattr(namesift.experiments, "load_task", lambda *a, **k: loads.append(a) or load_task(*a, **k))
    assert main(argv) == 1
    err = capsys.readouterr().err
    # argparse checks a flag with choices itself; the config classes check every other value.
    expected = "usage error: argument" if source == "flag" and key in _CHOICE_FLAGS else "configuration error: "
    assert err.startswith(expected) and value in err
    assert loads == []


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("ALPHA", "x", "alpha expects a number, got 'x'"),
        ("REPS", "1.5", "reps expects an integer, got '1.5'"),
        ("STRIP_HTML", "maybe", "strip_html must be a boolean, got 'maybe'"),
        ("FORMAT", "xml", "format must be one of tsv, json, got 'xml'"),
    ],
)
def test_a_bad_setting_fails_grid_but_not_report(mini_corpus, clean_env, tmp_path, capsys, key, value, message):
    outdir = tmp_path / "g"
    assert main(["grid", str(mini_corpus), "--models", "cosine", "--noise-modes", "none", "--output", str(outdir)]) == 0
    capsys.readouterr()
    clean_env.setenv(f"NAMESIFT_{key}", value)
    assert main(["report", str(outdir / "grid.json")]) == 0
    assert capsys.readouterr().out == (outdir / "pivot.tsv").read_text(encoding="utf-8")
    assert main(["grid", str(mini_corpus)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


_TSV_UNESCAPES = {"\\": "\\", "t": "\t", "r": "\r", "n": "\n"}
# Names that hold every character a TSV cell escapes, and line breaks it does not.
# No lone surrogates: `report` refuses a grid file that holds one.
_NAME = st.text(st.sampled_from("ab-\t\r\n\\\x85\u2028é") | st.characters(exclude_categories=("Cs",)), max_size=5)


def _tsv_uncell(cell: str) -> str:
    return re.sub(r"\\(.)", lambda m: _TSV_UNESCAPES[m.group(1)], cell, flags=re.DOTALL)


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(st.tuples(_NAME, _NAME, st.none() | st.floats(0.0, 1.0)), min_size=1, max_size=4))
def test_report_round_trips_arbitrary_model_and_noise_names(cells):
    """Split on LF and tab alone, the pivot gives back every name and value."""
    grid = {"reports": [{"model": m, "noise": n, "per_task": {}, "aggregate": {"f1_bar": v}} for m, n, v in cells]}
    rows: dict[str, dict[str, float | None]] = {}
    columns: list[str] = []
    for model, noise, value in cells:
        column = noise or "-"
        columns += [column] if column not in columns else []
        rows.setdefault(model, {})[column] = value
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["report", str(path)]) == 0
    lines = out.getvalue().split("\n")
    assert lines.pop() == ""
    table = [[_tsv_uncell(cell) for cell in line.split("\t")] for line in lines]
    assert table[0] == ["model", *columns]
    assert [row[0] for row in table[1:]] == list(rows)
    for row in table[1:]:
        values = rows[row[0]]
        assert row[1:] == ["" if values.get(c) is None else f"{values[c]:.6f}" for c in columns]


# ---------------------------------------------------------------------------
# unwritable outputs and unreadable inputs


@pytest.mark.parametrize("command", ["grid", "cluster", "classify", "validate"])
@pytest.mark.parametrize("where", ["taken", "under_a_file"])
def test_blocked_output_path_is_a_usage_error(mini_corpus, clean_env, tmp_path, capsys, command, where):
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "dir").mkdir()
    # validate's --output names a file, so a directory is what blocks it.
    taken = tmp_path / ("dir" if command == "validate" else "file")
    output = taken if where == "taken" else tmp_path / "file" / "sub"
    extra = ["--model", "cosine"] if command == "classify" else []
    assert main([command, str(mini_corpus), "--output", str(output), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot write") and str(output) in err


@pytest.mark.parametrize("command", ["grid", "cluster", "classify", "validate"])
def test_empty_output_is_a_usage_error(mini_corpus, clean_env, tmp_path, capsys, command):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    clean_env.chdir(cwd)
    extra = ["--model", "cosine"] if command == "classify" else []
    assert main([command, str(mini_corpus), "--output", "", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: --output") and captured.out == ""
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("command", ["grid", "cluster", "classify"])
def test_blocked_output_directory_fails_before_any_task_loads(mini_corpus, clean_env, tmp_path, capsys, command):
    taken = tmp_path / "file"
    taken.write_text("", encoding="utf-8")
    loads = []
    load_task = namesift.experiments.load_task
    clean_env.setattr(namesift.experiments, "load_task", lambda *a, **k: loads.append(a) or load_task(*a, **k))
    extra = ["--model", "cosine"] if command == "classify" else []
    assert main([command, str(mini_corpus), "--output", str(taken), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot write") and str(taken) in err
    assert loads == []


def test_non_utf8_input_files_are_named(mini_corpus, clean_env, tmp_path, capsys):
    latin = tmp_path / "latin1.txt"
    latin.write_bytes("caf\xe9 {}".encode("latin-1"))
    for argv in (
        ["classify", str(mini_corpus), "--model", "score", "--stopwords", str(latin)],
        ["classify", str(mini_corpus), "--model", "score", "--config", str(latin)],
        ["report", str(latin)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(latin) in err and "utf-8" in err


# ---------------------------------------------------------------------------
# configuration precedence


def test_settings_precedence_flag_env_file(mini_corpus, clean_env, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"model": "cosine", "alpha": 0.2, "lambda": 0.25}), encoding="utf-8")
    clean_env.setenv("NAMESIFT_MODEL", "score")
    clean_env.setenv("NAMESIFT_ALPHA", "0.3")
    code = main(
        ["classify", str(mini_corpus), "--model", "score_smoothed", "--config", str(config), "--format", "json"]
    )
    assert code == 0
    fingerprint = json.loads(capsys.readouterr().out)["reports"][0]["config"]
    assert fingerprint["model"] == "score_smoothed"  # flag beats environment and file
    assert fingerprint["alpha"] == 0.3  # environment beats file
    assert fingerprint["lambda"] == 0.25  # file beats the 0.5 default


def test_built_in_defaults_are_the_run_spec_defaults(mini_corpus, clean_env, capsys):
    specs = []
    run_grid = namesift.cli.run_grid

    def capture(spec):
        specs.append(spec)
        return run_grid(spec)

    clean_env.setattr(namesift.cli, "run_grid", capture)
    assert main(["grid", str(mini_corpus)]) == 0
    assert specs == [RunSpec(corpus_root=mini_corpus)]


@pytest.mark.parametrize(
    "flag, values",
    [
        ("--idf-numerator", IDF_NUMERATORS),
        ("--log-base", LOG_BASES),
        ("--intersection-semantics", INTERSECTION_SEMANTICS),
        ("--laplace-denominator", LAPLACE_DENOMINATORS),
        ("--model", MODELS),
        ("--noise", NOISE_MODES),
        ("--method", (*BASELINES, "both")),
        ("--format", ("tsv", "json")),
    ],
)
def test_flag_choices_are_the_library_values(flag, values):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    actions = [a for parser in commands.values() for a in parser._actions if flag in a.option_strings]
    assert actions
    for action in actions:
        assert tuple(action.choices) == values


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    value=st.sampled_from(["tsv", "json", "jsno", "xml", "TSV", " json"])
    | st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=5),
    source=st.sampled_from(["environment", "config"]),
)
def test_format_from_environment_or_config_must_be_a_flag_choice(mini_corpus, clean_env, value, source):
    clean_env.delenv("NAMESIFT_FORMAT", raising=False)
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["validate", str(mini_corpus)]
        if source == "environment":
            clean_env.setenv("NAMESIFT_FORMAT", value)
        else:
            config = Path(tmp) / "conf.json"
            config.write_text(json.dumps({"format": value}), encoding="utf-8")
            argv += ["--config", str(config)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if value in namesift.cli._FORMATS:
        assert code == 0
        assert out.getvalue().startswith("{" if value == "json" else "directory\t")
    else:
        assert code == 1
        assert err.getvalue() == f"usage error: format must be one of tsv, json, got {value!r}\n"
        assert out.getvalue() == ""


def test_environment_supplies_model(mini_corpus, clean_env, capsys):
    clean_env.setenv("NAMESIFT_MODEL", "cosine")
    assert main(["classify", str(mini_corpus)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split("\t")[1] == "cosine"


def test_environment_model_list_for_grid(mini_corpus, clean_env, capsys):
    clean_env.setenv("NAMESIFT_MODELS", "cosine,score")
    clean_env.setenv("NAMESIFT_NOISE_MODES", "none")
    assert main(["grid", str(mini_corpus), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["model"] for r in payload["reports"]] == ["cosine", "score"]


def test_invalid_environment_value_is_usage_error(mini_corpus, clean_env, capsys):
    clean_env.setenv("NAMESIFT_ALPHA", "not-a-number")
    assert main(["classify", str(mini_corpus), "--model", "score"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_config_file_errors(mini_corpus, clean_env, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    assert main(["classify", str(mini_corpus), "--model", "score", "--config", str(bad)]) == 1
    assert main(["classify", str(mini_corpus), "--model", "score", "--config", str(tmp_path / "missing.json")]) == 1
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    assert main(["classify", str(mini_corpus), "--model", "score", "--config", str(arr)]) == 1
    # A top-level list nested as deep as the reader can decode, and one level
    # past it: each is a usage error, never a traceback.
    deep = tmp_path / "deep.json"
    depth = sys.getrecursionlimit()
    while True:
        deep.write_text("[" * depth + "]" * depth, encoding="utf-8")
        assert main(["classify", str(mini_corpus), "--model", "score", "--config", str(deep)]) == 1
        err = capsys.readouterr().err
        if "is not valid JSON" not in err:
            break
        depth -= 1
    assert "must hold a JSON object" in err and depth < sys.getrecursionlimit()


@pytest.mark.parametrize(
    "setting",
    [{"reps": 1e400}, {"reps": 2.5}, {"reps": 2.0}, {"reps": True}, {"reps": "many"}, {"alpha": True},
     {"lambda": False}, {"alpha": 10**400}, {"alpha": [0.5]}, {"reps": {}}, {"reps": "\ud800"}],
)
def test_config_numbers_must_have_the_setting_type(mini_corpus, clean_env, tmp_path, capsys, setting):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(setting), encoding="utf-8")
    assert main(["grid", str(mini_corpus), "--models", "score", "--noise-modes", "none", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    (key,) = setting
    assert err.startswith("usage error: ") and key in err


def test_config_numbers_of_the_setting_type_are_taken(mini_corpus, clean_env, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"reps": 2, "alpha": 1, "lambda": 0.25}), encoding="utf-8")
    specs = []
    run_grid = namesift.cli.run_grid
    clean_env.setattr(namesift.cli, "run_grid", lambda spec: specs.append(spec) or run_grid(spec))
    assert main(["grid", str(mini_corpus), "--models", "score", "--noise-modes", "none", "--config", str(config)]) == 0
    assert (specs[0].reps, specs[0].alpha, specs[0].jm_lambda) == (2, 1.0, 0.25)
    assert type(specs[0].alpha) is float


# Config keys the grid command resolves, each with a generated JSON value.
_CONFIG = st.dictionaries(
    st.sampled_from(
        ["reps", "alpha", "lambda", "strip_html", "idf_numerator", "log_base", "intersection_semantics",
         "laplace_denominator", "format", "model", "noise"]
    ),
    _JSON | st.integers(min_value=-(10**400), max_value=10**400) | st.sampled_from([1e400, -1e400, 0.5, 2.0]),
    max_size=4,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_CONFIG)
def test_grid_never_raises_on_generated_config_values(mini_corpus, clean_env, config):
    """Each config value is taken, or the command names its key and exits 1."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "conf.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["grid", str(mini_corpus), "--models", "score", "--noise-modes", "none", "--config", str(path)])
    assert code in (0, 1)
    if code == 1:
        assert any(key in err.getvalue() for key in config)


def test_missing_stopword_file_is_usage_error(mini_corpus, clean_env, tmp_path, capsys):
    code = main(["classify", str(mini_corpus), "--model", "score", "--stopwords", str(tmp_path / "nope.txt")])
    assert code == 1
    assert "stopword" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("args", "what"),
    [(["grid", "CORPUS", "--stopwords", "FIFO"], "stopword file"),
     (["grid", "CORPUS", "--config", "FIFO"], "config file"),
     (["report", "FIFO"], "grid file")],
)
def test_a_fifo_given_as_an_input_file_is_refused_without_waiting_for_a_writer(mini_corpus, tmp_path, args, what):
    # A blocking open waits for a writer that never comes, so the command
    # runs in a subprocess that the test can time out.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = [{"CORPUS": str(mini_corpus), "FIFO": str(fifo)}.get(arg, arg) for arg in args]
    env = {k: v for k, v in os.environ.items() if not k.startswith("NAMESIFT_")}
    proc = subprocess.run(
        [sys.executable, "-m", "namesift.cli", *argv],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=30,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"usage error: cannot read {what} {fifo} (not a regular file)\n"


def test_jobs_flag_is_a_usage_error(mini_corpus, clean_env, capsys):
    assert main(["grid", str(mini_corpus), "--jobs", "2"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--jobs" in err


def test_jobs_setting_is_ignored_like_any_unknown_key(mini_corpus, clean_env, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"jobs": 0}), encoding="utf-8")
    clean_env.setenv("NAMESIFT_JOBS", "not-a-number")
    assert main(["grid", str(mini_corpus), "--config", str(config)]) == 0


def test_missing_subcommand_is_usage_error(clean_env, capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# installed entry point


def test_module_entry_point_subprocess(mini_corpus):
    env = {k: v for k, v in os.environ.items() if not k.startswith("NAMESIFT_")}
    proc = subprocess.run(
        [sys.executable, "-m", "namesift.cli", "validate", str(mini_corpus)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("directory\t")
