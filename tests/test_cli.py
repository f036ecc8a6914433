"""End-to-end command line tests driven through main(argv).

Every test takes the clean_env fixture so stray NAMESIFT_* variables in
the host environment cannot leak into the precedence chain.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import namesift.cli
import namesift.experiments
from namesift.cli import main
from namesift.corpus import NOISE_LABEL, load_corpus, write_task
from namesift.experiments import RunSpec, task_clusterings, validate_corpus
from namesift.features import FeatureConfig
from namesift.models import MODELS

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
    tasks = load_corpus(mini_corpus)
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
    assert "unknown model" in capsys.readouterr().err


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


def test_missing_stopword_file_is_usage_error(mini_corpus, clean_env, tmp_path, capsys):
    code = main(["classify", str(mini_corpus), "--model", "score", "--stopwords", str(tmp_path / "nope.txt")])
    assert code == 1
    assert "stopword" in capsys.readouterr().err


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
