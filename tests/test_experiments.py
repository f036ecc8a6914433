"""Experiment driver tests: task loading, the configuration grid, reports."""

from __future__ import annotations

import json
import math
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import namesift.evaluation
import namesift.models
from namesift.baselines import BASELINES
from namesift.corpus import NOISE_LABEL, CorpusIntegrityError, write_task
from namesift.evaluation import EvalReport, clustering_eval_filter, evaluate_assignment, nmi, purity
from namesift.features import NOISE_MODES, ConfigError, FeatureConfig
from namesift.experiments import (
    RunSpec,
    grid_json_dict,
    grid_tsv,
    load_tasks,
    pivot_tsv,
    run_grid,
    task_clusterings,
    validate_corpus,
)
from namesift.models import MODELS, ModelConfig, TaskResources, map_documents

from conftest import build_task, write_broken_task, write_mini_corpus


# ---------------------------------------------------------------------------
# RunSpec


def test_run_spec_needs_some_work(tmp_path):
    with pytest.raises(ValueError):
        RunSpec(corpus_root=tmp_path, models=(), hac=False, kmeans=False)
    with pytest.raises(ConfigError, match="select at least one"):
        RunSpec(corpus_root=tmp_path, noise_modes=())  # models, but no cell to run them in
    with pytest.raises(ValueError):
        RunSpec(corpus_root=tmp_path, reps=0)


@settings(max_examples=100, deadline=None)
@given(reps=st.floats() | st.text(max_size=3) | st.booleans() | st.none() | st.integers(max_value=0))
@example(reps=2.5)
@example(reps=2.0)
@example(reps="3")
@example(reps=True)
def test_run_spec_takes_reps_only_as_an_integer_of_at_least_one(reps):
    with pytest.raises(ConfigError, match="reps"):
        RunSpec(corpus_root="corpus", kmeans=True, reps=reps)
    assert RunSpec(corpus_root="corpus", kmeans=True, reps=3).reps == 3


@pytest.mark.parametrize(
    "setting",
    [{"models": ("bogus",)}, {"noise_modes": ("bogus",)}, {"alpha": -1.0}, {"jm_lambda": 2.0},
     {"laplace_denominator": "x"}, {"idf_numerator": "x"}, {"log_base": "3"},
     {"models": (), "hac": True, "idf_numerator": "x"},  # the baselines read the weighting options too
     {"tasks": ()}],  # a filter that names no task; None selects every task
)
def test_run_spec_checks_its_settings_at_construction(tmp_path, setting):
    with pytest.raises(ConfigError):
        RunSpec(corpus_root=tmp_path, **setting)


def test_run_spec_keeps_name_lists_as_tuples(tmp_path):
    spec = RunSpec(corpus_root=tmp_path, tasks=["baker"], models=["score"], noise_modes=["none", "union"])
    assert (spec.tasks, spec.models, spec.noise_modes) == (("baker",), ("score",), ("none", "union"))
    assert list(spec.cells) == [("score", "none"), ("score", "union")]
    same = RunSpec(corpus_root=tmp_path, tasks=("baker",), models=("score",), noise_modes=("none", "union"))
    assert spec == same
    assert hash(spec) == hash(same)
    assert RunSpec(corpus_root=tmp_path).tasks is None


def test_run_spec_keeps_stopwords_as_a_frozenset(tmp_path):
    spec = RunSpec(corpus_root=tmp_path, stopwords={"the", "a"})
    assert spec.stopwords == frozenset({"the", "a"}) and isinstance(spec.stopwords, frozenset)
    assert hash(spec) == hash(RunSpec(corpus_root=tmp_path, stopwords=["a", "the"]))
    assert RunSpec(corpus_root=tmp_path).stopwords is None


@pytest.mark.parametrize("name", ["tasks", "models", "noise_modes", "stopwords"])
def test_run_spec_refuses_a_bare_string(tmp_path, name):
    # A string is a sequence of characters: "mason" would filter by
    # substring, "score" would name the models s, c, o, r, e, and the
    # stopwords "score" would drop those five one-letter tokens.
    with pytest.raises(ConfigError, match=name):
        RunSpec(corpus_root=tmp_path, **{name: "score"})


def test_run_spec_config_builders(tmp_path):
    spec = RunSpec(corpus_root=tmp_path, idf_numerator="paper", alpha=0.5, jm_lambda=0.25)
    features = spec.feature_config("union")
    assert features.idf_numerator == "paper"
    assert features.noise == "union"
    config = spec.model_config("nb_multinomial_jm", "intersection")
    assert config.alpha == 0.5
    assert config.jm_lambda == 0.25
    assert config.features.noise == "intersection"
    fingerprint = spec.fingerprint(model="cosine", noise="none")
    assert fingerprint["model"] == "cosine"
    assert fingerprint["lambda"] == 0.25


# ---------------------------------------------------------------------------
# loading


def test_load_tasks_sorted_and_skip_and_warn(tmp_path):
    root = write_mini_corpus(tmp_path / "corpus")
    write_broken_task(root)
    tasks, skipped = load_tasks(RunSpec(corpus_root=root))
    assert [t.name for t in tasks] == ["baker", "mason"]
    assert len(skipped) == 1
    assert "broken" in skipped[0][0]
    assert "gold" in skipped[0][1]


def test_load_tasks_name_filter(tmp_path):
    root = write_mini_corpus(tmp_path / "corpus")
    tasks, _ = load_tasks(RunSpec(corpus_root=root, tasks=("mason",)))
    assert [t.name for t in tasks] == ["mason"]


def test_load_tasks_rejects_duplicate_names(tmp_path):
    root = write_mini_corpus(tmp_path / "corpus")
    duplicate = build_task({"e1": "x"}, {"d1": "y"}, name="baker")
    write_task(duplicate, root / "zz_other_dir")
    with pytest.raises(CorpusIntegrityError):
        load_tasks(RunSpec(corpus_root=root))


# ---------------------------------------------------------------------------
# grid runs


def test_grid_produces_one_report_per_cell(mini_corpus):
    spec = RunSpec(
        corpus_root=mini_corpus,
        models=("cosine", "score"),
        noise_modes=("none", "union"),
        hac=True,
        kmeans=True,
        reps=2,
    )
    result = run_grid(spec)
    assert result.task_names == ["baker", "mason"]
    classification = [r for r in result.reports if r.model in MODELS]
    baselines = [r for r in result.reports if r.model not in MODELS]
    assert [(r.model, r.noise) for r in classification] == [
        ("cosine", "none"),
        ("cosine", "union"),
        ("score", "none"),
        ("score", "union"),
    ]
    assert [r.model for r in baselines] == ["hac_complete", "kmeans"]
    for report in result.reports:
        assert list(report.per_task) == ["baker", "mason"]
    assert set(result.assignments) == {
        ("cosine", "none"),
        ("cosine", "union"),
        ("score", "none"),
        ("score", "union"),
    }


def classification_report(tasks, config, *, fingerprint):
    """One configuration run alone over all tasks, each on fresh resources: report and assignments."""
    per_task = {}
    assignments = {}
    for task in tasks:
        assignments[task.name] = map_documents(task, config)
        per_task[task.name] = evaluate_assignment(task, assignments[task.name])
    report = EvalReport.build(model=config.model, noise=config.features.noise, per_task=per_task, config=fingerprint)
    return report, assignments


def test_grid_cell_equals_single_run(mini_corpus):
    # Every cell and baseline, run alone on fresh resources, gives the same
    # report, assignments and clusterings.
    spec = RunSpec(corpus_root=mini_corpus, models=MODELS, noise_modes=NOISE_MODES, hac=True, kmeans=True, reps=3)
    result = run_grid(spec)
    tasks, _ = load_tasks(spec)
    cells = [(model, noise) for model in MODELS for noise in NOISE_MODES]
    assert [(r.model, r.noise) for r in result.reports] == cells + [(method, "") for method in BASELINES]
    for cell, (model, noise) in zip(result.reports, cells):
        single, assignments = classification_report(
            tasks,
            spec.model_config(model, noise),
            fingerprint=spec.fingerprint(model=model, noise=noise),
        )
        assert cell.to_dict() == single.to_dict()
        assert result.assignments[(model, noise)] == assignments
    for report, method in zip(result.reports[len(cells) :], BASELINES):
        clusterings = {}
        for task in tasks:
            runs = task_clusterings(TaskResources.from_task(task, spec.feature_config()), method, spec.reps)
            gold = {doc_id: task.gold[doc_id] for doc_id in clustering_eval_filter(task)}
            assert report.per_task[task.name].purity == math.fsum(purity(c, gold) for c in runs) / len(runs)
            assert report.per_task[task.name].nmi == math.fsum(nmi(c, gold) for c in runs) / len(runs)
            clusterings[task.name] = [c.to_dict() for c in runs]
        assert {name: [c.to_dict() for c in runs] for name, runs in result.clusterings[method].items()} == clusterings
        # A baseline's config records the settings it reads, and no model setting.
        extra = {"reps": spec.reps} if method == "kmeans" else {}
        weighting = {"idf_numerator": spec.idf_numerator, "log_base": spec.log_base}
        assert report.config == {**weighting, "model": method, "noise": None, **extra}


@pytest.mark.parametrize("baselines", [False, True])
def test_grid_releases_each_task_resources_before_the_next(mini_corpus, monkeypatch, baselines):
    built: list[weakref.ref] = []
    alive: list[int] = []
    from_task = TaskResources.from_task.__func__

    def recording(cls, task, config):
        resources = from_task(cls, task, config)
        built.append(weakref.ref(resources))
        alive.append(sum(ref() is not None for ref in built))
        return resources

    monkeypatch.setattr(TaskResources, "from_task", classmethod(recording))
    run_grid(RunSpec(corpus_root=mini_corpus, models=MODELS, hac=baselines, kmeans=baselines, reps=2))
    # A task's cells and baselines all run before the next task's resources are built.
    assert alive == [1, 1]


def test_grid_builds_one_contingency_table_per_baseline_run(mini_corpus, monkeypatch):
    calls = []
    table = namesift.evaluation._table

    def counting(*args):
        calls.append(1)
        return table(*args)

    monkeypatch.setattr(namesift.evaluation, "_table", counting)
    spec = RunSpec(corpus_root=mini_corpus, models=("score",), noise_modes=("none", "union"), hac=True, kmeans=True, reps=3)
    result = run_grid(spec)
    assert {method: len(runs) for method, runs in result.clusterings.items()} == {"hac_complete": 2, "kmeans": 2}
    runs = sum(len(clusterings) for by_task in result.clusterings.values() for clusterings in by_task.values())
    assert runs == 2 * (1 + spec.reps)
    # One table per cell and task (F1; purity and NMI), one per clustering.
    assert len(calls) == len(spec.cells) * len(result.task_names) + runs


def test_grid_is_deterministic(mini_corpus):
    spec = RunSpec(corpus_root=mini_corpus, models=("score",), noise_modes=("union",), hac=True, kmeans=True, reps=3)
    first = run_grid(spec)
    second = run_grid(spec)
    assert grid_tsv(first.reports) == grid_tsv(second.reports)
    assert json.dumps(grid_json_dict(first)) == json.dumps(grid_json_dict(second))


def test_grid_assignments_match_topical_structure(mini_corpus):
    # Topical docs go to their entity; the off-topic doc shares no token
    # with either profile, so every score is 0 and the tie rule hands it
    # to the first entity, which costs f1.
    spec = RunSpec(corpus_root=mini_corpus, models=("score",), noise_modes=("none",))
    result = run_grid(spec)
    baker = result.assignments[("score", "none")]["baker"]
    assert baker.mapping == {"d1": "e1", "d2": "e1", "d3": "e2", "d4": "e1"}
    mason = result.assignments[("score", "none")]["mason"]
    assert mason.mapping == {"d1": "e1", "d2": "e2", "d3": "e1"}
    assert result.reports[0].aggregate.f1_bar < 1.0


# ---------------------------------------------------------------------------
# clusterings per task


def test_task_clusterings_shapes(mini_corpus):
    spec = RunSpec(corpus_root=mini_corpus)
    tasks, _ = load_tasks(spec)
    resources = TaskResources.from_task(tasks[0], spec.feature_config())
    hac_runs = task_clusterings(resources, "hac_complete")
    assert len(hac_runs) == 1
    assert hac_runs[0].method == "hac_complete"
    km_runs = task_clusterings(resources, "kmeans", 4)
    assert [c.seed for c in km_runs] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        task_clusterings(resources, "spectral")


def test_task_clusterings_take_vectors_from_matching_resources_only(mini_corpus):
    # Resources a grid's cells have already used cluster their own task as fresh ones do.
    tasks, _ = load_tasks(RunSpec(corpus_root=mini_corpus))
    features = FeatureConfig()
    for task in tasks:
        shared = TaskResources.from_task(task, features)
        map_documents(task, ModelConfig(model="score_smoothed"), shared)
        for method in BASELINES:
            fresh = task_clusterings(TaskResources.from_task(task, features), method, 3)
            reused = task_clusterings(shared, method, 3)
            assert [c.to_dict() for c in reused] == [c.to_dict() for c in fresh]
            assert {d for c in reused for cluster in c.clusters for d in cluster} == set(clustering_eval_filter(task))


def test_baseline_grid_builds_one_gram_per_task(mini_corpus, monkeypatch):
    calls = []
    build = namesift.models.gram

    def counting(ids, *rows):
        calls.append(tuple(ids))
        return build(ids, *rows)

    monkeypatch.setattr(namesift.models, "gram", counting)
    result = run_grid(RunSpec(corpus_root=mini_corpus, models=(), hac=True, kmeans=True, reps=3))
    assert len(result.task_names) == 2
    assert len(calls) == 2 and calls[0] != calls[1]


def test_task_clusterings_skip_tasks_without_entity_documents():
    task = build_task({"e1": "x"}, {"d1": "q"}, gold={"d1": NOISE_LABEL})
    assert task_clusterings(TaskResources.from_task(task, FeatureConfig()), "hac_complete") is None


# ---------------------------------------------------------------------------
# validation and serialization


def test_validate_corpus_reports_problems(tmp_path):
    root = write_mini_corpus(tmp_path / "corpus")
    write_broken_task(root)
    results = validate_corpus(root)
    by_directory = {r.directory.rsplit("/", 1)[-1]: r for r in results}
    assert by_directory["baker"].ok
    assert by_directory["mason"].ok
    assert not by_directory["broken"].ok
    assert any("gold" in problem for problem in by_directory["broken"].problems)


def test_grid_tsv_has_single_header(mini_corpus):
    result = run_grid(RunSpec(corpus_root=mini_corpus, models=("cosine", "score"), noise_modes=("none",)))
    lines = grid_tsv(result.reports).splitlines()
    assert lines[0].startswith("task\tmodel\tnoise")
    assert sum(1 for line in lines if line.startswith("task\t")) == 1
    # 2 tasks + aggregate per report
    assert len(lines) == 1 + 2 * 3


def test_pivot_tsv_layout(mini_corpus):
    spec = RunSpec(
        corpus_root=mini_corpus,
        models=("cosine", "score"),
        noise_modes=("none", "union"),
        hac=True,
        reps=1,
    )
    result = run_grid(spec)
    lines = pivot_tsv(result.reports).splitlines()
    assert lines[0] == "model\tnone\tunion\t-"
    assert lines[1].startswith("cosine\t")
    assert lines[2].startswith("score\t")
    assert lines[3].startswith("hac_complete\t")
    # baselines carry no f1, so their row is blank in the default pivot
    assert lines[3].split("\t")[1:] == ["", "", ""]
    nmi_lines = pivot_tsv(result.reports, metric="nmi").splitlines()
    assert len(nmi_lines) == 4
    # under nmi the baseline has a value, but only in the "-" column
    hac_cells = nmi_lines[3].split("\t")
    assert hac_cells[1] == "" and hac_cells[2] == "" and hac_cells[3] != ""


def test_grid_json_dict_is_json_serializable_and_complete(mini_corpus):
    spec = RunSpec(corpus_root=mini_corpus, models=("cosine",), noise_modes=("none",))
    result = run_grid(spec)
    payload = json.loads(json.dumps(grid_json_dict(result)))
    assert payload["tasks"] == ["baker", "mason"]
    assert payload["skipped"] == []
    entry = payload["reports"][0]
    assert entry["model"] == "cosine"
    assert entry["noise"] == "none"
    assert set(entry["per_task"]) == {"baker", "mason"}
    assert entry["config"]["model"] == "cosine"
    assert "f1_bar" in entry["aggregate"]
