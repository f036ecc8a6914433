"""Metric tests: purity, NMI, micro/macro F1, and report assembly."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namesift.baselines import Clustering
from namesift.corpus import NOISE_LABEL, CorpusIntegrityError
from namesift.evaluation import (
    METRIC_COLUMNS,
    EvalReport,
    TaskMetrics,
    aggregate_metrics,
    clustering_eval_filter,
    evaluate_assignment,
    evaluate_clusterings,
    micro_macro_f1,
    nmi,
    purity,
)
from namesift.experiments import grid_tsv, task_clusterings
from namesift.features import NOISE_MODES, FeatureConfig
from namesift.models import MODELS, Assignment, ModelConfig, TaskResources, map_documents

import oracles
from conftest import build_task, random_micro_task


# ---------------------------------------------------------------------------
# purity


def test_purity_singletons_and_exact_match_score_one():
    labels = {"d1": "A", "d2": "B", "d3": "A"}
    assert purity([["d1"], ["d2"], ["d3"]], labels) == 1.0
    assert purity([["d1", "d3"], ["d2"]], labels) == 1.0


def test_purity_worked_example():
    assert purity([["d1", "d2", "d3"]], {"d1": "A", "d2": "A", "d3": "B"}) == pytest.approx(2 / 3)


def test_purity_requires_labels_for_all_docs():
    with pytest.raises(CorpusIntegrityError):
        purity([["d1", "dX"]], {"d1": "A"})


def test_purity_never_decreases_under_cluster_splits():
    rng = np.random.default_rng(109)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        labels = {f"d{i}": f"c{int(v)}" for i, v in enumerate(rng.integers(0, 3, size=n))}
        docs = list(labels)
        assignment = rng.integers(0, 3, size=n)
        clusters = [[d for d, c in zip(docs, assignment) if c == g] for g in range(3)]
        clusters = [c for c in clusters if c]
        before = purity(clusters, labels)
        target = max(range(len(clusters)), key=lambda i: len(clusters[i]))
        if len(clusters[target]) < 2:
            continue
        head, tail = clusters[target][:1], clusters[target][1:]
        split = clusters[:target] + [head, tail] + clusters[target + 1 :]
        assert purity(split, labels) >= before - 1e-12


# ---------------------------------------------------------------------------
# NMI


def test_nmi_perfect_clustering_scores_one():
    labels = {"d1": "A", "d2": "A", "d3": "B"}
    assert nmi([["d1", "d2"], ["d3"]], labels) == pytest.approx(1.0)


def test_nmi_single_cluster_of_two_classes_scores_zero():
    assert nmi([["d1", "d2"]], {"d1": "A", "d2": "B"}) == 0.0


def test_nmi_worked_independence_example():
    # Each cluster holds one doc of each class: zero mutual information.
    labels = {"d1": "A", "d2": "B", "d3": "A", "d4": "B"}
    assert nmi([["d1", "d2"], ["d3", "d4"]], labels) == 0.0


def test_nmi_pinned_degenerate_cases():
    assert nmi([["d1", "d2"]], {"d1": "A", "d2": "A"}) == 1.0  # both partitions trivial
    assert nmi([["d1"], ["d2"]], {"d1": "A", "d2": "A"}) == 0.0  # gold trivial only


def test_purity_and_nmi_invariant_under_cluster_permutation():
    rng = np.random.default_rng(113)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        labels = {f"d{i}": f"c{int(v)}" for i, v in enumerate(rng.integers(0, 3, size=n))}
        docs = list(labels)
        assigned = rng.integers(0, 3, size=n)
        groups = [[d for d, g in zip(docs, assigned) if g == c] for c in range(3)]
        groups = [c for c in groups if c]
        shuffled = [groups[i] for i in rng.permutation(len(groups))]
        assert purity(shuffled, labels) == pytest.approx(purity(groups, labels), abs=1e-12)
        assert nmi(shuffled, labels) == pytest.approx(nmi(groups, labels), abs=1e-12)


# ---------------------------------------------------------------------------
# micro / macro F1


def test_f1_worked_example():
    gold = {"d1": "A", "d2": "A", "d3": NOISE_LABEL}
    pred = {"d1": "A", "d2": NOISE_LABEL, "d3": NOISE_LABEL}
    micro, macro = micro_macro_f1(pred, gold)
    assert micro == pytest.approx(2 / 3, abs=1e-12)
    assert macro == pytest.approx(2 / 3, abs=1e-12)


def test_f1_perfect_assignment():
    gold = {"d1": "A", "d2": "B"}
    assert micro_macro_f1(dict(gold), gold) == (1.0, 1.0)


def test_micro_f1_equals_accuracy_when_predictions_stay_in_gold_universe():
    rng = np.random.default_rng(127)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        classes = ["A", "B", NOISE_LABEL]
        gold = {f"d{i}": classes[int(v)] for i, v in enumerate(rng.integers(0, 3, size=n))}
        universe = sorted(set(gold.values()))
        pred = {d: universe[int(v)] for d, v in zip(gold, rng.integers(0, len(universe), size=n))}
        micro, _ = micro_macro_f1(pred, gold)
        accuracy = sum(pred[d] == gold[d] for d in gold) / n
        assert micro == pytest.approx(accuracy, abs=1e-12)


def test_predictions_outside_gold_universe_count_as_misses_only():
    gold = {"d1": "A", "d2": "A"}
    micro, macro = micro_macro_f1({"d1": "B", "d2": "B"}, gold)
    assert micro == 0.0
    assert macro == 0.0


def test_gold_only_classes_drag_macro_down():
    gold = {"d1": "A", "d2": "B"}
    micro, macro = micro_macro_f1({"d1": "A", "d2": "A"}, gold)
    # A: tp=1 fp=1 fn=0 -> 2/3; B: never predicted -> 0.
    assert macro == pytest.approx((2 / 3) / 2, abs=1e-12)


def test_f1_requires_full_coverage():
    gold = {"d1": "A", "d2": "A"}
    with pytest.raises(CorpusIntegrityError):
        micro_macro_f1({"d1": "A"}, gold)
    with pytest.raises(CorpusIntegrityError):
        micro_macro_f1({"d1": "A", "d2": "A", "d9": "A"}, gold)


def test_f1_invariant_under_consistent_renaming():
    gold = {"d1": "A", "d2": "B", "d3": NOISE_LABEL, "d4": "A"}
    pred = {"d1": "A", "d2": "A", "d3": "B", "d4": NOISE_LABEL}
    renamed = {"A": "x9", "B": "y7", NOISE_LABEL: "z1"}
    gold2 = {d: renamed[c] for d, c in gold.items()}
    pred2 = {d: renamed[c] for d, c in pred.items()}
    assert micro_macro_f1(pred, gold) == micro_macro_f1(pred2, gold2)


# ---------------------------------------------------------------------------
# brute-force oracle sweep


def test_metrics_match_brute_force_oracle_on_random_instances():
    rng = np.random.default_rng(131)
    labels_pool = ("e1", "e2", NOISE_LABEL)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        docs = [f"d{i}" for i in range(n)]
        gold = {d: labels_pool[int(v)] for d, v in zip(docs, rng.integers(0, 3, size=n))}
        pred = {d: labels_pool[int(v)] for d, v in zip(docs, rng.integers(0, 3, size=n))}
        clusters = [
            [d for d in docs if pred[d] == label] for label in labels_pool if any(pred[d] == label for d in docs)
        ]
        assert purity(clusters, gold) == pytest.approx(oracles.purity_ref(clusters, gold), abs=1e-12)
        assert nmi(clusters, gold) == pytest.approx(oracles.nmi_ref(clusters, gold), abs=1e-12)
        got = micro_macro_f1(pred, gold)
        want = oracles.micro_macro_ref(pred, gold)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_all_metrics_stay_in_unit_interval():
    rng = np.random.default_rng(137)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        docs = [f"d{i}" for i in range(n)]
        gold = {d: f"c{int(v)}" for d, v in zip(docs, rng.integers(0, 3, size=n))}
        pred = {d: f"c{int(v)}" for d, v in zip(docs, rng.integers(0, 4, size=n))}
        clusters = [[d for d in docs if pred[d] == c] for c in set(pred.values())]
        clusters = [c for c in clusters if c]
        for value in (purity(clusters, gold), nmi(clusters, gold), *micro_macro_f1(pred, gold)):
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# order: every float sum is exactly rounded, so no order moves a bit

# Up to six classes; the last is NOISE.
_CLASSES = ("e0", "e1", "e2", "e3", "e4", NOISE_LABEL)
# (predicted, gold) class indices, one pair per document.
_PAIRS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=80)


def _order_task(gold: dict[str, str]):
    return build_task({e: "x" for e in _CLASSES[:-1]}, {d: "x" for d in gold}, gold=gold)


@settings(max_examples=300, deadline=None)
@given(pairs=_PAIRS, data=st.data())
def test_metrics_do_not_depend_on_the_order_of_their_pairs(pairs, data):
    docs = [f"d{i}" for i in range(len(pairs))]
    gold = {d: _CLASSES[g] for d, (_, g) in zip(docs, pairs)}
    pred = {d: _CLASSES[c] for d, (c, _) in zip(docs, pairs)}
    order = data.draw(st.permutations(docs))
    # Shuffled documents, and the clusters in another order, so with other indices.
    clusters = oracles.assignment_to_clusters(pred)
    shuffled = data.draw(st.permutations(oracles.assignment_to_clusters(pred, order)))
    assert purity(shuffled, gold) == purity(clusters, gold)
    assert nmi(shuffled, gold) == nmi(clusters, gold)
    # Shuffled documents, and classes renamed alike in prediction and gold.
    names = data.draw(st.permutations([f"k{i}" for i in range(len(_CLASSES))]))
    renamed = dict(zip(_CLASSES, names))
    shuffled_pred = {d: renamed[pred[d]] for d in order}
    shuffled_gold = {d: renamed[gold[d]] for d in reversed(order)}
    assert micro_macro_f1(shuffled_pred, shuffled_gold) == micro_macro_f1(pred, gold)
    # One assignment with its documents and its classes in another order.
    task = _order_task(gold)
    class_order = data.draw(st.permutations(_CLASSES))
    assignment = Assignment(docs, list(_CLASSES), np.array([c for c, _ in pairs]), np.zeros((len(docs), len(_CLASSES))))
    labels = [class_order.index(pred[d]) for d in order]
    reordered = Assignment(order, class_order, np.array(labels), np.zeros((len(docs), len(_CLASSES))))
    assert evaluate_assignment(task, reordered) == evaluate_assignment(task, assignment)


@settings(max_examples=200, deadline=None)
@given(
    pairs=_PAIRS,
    seed=st.integers(0, 2**32 - 1),
    per_task=st.lists(st.builds(TaskMetrics, *[st.none() | st.floats(0.0, 1.0)] * len(METRIC_COLUMNS)), min_size=1, max_size=30),
    data=st.data(),
)
def test_means_do_not_depend_on_the_order_of_runs_or_tasks(pairs, seed, per_task, data):
    gold = {f"d{i}": _CLASSES[g] for i, (_, g) in enumerate(pairs)}
    task = _order_task(gold)
    rng = np.random.default_rng(seed)
    clusterings = [
        Clustering(oracles.assignment_to_clusters(dict(zip(gold, rng.integers(0, 6, size=len(gold)).tolist()))), "kmeans", 6, rep)
        for rep in range(1, int(rng.integers(1, 11)) + 1)
    ]
    shuffled = data.draw(st.permutations(clusterings))
    assert evaluate_clusterings(task, shuffled) == evaluate_clusterings(task, clusterings)
    tasks = {f"t{i}": metrics for i, metrics in enumerate(per_task)}
    reordered = {name: tasks[name] for name in data.draw(st.permutations(list(tasks)))}
    assert aggregate_metrics(reordered) == aggregate_metrics(tasks)


# ---------------------------------------------------------------------------
# task-level evaluation


def test_clustering_eval_filter_examples(make_task):
    task = build_task(
        {"e1": "x", "e2": "y"},
        {"d1": "x", "d2": "q", "d3": "y"},
        gold={"d1": "e1", "d2": NOISE_LABEL, "d3": "e2"},
    )
    assert clustering_eval_filter(task) == ["d1", "d3"]
    all_noise = build_task({"e1": "x"}, {"d1": "q"}, gold={"d1": NOISE_LABEL})
    assert clustering_eval_filter(all_noise) == []
    no_noise = build_task({"e1": "x"}, {"d1": "x"}, gold={"d1": "e1"})
    assert clustering_eval_filter(no_noise) == ["d1"]


def test_evaluate_assignment_applies_clustering_protocol():
    task = build_task(
        {"e1": "jazz guitar stage", "e2": "enzyme protein cell"},
        {"d1": "jazz guitar", "d2": "enzyme cell", "d3": "lottery gossip"},
        gold={"d1": "e1", "d2": "e2", "d3": NOISE_LABEL},
    )
    assignment = map_documents(
        task, ModelConfig(model="score", features=FeatureConfig(noise="union"))
    )
    metrics = evaluate_assignment(task, assignment)
    # d3 is dropped for purity/NMI, so both are computed on {d1, d2}.
    subset_gold = {"d1": "e1", "d2": "e2"}
    assert metrics.purity == pytest.approx(oracles.purity_ref([["d1"], ["d2"]], subset_gold))
    micro, macro = micro_macro_f1(assignment.mapping, task.gold)
    assert metrics.micro_f1 == pytest.approx(micro)
    assert metrics.macro_f1 == pytest.approx(macro)
    assert metrics.f1_bar == pytest.approx((micro + macro) / 2)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS), noise=st.sampled_from(NOISE_MODES))
def test_evaluate_assignment_equals_the_metrics_over_grouped_documents(seed, model, noise):
    # Equal, not approximately equal: both read the same counts, and every float sum is exactly rounded.
    task = random_micro_task(np.random.default_rng(seed))
    assignment = map_documents(task, ModelConfig(model=model, features=FeatureConfig(noise=noise)))
    metrics = evaluate_assignment(task, assignment)
    assert (metrics.micro_f1, metrics.macro_f1) == micro_macro_f1(assignment.mapping, task.gold)
    kept = clustering_eval_filter(task)
    if not kept:
        assert metrics.purity is None and metrics.nmi is None
        return
    clusters = oracles.assignment_to_clusters(assignment.mapping, kept)
    assert metrics.purity == purity(clusters, task.gold)
    assert metrics.nmi == nmi(clusters, task.gold)


def test_evaluate_assignment_all_noise_gold_leaves_clustering_metrics_unset():
    task = build_task({"e1": "x"}, {"d1": "q"}, gold={"d1": NOISE_LABEL})
    assignment = map_documents(task, ModelConfig(model="cosine"))
    metrics = evaluate_assignment(task, assignment)
    assert metrics.purity is None
    assert metrics.nmi is None
    assert metrics.micro_f1 is not None


def evaluate_no_runs(runs, _gold):
    return evaluate_clusterings(build_task({"e1": "x"}, {"d1": "x"}, gold={"d1": "e1"}), runs)


@pytest.mark.parametrize(
    "metric, empty",
    [(purity, []), (nmi, []), (purity, [[]]), (micro_macro_f1, {}), (evaluate_no_runs, [])],
)
def test_metrics_refuse_empty_input(metric, empty):
    with pytest.raises(ValueError, match="cannot score an empty"):
        metric(empty, {})


def test_evaluate_assignment_empty_task_leaves_everything_unset():
    task = build_task({"e1": "x"}, {})
    metrics = evaluate_assignment(task, Assignment([], [], np.zeros(0, dtype=int), np.zeros((0, 0))))
    assert all(getattr(metrics, column) is None for column in METRIC_COLUMNS)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from(("hac_complete", "kmeans")))
def test_evaluate_clusterings_equals_the_mean_metrics_over_runs(seed, method):
    # Equal, not approximately equal: each mean is an exactly rounded sum over the runs.
    task = random_micro_task(np.random.default_rng(seed))
    runs = task_clusterings(TaskResources.from_task(task, FeatureConfig()), method, 3)
    if runs is None:
        return
    metrics = evaluate_clusterings(task, runs)
    assert metrics.purity == math.fsum(purity(c, task.gold) for c in runs) / len(runs)
    assert metrics.nmi == math.fsum(nmi(c, task.gold) for c in runs) / len(runs)
    assert (metrics.micro_f1, metrics.macro_f1, metrics.f1_bar) == (None, None, None)


def test_aggregate_metrics_skips_unset_values():
    per_task = {
        "t1": TaskMetrics(purity=1.0, nmi=0.5, micro_f1=0.8, macro_f1=0.6, f1_bar=0.7),
        "t2": TaskMetrics(micro_f1=0.4, macro_f1=0.2, f1_bar=0.3),
    }
    aggregate = aggregate_metrics(per_task)
    assert aggregate.purity == pytest.approx(1.0)
    assert aggregate.nmi == pytest.approx(0.5)
    assert aggregate.micro_f1 == pytest.approx(0.6)
    assert aggregate.f1_bar == pytest.approx(0.5)


def test_eval_report_tsv_layout():
    per_task = {
        "beta": TaskMetrics(micro_f1=0.5, macro_f1=0.25, f1_bar=0.375),
        "alpha": TaskMetrics(purity=1.0, nmi=1.0, micro_f1=1.0, macro_f1=1.0, f1_bar=1.0),
    }
    report = EvalReport.build("cosine", "union", per_task, {"alpha": 0.01})
    lines = grid_tsv([report]).splitlines()
    assert lines[0] == "task\tmodel\tnoise\tpurity\tnmi\tmicro_f1\tmacro_f1\tf1_bar"
    assert lines[1].startswith("alpha\tcosine\tunion\t1.000000\t1.000000")
    assert lines[2].split("\t")[3] == ""  # unset purity prints empty
    assert lines[3].startswith("aggregate\tcosine\tunion")
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["model"] == "cosine"
    assert payload["per_task"]["beta"]["macro_f1"] == 0.25
    assert payload["aggregate"]["f1_bar"] == pytest.approx((1.0 + 0.375) / 2)
