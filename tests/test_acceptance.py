"""Release gate: one test per acceptance criterion.

Each test prints one ``[acceptance] <criterion>: PASS|FAIL`` line outside
pytest's capture so the gate status is readable in any pytest log, and
enforces the runtime budget the criterion carries.  The reference-corpus
criterion is conditional: it runs only when ``NAMESIFT_WPSD_DIR`` points
at a prepared copy of the original hand-labeled web corpus, and reports
SKIP otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from namesift.corpus import NOISE_LABEL
from namesift.evaluation import clustering_eval_filter, micro_macro_f1, nmi, purity
from namesift.experiments import RunSpec, grid_json_dict, grid_tsv, load_tasks, run_grid
from namesift.features import FeatureConfig, build_index
from namesift.models import MODELS, ModelConfig, map_documents
from namesift.synthetic import write_benchmark

import oracles
from conftest import random_micro_task


def _report(capfd, name: str, status: str) -> None:
    # capture is suspended so the line lands in the real terminal output
    with capfd.disabled():
        print(f"\n[acceptance] {name}: {status}", flush=True)


def _criterion(capfd, name: str, budget: float | None, body) -> None:
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget:.0f}s"
    except BaseException:
        _report(capfd, name, "FAIL")
        raise
    _report(capfd, name, "PASS")


# ---------------------------------------------------------------------------
# 1. metrics vs a brute-force contingency oracle, exhaustively


def test_metric_oracle_exhaustive(capfd):
    def body():
        labels = ("e1", "e2", NOISE_LABEL)
        seen: set = set()
        checked = 0
        for n in range(1, 6):
            docs = [f"d{i}" for i in range(n)]
            for gold_pick in itertools.product(range(3), repeat=n):
                for pred_pick in itertools.product(range(3), repeat=n):
                    # All four metrics are functions of the labeled
                    # contingency table, so equal tables need one check.
                    key = tuple(sorted(Counter(zip(gold_pick, pred_pick)).items()))
                    if key in seen:
                        continue
                    seen.add(key)
                    gold = {d: labels[g] for d, g in zip(docs, gold_pick)}
                    pred = {d: labels[p] for d, p in zip(docs, pred_pick)}
                    clusters = oracles.assignment_to_clusters(pred, docs)
                    assert abs(purity(clusters, gold) - oracles.purity_ref(clusters, gold)) <= 1e-12
                    assert abs(nmi(clusters, gold) - oracles.nmi_ref(clusters, gold)) <= 1e-12
                    micro, macro = micro_macro_f1(pred, gold)
                    ref_micro, ref_macro = oracles.micro_macro_ref(pred, gold)
                    assert abs(micro - ref_micro) <= 1e-12
                    assert abs(macro - ref_macro) <= 1e-12
                    checked += 1
        assert checked > 1000  # the sweep really covered distinct tables

    _criterion(capfd, "metric oracle (exhaustive contingency sweep)", 5.0, body)


# ---------------------------------------------------------------------------
# 2. the index's tf-idf weights vs a dense scripted recomputation


def test_tfidf_dense_oracle(capfd):
    def body():
        rng = np.random.default_rng(424242)
        for _ in range(20):
            task = random_micro_task(rng, max_elements=5, max_tokens=20)
            index = build_index(task)
            vocabulary = {t for tokens in oracles.element_tokens(task).values() for t in tokens}
            for mode in ("paper", "corpus"):
                dense = oracles.dense_weights(task, idf_numerator=mode)
                weights = index.weights(FeatureConfig(idf_numerator=mode))
                for element_id, expected in dense.items():
                    span = index.span(element_id)
                    stored = dict(zip(index.features[span].tolist(), weights[span].tolist()))
                    for token in vocabulary:
                        got = stored.get(index.ids[token], 0.0)
                        assert abs(got - expected.get(token, 0.0)) <= 1e-12

    _criterion(capfd, "tf-idf dense recomputation oracle", 1.0, body)


# ---------------------------------------------------------------------------
# 3. naive Bayes: log domain equals linear domain; dropped coefficient
#    never changes a winner


def _argmax(class_ids, scores):
    best, best_score = None, None
    for cid in class_ids:
        if best is None or scores[cid] > best_score:
            best, best_score = cid, scores[cid]
    return best


def test_naive_bayes_equivalence(capfd):
    def body():
        rng = np.random.default_rng(90125)
        for i in range(30):
            task = random_micro_task(rng)
            denominator = "paper" if i % 2 == 0 else "per_feature"
            for noise in ("none", "union", "intersection"):
                features = FeatureConfig(noise=noise)
                bernoulli = map_documents(
                    task,
                    ModelConfig(model="nb_bernoulli_laplace", laplace_denominator=denominator, features=features),
                )
                multinomial = map_documents(
                    task, ModelConfig(model="nb_multinomial_jm", laplace_denominator=denominator, features=features)
                )
                for doc in task.documents:
                    linear_b = oracles.bernoulli_linear(task, doc.id, noise=noise, denominator=denominator)
                    linear_m = oracles.multinomial_linear(task, doc.id, noise=noise, denominator=denominator)
                    for cid, logp in bernoulli.scores[doc.id].items():
                        assert math.exp(logp) == pytest.approx(linear_b[cid], rel=1e-9)
                    for cid, logp in multinomial.scores[doc.id].items():
                        assert math.exp(logp) == pytest.approx(linear_m[cid], rel=1e-9)

        checked = 0
        while checked < 100:
            task = random_micro_task(rng)
            if len(task.entities) < 2:
                continue
            index = build_index(task)
            assignment = map_documents(
                task, ModelConfig(model="nb_multinomial_jm", features=FeatureConfig(noise="union"))
            )
            class_ids = [e.id for e in task.entities] + [NOISE_LABEL]
            for doc in task.documents:
                if not doc.tokens:
                    continue
                scores = assignment.scores[doc.id]
                winner = _argmax(class_ids, scores)
                assert winner == assignment.mapping[doc.id]
                coefficient = oracles.multinomial_log_coefficient(oracles.counts_ref(doc.id, index))
                shifted = {cid: s + coefficient for cid, s in scores.items()}
                assert _argmax(class_ids, shifted) == winner
                checked += 1

    _criterion(capfd, "naive Bayes log/linear equivalence", 5.0, body)


# ---------------------------------------------------------------------------
# 4. synthetic open-world benchmark: noise profiles must pay their way


def test_synthetic_benchmark_noise_ordering(capfd, tmp_path):
    def body():
        root = tmp_path / "synth"
        write_benchmark(root, seed=7)
        spec = RunSpec(corpus_root=root, models=MODELS, noise_modes=("none", "intersection"))
        result = run_grid(spec)
        assert result.task_names and not result.skipped
        cells = {(r.model, r.noise): r.aggregate.f1_bar for r in result.reports}
        assert cells[("score_smoothed", "intersection")] >= 0.95
        assert cells[("nb_multinomial_jm", "intersection")] >= 0.95
        for model in MODELS:
            assert cells[(model, "none")] < cells[(model, "intersection")]

    _criterion(capfd, "synthetic benchmark noise-profile ordering", 30.0, body)


# ---------------------------------------------------------------------------
# 5. bootstrapped classification beats unsupervised clustering baselines


def test_synthetic_benchmark_beats_clustering(capfd, tmp_path):
    def body():
        root = tmp_path / "synth"
        write_benchmark(root, seed=7)
        spec = RunSpec(
            corpus_root=root,
            models=("score_smoothed", "nb_multinomial_jm"),
            noise_modes=("intersection",),
            hac=True,
            kmeans=True,
            reps=10,
        )
        result = run_grid(spec)
        nmi_of = {r.model: r.aggregate.nmi for r in result.reports}
        for model in ("score_smoothed", "nb_multinomial_jm"):
            assert nmi_of[model] > nmi_of["hac_complete"]
            assert nmi_of[model] > nmi_of["kmeans"]

    _criterion(capfd, "synthetic benchmark beats clustering baselines", 60.0, body)


# ---------------------------------------------------------------------------
# 6. conditional: frozen headline figures on the original corpus


_EXPECTED_F1_BAR = {
    ("cosine", "none"): 0.233,
    ("cosine", "union"): 0.438,
    ("cosine", "intersection"): 0.601,
    ("score", "none"): 0.210,
    ("score", "union"): 0.704,
    ("score", "intersection"): 0.701,
    ("score_smoothed", "none"): 0.322,
    ("score_smoothed", "union"): 0.569,
    ("score_smoothed", "intersection"): 0.734,
    ("nb_bernoulli_laplace", "none"): 0.251,
    ("nb_bernoulli_laplace", "union"): 0.634,
    ("nb_bernoulli_laplace", "intersection"): 0.642,
    ("nb_multinomial_jm", "none"): 0.257,
    ("nb_multinomial_jm", "union"): 0.486,
    ("nb_multinomial_jm", "intersection"): 0.730,
}

# aggregate (purity, nmi) under intersection noise, clustering protocol
_EXPECTED_CLUSTER_QUALITY = {
    "score_smoothed": (0.913, 0.560),
    "nb_multinomial_jm": (0.890, 0.492),
}

_FILTERED_DOC_COUNT = 1095


def test_reference_corpus_headline_figures(capfd):
    name = "reference corpus headline figures"
    root = os.environ.get("NAMESIFT_WPSD_DIR")
    if not root:
        _report(capfd, name, "SKIP (NAMESIFT_WPSD_DIR not set)")
        pytest.skip("reference corpus not available")

    def body():
        spec = RunSpec(corpus_root=root, models=MODELS, noise_modes=("none", "union", "intersection"))
        tasks, skipped = load_tasks(spec)
        assert not skipped, f"reference corpus has unloadable tasks: {skipped}"
        assert sum(len(clustering_eval_filter(t)) for t in tasks) == _FILTERED_DOC_COUNT
        result = run_grid(spec)
        by_cell = {(r.model, r.noise): r for r in result.reports}
        for cell, expected in _EXPECTED_F1_BAR.items():
            got = by_cell[cell].aggregate.f1_bar
            assert abs(got - expected) <= 0.02, f"{cell}: f1_bar {got:.3f} vs {expected:.3f}"
        for model, (expected_purity, expected_nmi) in _EXPECTED_CLUSTER_QUALITY.items():
            report = by_cell[(model, "intersection")]
            assert abs(report.aggregate.purity - expected_purity) <= 0.03
            assert abs(report.aggregate.nmi - expected_nmi) <= 0.03

    _criterion(capfd, name, None, body)


# ---------------------------------------------------------------------------
# 7. determinism of repeated runs


def test_repeated_runs_are_byte_identical(capfd, tmp_path):
    def body():
        root = tmp_path / "synth"
        write_benchmark(root, seed=7)

        def one_run() -> tuple[bytes, bytes]:
            spec = RunSpec(
                corpus_root=root,
                models=("score_smoothed", "nb_multinomial_jm"),
                noise_modes=("none", "intersection"),
                hac=True,
                kmeans=True,
                reps=3,
            )
            result = run_grid(spec)
            tsv = grid_tsv(result.reports).encode("utf-8")
            payload = json.dumps(grid_json_dict(result), indent=2).encode("utf-8")
            return tsv, payload

        first = one_run()
        second = one_run()
        assert first[0] == second[0]
        assert first[1] == second[1]

    _criterion(capfd, "byte-identical repeated runs", None, body)
