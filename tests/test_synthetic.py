"""Shape and determinism of the generated benchmark corpus."""

from __future__ import annotations

import numpy as np

from namesift.corpus import NOISE_LABEL, discover_tasks, load_task
from namesift.synthetic import generate_task, synthetic_benchmark, write_benchmark


def _task_signature(task):
    return (
        task.name,
        tuple((e.id, e.title, e.text) for e in task.entities),
        tuple((d.id, d.url, d.rank, d.text) for d in task.documents),
        tuple(sorted(task.gold.items())),
    )


def test_benchmark_is_deterministic_for_a_seed():
    first = synthetic_benchmark(seed=7)
    second = synthetic_benchmark(seed=7)
    assert [_task_signature(t) for t in first] == [_task_signature(t) for t in second]


def test_different_seeds_differ():
    a = synthetic_benchmark(n_tasks=1, seed=7)[0]
    b = synthetic_benchmark(n_tasks=1, seed=8)[0]
    assert _task_signature(a) != _task_signature(b)


def test_benchmark_shape():
    tasks = synthetic_benchmark()
    assert len(tasks) == 5
    assert len({t.name for t in tasks}) == 5
    for task in tasks:
        assert len(task.entities) == 3
        assert len(task.documents) == 30
        labels = list(task.gold.values())
        assert labels.count(NOISE_LABEL) == 10
        for entity in task.entities:
            assert labels.count(entity.id) > 0


def test_entity_documents_draw_from_their_entity_vocabulary():
    rng = np.random.default_rng(7)
    task = generate_task("Probe Person", rng)
    profile_tokens = {e.id: set(e.tokens) for e in task.entities}
    for doc in task.documents:
        label = task.gold[doc.id]
        if label == NOISE_LABEL:
            continue
        assert set(doc.tokens) <= profile_tokens[label]


def test_noise_documents_share_no_tokens_with_any_single_entity_topic():
    rng = np.random.default_rng(7)
    task = generate_task("Probe Person", rng)
    # Filler words appear once in every profile; topic words only in one.
    filler = set(task.entities[0].tokens) & set(task.entities[1].tokens)
    topic = {t for e in task.entities for t in e.tokens} - filler
    for doc in task.documents:
        if task.gold[doc.id] == NOISE_LABEL:
            assert not (set(doc.tokens) & topic)
            assert set(doc.tokens) & filler  # anchored to the shared vocabulary


def test_write_benchmark_round_trips(tmp_path):
    paths = write_benchmark(tmp_path / "bench", n_tasks=2)
    assert [p.name for p in paths] == ["task00", "task01"]
    loaded = [load_task(p) for p in discover_tasks(tmp_path / "bench")]
    generated = synthetic_benchmark(n_tasks=2)
    assert [_task_signature(t) for t in sorted(loaded, key=lambda t: t.name)] == [
        _task_signature(t) for t in sorted(generated, key=lambda t: t.name)
    ]
