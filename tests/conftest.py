"""Shared fixtures: in-memory task builders and small on-disk corpora."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from namesift.corpus import (
    NOISE_LABEL,
    EntityProfile,
    ResultDocument,
    Task,
    write_task,
)

# Small vocabulary so document frequencies collide often in random tasks.
VOCAB = ("ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "ibis", "jay")


def build_task(entities, documents, gold=None, name="sample") -> Task:
    """Assemble a Task from two id -> text mappings.

    ``gold`` defaults to labeling every document NOISE, which satisfies
    the gold-coverage invariant without making tests spell out labels
    they do not care about.
    """
    ents = [EntityProfile(id=eid, title=eid, text=text) for eid, text in entities.items()]
    docs = [
        ResultDocument(id=did, url=f"http://corpus.test/{did}", rank=i, text=text)
        for i, (did, text) in enumerate(documents.items(), start=1)
    ]
    labels = dict(gold) if gold is not None else {did: NOISE_LABEL for did in documents}
    return Task(name=name, entities=ents, documents=docs, gold=labels)


def random_micro_task(rng: np.random.Generator, max_elements: int = 5, max_tokens: int = 20) -> Task:
    """Tiny random task: 1-2 entities, 1-4 documents, shared vocabulary."""
    n_entities = int(rng.integers(1, 3))
    n_docs = int(rng.integers(1, max_elements - n_entities + 1))
    texts = []
    for _ in range(n_entities + n_docs):
        n = int(rng.integers(1, max_tokens + 1))
        texts.append(" ".join(VOCAB[i] for i in rng.integers(0, len(VOCAB), size=n)))
    entities = {f"e{i}": texts[i] for i in range(n_entities)}
    documents = {f"d{i}": texts[n_entities + i] for i in range(n_docs)}
    entity_ids = list(entities)
    gold = {}
    for did in documents:
        pick = int(rng.integers(0, n_entities + 1))
        gold[did] = NOISE_LABEL if pick == n_entities else entity_ids[pick]
    return build_task(entities, documents, gold=gold, name="micro")


def mini_tasks() -> list[Task]:
    """Two small hand-written tasks with clean topical separation."""
    baker = build_task(
        {
            "e1": "jazz guitar player touring stage album music festival",
            "e2": "enzyme protein laboratory research science cell membrane",
        },
        {
            "d1": "jazz guitar album stage music",
            "d2": "touring festival album guitar jazz",
            "d3": "protein enzyme cell laboratory research",
            "d4": "lottery weather football recipe gossip",
        },
        gold={"d1": "e1", "d2": "e1", "d3": "e2", "d4": NOISE_LABEL},
        name="baker",
    )
    mason = build_task(
        {
            "e1": "mountain climbing alpine expedition summit ridge",
            "e2": "painting gallery portrait exhibition canvas brush",
        },
        {
            "d1": "alpine summit expedition ridge",
            "d2": "gallery exhibition portrait canvas",
            "d3": "stock market options trading floor",
        },
        gold={"d1": "e1", "d2": "e2", "d3": NOISE_LABEL},
        name="mason",
    )
    return [baker, mason]


def write_mini_corpus(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for task in mini_tasks():
        write_task(task, root / task.name)
    return root


def write_broken_task(root: Path, name: str = "broken") -> Path:
    """Discoverable task directory that fails to load: gold.tsv is missing."""
    d = root / name
    d.mkdir()
    manifest = {
        "name": name,
        "entities": [{"id": "e1", "title": "E", "file": "e1.txt"}],
        "documents": [],
    }
    (d / "task.json").write_text(json.dumps(manifest), encoding="utf-8")
    (d / "e1.txt").write_text("text", encoding="utf-8")
    return d


def deny_access(monkeypatch, directory: Path, *, readable: bool = False) -> None:
    """Act as if ``directory`` had mode 000 (or 400 when ``readable``) for a user other than root.

    Nothing inside it can be stat'ed, and unless ``readable`` it cannot be
    opened; root bypasses both checks, so the test patches them in.
    """
    import errno
    import os

    real_stat, real_open = os.stat, os.open

    def refused(path) -> PermissionError:
        return PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))

    def inside(path, dir_fd) -> bool:
        if dir_fd is not None:
            return os.path.samestat(real_stat(dir_fd), real_stat(directory))
        return isinstance(path, (str, os.PathLike)) and Path(path).parent == directory

    def stat(path, *args, dir_fd=None, **kwargs):
        if inside(path, dir_fd):
            raise refused(path)
        return real_stat(path, *args, dir_fd=dir_fd, **kwargs)

    def open_(path, flags, *args, dir_fd=None, **kwargs):
        if inside(path, dir_fd) or (not readable and dir_fd is None and Path(path) == directory):
            raise refused(path)
        return real_open(path, flags, *args, dir_fd=dir_fd, **kwargs)

    monkeypatch.setattr(os, "stat", stat)
    monkeypatch.setattr(os, "open", open_)


@pytest.fixture
def make_task():
    return build_task


@pytest.fixture
def mini_corpus(tmp_path) -> Path:
    return write_mini_corpus(tmp_path / "corpus")


@pytest.fixture
def clean_env(monkeypatch):
    """Strip NAMESIFT_* variables so CLI tests start from defaults."""
    import os

    for key in list(os.environ):
        if key.startswith("NAMESIFT_"):
            monkeypatch.delenv(key)
    return monkeypatch
