"""Deterministic synthetic corpora for benchmarks, demos, and tests.

Each generated task imitates the open-world shape of a real web people
search: a few knowledge-base entities sharing one name, on-topic result
documents drawn from per-entity vocabularies, and off-topic noise
documents about people outside the entity set.

The construction is adversarial on purpose:

* Every entity profile mixes its own topic vocabulary (heavily repeated)
  with a small set of biographical filler words that appear once in every
  profile and also in the noise documents.  Filler gives noise documents
  a weak lexical bridge to every entity, so routing them correctly
  requires an explicit noise profile.
* Each entity's topic vocabulary is split into two disjoint halves, and
  each on-topic document draws from one half only.  The halves form six
  tight, mutually orthogonal document blobs per task, which profile-based
  classification handles easily but unsupervised clustering with k =
  |entities| cannot: the blobs give complete-link agglomeration exact
  distance ties and force K-Means to guess how to pair them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import NOISE_LABEL, EntityProfile, ResultDocument, Task, write_task

__all__ = ["synthetic_benchmark", "generate_task", "write_benchmark"]

_NAMES = ("John Porter", "Mary Reilly", "David Lang", "Anna Bell", "James Cole")
_FIELDS = ("astronomer", "sculptor", "alpinist", "biologist", "organist", "architect")
# Each task's shape: entities, documents, and how many of the documents are noise.
_ENTITIES, _DOCUMENTS, _NOISE_DOCUMENTS = 3, 30, 10

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _word(rng: np.random.Generator, used: set[str]) -> str:
    """A fresh pronounceable fake word, 2 or 3 syllables."""
    while True:
        n = int(rng.integers(2, 4))
        parts = []
        for _ in range(n):
            parts.append(_CONSONANTS[rng.integers(len(_CONSONANTS))])
            parts.append(_VOWELS[rng.integers(len(_VOWELS))])
        word = "".join(parts)
        if word not in used:
            used.add(word)
            return word


def _words(rng: np.random.Generator, count: int, used: set[str]) -> list[str]:
    return [_word(rng, used) for _ in range(count)]


def _text(rng: np.random.Generator, counts: dict[str, int]) -> str:
    tokens = [word for word, n in counts.items() for _ in range(n)]
    rng.shuffle(tokens)
    return " ".join(tokens)


def _document(name: str, i: int, rng: np.random.Generator, counts: dict[str, int]) -> ResultDocument:
    return ResultDocument(
        id=f"d{i:02d}",
        url=f"http://results.invalid/{name.replace(' ', '-').lower()}/{i}",
        rank=i + 1,
        text=_text(rng, counts),
    )


def generate_task(name: str, rng: np.random.Generator) -> Task:
    """Build one synthetic task; see the module docstring for the shape."""
    used: set[str] = set()
    topic = [_words(rng, 8, used) for _ in range(_ENTITIES)]
    filler = _words(rng, 8, used)
    off_topic = _words(rng, 12, used)

    entities = []
    for j in range(_ENTITIES):
        counts = {word: int(rng.integers(55, 66)) for word in topic[j]}
        counts.update({word: 1 for word in filler})
        entities.append(EntityProfile(id=f"e{j}", title=f"{name} ({_FIELDS[j]})", text=_text(rng, counts)))

    documents = []
    n_entity_docs = _DOCUMENTS - _NOISE_DOCUMENTS
    for i in range(n_entity_docs):
        # Alternate between the two halves of the entity's vocabulary so
        # each entity contributes two orthogonal document blobs.
        half = (i // _ENTITIES) % 2
        pool = topic[i % _ENTITIES][4 * half : 4 * half + 4]
        chosen = rng.choice(4, size=int(rng.integers(3, 5)), replace=False)
        documents.append(_document(name, i, rng, {pool[w]: int(rng.integers(2, 6)) for w in sorted(chosen)}))
    for i in range(n_entity_docs, _DOCUMENTS):
        chosen = rng.choice(len(off_topic), size=int(rng.integers(4, 6)), replace=False)
        counts = {off_topic[w]: int(rng.integers(2, 6)) for w in sorted(chosen)}
        picked = rng.choice(len(filler), size=int(rng.integers(6, 8)), replace=False)
        counts.update({filler[w]: 1 for w in sorted(picked)})
        documents.append(_document(name, i, rng, counts))

    gold = {d.id: f"e{i % _ENTITIES}" if i < n_entity_docs else NOISE_LABEL for i, d in enumerate(documents)}
    return Task(name=name, entities=entities, documents=documents, gold=gold)


def synthetic_benchmark(n_tasks: int = 5, *, seed: int = 7) -> list[Task]:
    """The benchmark corpus: deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    names = (_NAMES[i] if i < len(_NAMES) else f"{_NAMES[i % len(_NAMES)]} {i}" for i in range(n_tasks))
    return [generate_task(name, rng) for name in names]


def write_benchmark(root: str | Path, **kwargs) -> list[Path]:
    """Materialize the benchmark as a corpus directory tree."""
    root = Path(root)
    paths = []
    for i, task in enumerate(synthetic_benchmark(**kwargs)):
        paths.append(write_task(task, root / f"task{i:02d}"))
    return paths
