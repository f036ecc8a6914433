"""Benchmark workloads and their seeded corpus generator.

Every workload is a corpus shape plus one namesift command.  The corpus is
written here, straight into the on-disk corpus format (task.json, gold.tsv,
entities/*.txt, documents/*.txt), so the program under test receives only
files.  Tokens are drawn Zipf(1) from a synthetic vocabulary:

* the background distribution ranks the vocabulary in one seeded order;
* each entity ranks it in its own seeded order (its "topic");
* a profile or an entity document mixes topic and background tokens;
* a noise document (gold ``__NOISE__``) is pure background.

The same (workload, seed) always gives the same bytes on disk.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The corpus format's and the CLI's names, spelled out here rather than
# imported, so that the generator and the output check do not take their
# expectations from the program they judge.
NOISE_LABEL = "__NOISE__"
MODELS = ("cosine", "score", "score_smoothed", "nb_bernoulli_laplace", "nb_multinomial_jm")
NOISE_MODES = ("none", "union", "intersection")
BASELINES = ("hac_complete", "kmeans")
KMEANS_REPS = 10

# Share of topic tokens in an entity profile and in an entity document.
# Below 1 so profiles and documents share background vocabulary with each
# other and with noise documents; at these shares the five models and the
# two baselines reach different scores.
PROFILE_TOPIC_SHARE = 0.5
DOCUMENT_TOPIC_SHARE = 0.3

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Shape:
    """Size of a generated corpus."""

    tasks: int
    entities: int
    profile_tokens: int
    documents: int
    document_tokens: int
    vocabulary: int
    noise_share: float


@dataclass(frozen=True)
class Workload:
    """A corpus shape and the CLI command run against it."""

    name: str
    shape: Shape
    command: str  # "grid" or "cluster"
    models: tuple[str, ...]
    baselines: tuple[str, ...]
    why: str

    @property
    def report_file(self) -> str:
        return "grid.json" if self.command == "grid" else "clusters.json"

    def argv(self, corpus: Path, output: Path) -> list[str]:
        if self.command == "cluster":
            return ["cluster", str(corpus), "--method", "both", "--output", str(output)]
        argv = ["grid", str(corpus), "--models", "all", "--noise-modes", "all", "--output", str(output)]
        return argv + (["--baselines"] if self.baselines else [])

    def rows(self) -> list[tuple[str, str]]:
        """(model, noise) of every report row, in the order the CLI writes them."""
        cells = [(model, noise) for model in self.models for noise in NOISE_MODES]
        return cells + [(method, "") for method in self.baselines]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="zipf_grid",
            shape=Shape(tasks=2, entities=8, profile_tokens=2500, documents=150, document_tokens=600,
                        vocabulary=30000, noise_share=1 / 3),
            command="grid",
            models=MODELS,
            baselines=(),
            why="2 tasks of 8 profiles x 2500 and 150 docs x 600 Zipf tokens, 1/3 noise: smoothing and the five scorers dominate the grid; no baselines",
        ),
        Workload(
            name="zipf_cluster",
            shape=Shape(tasks=2, entities=5, profile_tokens=1000, documents=150, document_tokens=150,
                        vocabulary=30000, noise_share=1 / 4),
            command="cluster",
            models=(),
            baselines=BASELINES,
            why="2 tasks of 5 profiles x 1000 and 150 docs x 150 Zipf tokens, 1/4 noise: HAC and dense K-Means dominate cluster --output and set peak memory; models idle",
        ),
        Workload(
            name="many_small_grid",
            shape=Shape(tasks=200, entities=3, profile_tokens=150, documents=30, document_tokens=40,
                        vocabulary=2000, noise_share=1 / 3),
            command="grid",
            models=MODELS,
            baselines=BASELINES,
            why="200 tasks of 3 profiles x 150 and 30 docs x 40 tokens, 7000 files, grid with baselines: per-task and per-call fixed costs outweigh arithmetic",
        ),
    )
}


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """``size`` distinct lowercase words of 3 to 9 letters."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        lengths = rng.integers(3, 10, size=size)
        letters = rng.integers(0, len(_LETTERS), size=(size, 9))
        for length, row in zip(lengths, letters):
            word = "".join(_LETTERS[i] for i in row[:length])
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == size:
                    break
    return words


class _Sampler:
    """Draws tokens from a mixture of a topic and the background, both Zipf(1)."""

    def __init__(self, rng: np.random.Generator, words: list[str]) -> None:
        self.rng = rng
        self.words = np.array(words)
        weights = 1.0 / np.arange(1, len(words) + 1)
        self.cdf = np.cumsum(weights) / weights.sum()
        self.background = rng.permutation(len(words))

    def topic(self) -> np.ndarray:
        return self.rng.permutation(len(self.words))

    def text(self, n: int, topic: np.ndarray | None, share: float) -> str:
        ranks = np.minimum(np.searchsorted(self.cdf, self.rng.random(n)), len(self.words) - 1)
        ids = self.background[ranks]
        if topic is not None:
            from_topic = self.rng.random(n) < share
            ids = np.where(from_topic, topic[ranks], ids)
        return " ".join(self.words[ids].tolist()) + "\n"


def _write_task(path: Path, name: str, sampler: _Sampler, shape: Shape) -> dict[str, int]:
    rng = sampler.rng
    topics = [sampler.topic() for _ in range(shape.entities)]
    n_noise = round(shape.documents * shape.noise_share)
    owners = [j % shape.entities for j in range(shape.documents - n_noise)] + [-1] * n_noise
    owners = [owners[i] for i in rng.permutation(len(owners))]

    (path / "entities").mkdir(parents=True)
    (path / "documents").mkdir()
    manifest: dict = {"name": name, "entities": [], "documents": []}
    for j, topic in enumerate(topics):
        rel = f"entities/e{j}.txt"
        (path / rel).write_text(sampler.text(shape.profile_tokens, topic, PROFILE_TOPIC_SHARE), encoding="utf-8")
        manifest["entities"].append({"id": f"e{j}", "title": f"{name} person {j}", "file": rel})
    gold = []
    for i, owner in enumerate(owners):
        rel = f"documents/d{i:03d}.txt"
        topic = topics[owner] if owner >= 0 else None
        (path / rel).write_text(sampler.text(shape.document_tokens, topic, DOCUMENT_TOPIC_SHARE), encoding="utf-8")
        manifest["documents"].append(
            {"id": f"d{i:03d}", "url": f"http://results.invalid/{name}/{i}", "rank": i + 1, "file": rel}
        )
        gold.append(f"d{i:03d}\t{f'e{owner}' if owner >= 0 else NOISE_LABEL}")
    (path / "task.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    (path / "gold.tsv").write_text("\n".join(gold) + "\n", encoding="utf-8")
    return {"kept_documents": shape.documents - n_noise}


def generate(root: Path, name: str, shape: Shape, seed: int) -> list[dict]:
    """Write the corpus of workload ``name`` for ``seed`` under ``root``.

    Returns one record per task, in task-name order: its name and the
    number of documents with a real-entity gold label.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    sampler = _Sampler(rng, _vocabulary(rng, shape.vocabulary))
    root.mkdir(parents=True)
    tasks = []
    for t in range(shape.tasks):
        task_name = f"{name}-{t:03d}"
        tasks.append({"name": task_name, **_write_task(root / f"t{t:03d}", task_name, sampler, shape)})
    return tasks
