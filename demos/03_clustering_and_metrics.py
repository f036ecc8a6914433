"""Clustering baselines and the evaluation metrics, end to end.

Clusters a handful of sparse vectors with complete-link agglomeration and
seeded K-Means, then scores several candidate groupings with purity, NMI,
and micro/macro F1 to show what each metric rewards and punishes.

Run:  python3 demos/03_clustering_and_metrics.py
"""

import numpy as np

from namesift import (
    NOISE_LABEL,
    gram,
    hac_complete,
    kmeans,
    micro_macro_f1,
    nmi,
    purity,
    run_repetitions,
)

# Six documents in three tight topical pairs.  Feature ids are arbitrary;
# only overlap matters for cosine distance.
VECTORS = {
    "a1": {0: 2.0, 1: 1.0},
    "a2": {0: 1.5, 1: 0.9},
    "b1": {2: 1.0, 3: 2.0},
    "b2": {2: 1.2, 3: 1.7},
    "c1": {4: 1.0, 5: 1.0},
    "c2": {4: 0.8, 5: 1.3},
}
GOLD = {"a1": "A", "a2": "A", "b1": "B", "b2": "B", "c1": "C", "c2": "C"}


def csr_rows(vectors: dict[str, dict[int, float]]):
    """The ids, feature ids, offsets and weights that `gram` reads, one row per vector."""
    features = np.array([f for vector in vectors.values() for f in vector], dtype=np.int64)
    weights = np.array([w for vector in vectors.values() for w in vector.values()], dtype=float)
    offsets = np.cumsum([0] + [len(vector) for vector in vectors.values()])
    return list(vectors), features, offsets, weights


def show(title: str, clusters) -> None:
    groups = [sorted(c) for c in (clusters.clusters if hasattr(clusters, "clusters") else clusters)]
    groups.sort()
    p = purity(groups, GOLD)
    n = nmi(groups, GOLD)
    print(f"  {title:34} {groups}  purity={p:.3f}  nmi={n:.3f}")


def main() -> None:
    shared = gram(*csr_rows(VECTORS))
    print("== complete-link agglomeration ==")
    for k in (3, 2, 1):
        show(f"hac_complete, k={k}", hac_complete(shared, k))

    print("\n== seeded K-Means ==")
    for seed in (1, 2, 3):
        result = kmeans(shared, 3, seed)
        show(f"kmeans, k=3, seed={seed}", result)
    runs = run_repetitions(shared, 3, reps=10)
    mean_nmi = sum(nmi(r, GOLD) for r in runs) / len(runs)
    print(f"  mean NMI over seeds 1..10: {mean_nmi:.3f}")

    print("\n== what the metrics reward ==")
    show("perfect partition", [["a1", "a2"], ["b1", "b2"], ["c1", "c2"]])
    show("one merge too few", [["a1", "a2", "b1", "b2"], ["c1", "c2"]])
    show("all singletons (purity flatters)", [[d] for d in GOLD])
    show("everything together", [list(GOLD)])

    print("\n== classification F1 on the same task ==")
    # F1 needs labeled predictions, not anonymous clusters.  NOISE is a
    # class like any other here; the universe is the gold label set.
    gold = dict(GOLD, x1=NOISE_LABEL)
    for title, predicted in (
        ("perfect", dict(gold)),
        ("one doc astray", dict(gold, a2="B")),
        ("noise doc mislabeled", dict(gold, x1="A")),
    ):
        micro, macro = micro_macro_f1(predicted, gold)
        print(f"  {title:22} micro={micro:.3f}  macro={macro:.3f}  mean={(micro + macro) / 2:.3f}")

    print("\n== grouping an assignment for the clustering protocol ==")
    predicted = dict(GOLD, a2="B")
    groups = {}
    for doc_id, label in predicted.items():
        if gold.get(doc_id) != NOISE_LABEL:
            groups.setdefault(label, []).append(doc_id)
    clusters = list(groups.values())
    show("clusters from labels", clusters)


if __name__ == "__main__":
    main()
