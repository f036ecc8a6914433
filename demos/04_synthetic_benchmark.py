"""The built-in open-world benchmark: grid run, pivot, baseline contrast.

Generates the deterministic 5-task synthetic corpus (3 people per task,
30 result documents of which 10 belong to nobody in the knowledge base),
runs every model with and without noise profiles, and compares against
the unsupervised clustering baselines.

Run:  python3 demos/04_synthetic_benchmark.py
"""

import tempfile
from pathlib import Path

from namesift import MODELS, RunSpec, run_grid, synthetic_benchmark
from namesift.experiments import pivot_tsv
from namesift.synthetic import write_benchmark


def show_table(tsv: str) -> None:
    rows = [line.split("\t") for line in tsv.splitlines()]
    widths = [max(len(row[i]) for row in rows if i < len(row)) for i in range(max(map(len, rows)))]
    for row in rows:
        print("  " + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())


def main() -> None:
    tasks = synthetic_benchmark(seed=7)
    print("== corpus shape ==")
    for task in tasks:
        noise_docs = sum(1 for d in task.documents if task.gold[d.id] == "__NOISE__")
        print(
            f"  {task.name:18} {len(task.entities)} entities, "
            f"{len(task.documents)} documents ({noise_docs} about nobody in the KB)"
        )

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        write_benchmark(root, seed=7)
        spec = RunSpec(
            corpus_root=root,
            models=MODELS,
            noise_modes=("none", "union", "intersection"),
            hac=True,
            kmeans=True,
            reps=10,
        )
        result = run_grid(spec)

    print("\n== mean F1 (micro+macro)/2, model x noise ==")
    show_table(pivot_tsv(result.reports))

    print("\n== clustering protocol: NMI on the 100 in-KB documents ==")
    show_table(pivot_tsv(result.reports, metric="nmi"))

    print()
    cells = {(r.model, r.noise or "-"): r.aggregate for r in result.reports}
    best = cells[("score_smoothed", "intersection")]
    print(f"smoothed dot product + intersection noise: F1bar={best.f1_bar:.3f}, NMI={best.nmi:.3f}")
    print(f"complete-link HAC baseline:                NMI={cells[('hac_complete', '-')].nmi:.3f}")
    print(f"K-Means baseline (10 seeds):               NMI={cells[('kmeans', '-')].nmi:.3f}")
    print("\nbootstrapped profiles beat unsupervised grouping, and a noise")
    print("profile beats assigning every stray document to some real person.")


if __name__ == "__main__":
    main()
