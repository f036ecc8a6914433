"""The on-disk corpus format and the command line, driven end to end.

Materializes a two-task corpus, prints the files a task directory holds,
then runs the same workflow a shell user would: validate, classify with
score files, a full grid, and a pivot of the saved grid JSON.

Run:  python3 demos/05_corpus_and_cli.py
"""

import json
import tempfile
from pathlib import Path

from namesift import EntityProfile, NOISE_LABEL, ResultDocument, Task, write_task
from namesift.cli import main as cli


def build_corpus(root: Path) -> None:
    # Profiles share encyclopedia boilerplate; the stray document carries
    # only that boilerplate, which is exactly what noise profiles absorb.
    shared = "born career photo"
    baker = Task(
        name="baker",
        entities=[
            EntityProfile(id="e1", title="drummer", text="drums rhythm tour band " * 8 + shared),
            EntityProfile(id="e2", title="chemist", text="polymer reaction catalyst lab " * 8 + shared),
        ],
        documents=[
            ResultDocument(id="d1", url="http://a/1", rank=1, text="drums tour band interview"),
            ResultDocument(id="d2", url="http://a/2", rank=2, text="catalyst reaction polymer paper"),
            ResultDocument(id="d3", url="http://a/3", rank=3, text="born career photo directory"),
        ],
        gold={"d1": "e1", "d2": "e2", "d3": NOISE_LABEL},
    )
    mason = Task(
        name="mason",
        entities=[
            EntityProfile(id="e1", title="pilot", text="aircraft cockpit flight runway " * 8 + shared),
            EntityProfile(id="e2", title="novelist", text="novel chapter plot publisher " * 8 + shared),
        ],
        documents=[
            ResultDocument(id="d1", url="http://b/1", rank=1, text="flight cockpit runway log"),
            ResultDocument(id="d2", url="http://b/2", rank=2, text="novel publisher chapter deal"),
        ],
        gold={"d1": "e1", "d2": "e2"},
    )
    for task in (baker, mason):
        write_task(task, root / task.name)


def run(argv: list[str]) -> None:
    print(f"\n$ namesift {' '.join(argv)}")
    code = cli(argv)
    print(f"(exit {code})")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        out = Path(tmp) / "out"
        build_corpus(root)

        print("== a task directory on disk ==")
        for path in sorted((root / "baker").iterdir()):
            print(f"  {path.name}")
        manifest = json.loads((root / "baker" / "task.json").read_text(encoding="utf-8"))
        print(f"  task.json keys: {sorted(manifest)}")
        print("  gold.tsv:")
        for line in (root / "baker" / "gold.tsv").read_text(encoding="utf-8").splitlines():
            print(f"    {line}")

        run(["validate", str(root)])
        run(["classify", str(root), "--model", "score_smoothed", "--noise", "intersection",
             "--output", str(out), "--scores"])

        print("\nfiles written by classify:")
        for path in sorted(out.iterdir()):
            print(f"  {path.name}")
        print("\nbaker.assignment.tsv:")
        for line in (out / "baker.assignment.tsv").read_text(encoding="utf-8").splitlines():
            print(f"  {line}")

        run(["grid", str(root), "--models", "all", "--noise-modes", "all",
             "--baselines", "--reps", "5", "--output", str(out)])
        run(["report", str(out / "grid.json"), "--metric", "f1_bar"])


if __name__ == "__main__":
    main()
