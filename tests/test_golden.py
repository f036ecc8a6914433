"""Every output file of the CLI on the seed-7 synthetic benchmark, pinned by SHA-256.

``tests/golden.json`` maps each file that `write_outputs` writes, by its
path under the output directory, to the SHA-256 of its bytes.  The corpus
is the benchmark plus one task whose name and ids hold a tab, CR, LF or
backslash.  The commands: the full grid with baselines, plain, with a
stopword list taken from the corpus, and with ``--reps 3`` and the paper
idf numerator in base 10; both clustering baselines; ``classify
--scores`` for every model and noise mode, and for every model once more
with every weighting and model setting away from its default; and
``validate``.  A change to any output byte, or a file written or no
longer written, fails the test with the file's name.
Running this module as a script (``PYTHONPATH=src python
tests/test_golden.py``) rewrites the digests, which records an output
change.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from conftest import build_task
from namesift.cli import main
from namesift.corpus import NOISE_LABEL, discover_tasks, load_task, write_task
from namesift.features import NOISE_MODES
from namesift.models import MODELS
from namesift.synthetic import write_benchmark

GOLDEN = Path(__file__).with_name("golden.json")

# A task whose name and ids reach every escape of `tsv_cell`.  gold.tsv
# cannot carry a tab or a line break in an id, so the name holds those.
ESCAPES_TASK = build_task(
    {"e\\0": "river boat sail harbour boat", "e1": "piano concert violin score piano"},
    {"d\\0": "boat harbour sail", "d1": "violin concert piano", "d2": "rain forecast", "d3": "sail river"},
    gold={"d\\0": "e\\0", "d1": "e1", "d2": NOISE_LABEL, "d3": "e\\0"},
    name="Tab\tCR\rLF\nBack\\slash",
)


def _commands() -> list[list[str]]:
    grid = ["grid", "det-corpus", "--models", "all", "--noise-modes", "all", "--baselines"]
    commands = [
        [*grid, "--output", "out/grid"],
        [*grid, "--stopwords", "det-stopwords.txt", "--output", "out/stop"],
        ["cluster", "det-corpus", "--method", "both", "--output", "out/cluster"],
        ["validate", "det-corpus", "--output", "out/validate.tsv"],
    ]
    for model in MODELS:
        for noise in NOISE_MODES:
            commands.append(
                ["classify", "det-corpus", "--model", model, "--noise", noise, "--scores",
                 "--output", f"out/classify-{model}-{noise}"]
            )
    # Every weighting and model setting away from its default.
    for model in MODELS:
        commands.append(
            ["classify", "det-corpus", "--model", model, "--noise", "intersection", "--scores",
             "--idf-numerator", "paper", "--log-base", "2", "--intersection-semantics", "forall",
             "--alpha", "0.3", "--lambda", "0.2", "--laplace-denominator", "per_feature",
             "--output", f"out/settings-{model}"]
        )
    commands.append(
        [*grid, "--reps", "3", "--idf-numerator", "paper", "--log-base", "10", "--output", "out/settings-grid"]
    )
    return commands


def write_outputs() -> dict[str, str]:
    """Write the corpus, the stopword list and every command's output; the digests by path under ``out``.

    Paths are relative to the working directory, as CI's are, so the
    validate report names the same task directories wherever it runs.
    """
    write_benchmark("det-corpus")
    write_task(ESCAPES_TASK, "det-corpus/escapes")
    # Every other token of each task's first document, as CI builds its list.
    words = sorted({t for p in discover_tasks("det-corpus") for t in load_task(p).documents[0].tokens})[::2]
    Path("det-stopwords.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
    for argv in _commands():
        assert main(argv) == 0, argv
    out = Path("out")
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def test_outputs_match_golden_digests(tmp_path, clean_env):
    clean_env.chdir(tmp_path)
    digests = write_outputs()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = sorted(name for name in golden.keys() & digests.keys() if golden[name] != digests[name])
    missing = sorted(golden.keys() - digests.keys())
    extra = sorted(digests.keys() - golden.keys())
    assert not (changed or missing or extra), f"changed {changed}, missing {missing}, extra {extra}"


if __name__ == "__main__":
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            digests = write_outputs()
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
