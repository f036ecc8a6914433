"""Task data model, unigram tokenization, and the on-disk corpus format.

A disambiguation task bundles one ambiguous person name with the
knowledge-base entity profiles sharing that name, the web result documents
retrieved for that name, and a gold alignment of documents to entities.
Documents describing nobody in the entity set carry the reserved label
``__NOISE__``.

On disk a task is a directory::

    <task>/
        task.json     manifest: name, entity and document descriptors
        gold.tsv      one "doc_id<TAB>entity_id" row per document
        entities/     one UTF-8 plain-text profile body per entity
        documents/    one UTF-8 plain-text result body per document

``task.json`` lists entities as objects with ``id``, ``title`` and ``file``
keys and documents with ``id``, ``url``, ``rank`` and ``file`` keys; ``file``
paths are relative to the task directory.  Lines starting with ``#`` and
blank lines in ``gold.tsv`` are ignored.  A corpus root is any directory
whose immediate subdirectories are tasks.
"""

from __future__ import annotations

import html
import json
import os
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection

__all__ = [
    "NOISE_LABEL",
    "CorpusFormatError",
    "CorpusIntegrityError",
    "EntityProfile",
    "ResultDocument",
    "Task",
    "tokenize",
    "strip_html",
    "load_task",
    "read_manifest",
    "write_task",
    "discover_tasks",
    "tsv_cell",
    "clustering_eval_filter",
]

# Reserved gold label for documents outside the entity set.
NOISE_LABEL = "__NOISE__"

# Maximal runs of letters or digits; underscore is a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# On ASCII text the same rule: every character that is not a letter or a
# digit becomes a space, and the text splits on whitespace.
_ASCII_SEPARATORS = str.maketrans({chr(c): " " for c in range(128) if not chr(c).isalnum()})

_TAG_RE = re.compile(r"<[^>]*>", re.DOTALL)
_SCRIPT_RE = re.compile(r"<(script|style)\b.*?</\1\s*>", re.DOTALL | re.IGNORECASE)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)


class CorpusFormatError(ValueError):
    """A task directory or manifest does not follow the corpus format."""


class CorpusIntegrityError(ValueError):
    """Files parse but the task violates a consistency rule."""


def _frozen_stopwords(stopwords: Collection[str] | None) -> frozenset[str] | None:
    """``stopwords`` as a frozenset, None when empty; a frozenset is returned as is.

    A bare string raises TypeError: it is a collection of its letters,
    which no caller means.
    """
    if isinstance(stopwords, str):
        raise TypeError(f"stopwords must be a collection of words, not the string {stopwords!r}")
    return frozenset(stopwords) if stopwords else None


def tokenize(text: str, stopwords: Collection[str] | None = None) -> list[str]:
    """Lowercase ``text`` and split it into unigram tokens.

    Tokens are maximal runs of alphanumeric characters; everything else,
    including underscores, separates tokens.  Digits are kept, empty tokens
    are dropped, and no stemming is applied.  When ``stopwords`` is given,
    tokens contained in it are removed after splitting; a bare string
    raises TypeError.  Lowercased ASCII text skips the regular expression:
    below code point 128 the letters and digits are exactly ``[a-z0-9]``,
    so both paths give the same tokens.
    """
    stopwords = _frozen_stopwords(stopwords)
    text = text.lower()
    tokens = text.translate(_ASCII_SEPARATORS).split() if text.isascii() else _TOKEN_RE.findall(text)
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


def strip_html(text: str) -> str:
    """Optional ingestion pre-pass: drop markup and decode entities."""
    text = _SCRIPT_RE.sub(" ", text)
    text = _COMMENT_RE.sub(" ", text)
    text = _TAG_RE.sub(" ", text)
    return html.unescape(text)


class _Element:
    """A profile's or document's ``tokens``: ``tokenize(text, stopwords)``, derived on each access.

    The dataclass's ``stopwords`` field is replaced by a frozen copy at
    construction; a bare string raises TypeError.
    """

    def __post_init__(self) -> None:
        self.stopwords = _frozen_stopwords(self.stopwords)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(tokenize(self.text, self.stopwords))


@dataclass
class EntityProfile(_Element):
    """Knowledge-base description of one candidate person."""

    id: str
    title: str
    text: str
    stopwords: Collection[str] | None = field(default=None, repr=False)


@dataclass
class ResultDocument(_Element):
    """One web search result retrieved for the ambiguous name."""

    id: str
    url: str
    rank: int
    text: str
    stopwords: Collection[str] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or isinstance(self.rank, bool) or self.rank < 1:
            raise CorpusIntegrityError(f"document {self.id!r}: rank must be a positive integer, got {self.rank!r}")
        super().__post_init__()


@dataclass
class Task:
    """One ambiguous name with its entities, documents, and gold labels.

    ``gold`` maps every document id to an entity id or ``__NOISE__``.
    """

    name: str
    entities: list[EntityProfile]
    documents: list[ResultDocument]
    gold: dict[str, str]

    def __post_init__(self) -> None:
        self.validate()

    @property
    def entity_ids(self) -> list[str]:
        return [e.id for e in self.entities]

    @property
    def document_ids(self) -> list[str]:
        return [d.id for d in self.documents]

    def validate(self) -> None:
        """Raise :class:`CorpusIntegrityError` on any broken invariant."""
        entity_ids: set[str] = set()
        for eid in self.entity_ids:
            if eid in entity_ids:
                raise CorpusIntegrityError(f"task {self.name!r}: duplicate entity id {eid!r}")
            entity_ids.add(eid)
        seen = set(entity_ids)
        for did in self.document_ids:
            if did in entity_ids:
                # Element ids key the feature index, so the two id spaces
                # must not overlap.
                raise CorpusIntegrityError(f"task {self.name!r}: id {did!r} used by both an entity and a document")
            if did in seen:
                raise CorpusIntegrityError(f"task {self.name!r}: duplicate document id {did!r}")
            seen.add(did)
        if NOISE_LABEL in seen:
            raise CorpusIntegrityError(f"task {self.name!r}: id {NOISE_LABEL!r} is reserved")
        doc_ids = set(self.document_ids)
        gold_ids = set(self.gold)
        if gold_ids != doc_ids:
            missing = sorted(doc_ids - gold_ids)
            extra = sorted(gold_ids - doc_ids)
            raise CorpusIntegrityError(
                f"task {self.name!r}: gold alignment must cover documents exactly"
                f" (missing {missing!r}, unknown {extra!r})"
            )
        valid = set(self.entity_ids) | {NOISE_LABEL}
        for did, label in self.gold.items():
            if label not in valid:
                raise CorpusIntegrityError(f"task {self.name!r}: gold label {label!r} for {did!r} is not an entity id")


def clustering_eval_filter(task: Task) -> list[str]:
    """Documents whose gold label is a real entity, in task order."""
    return [d.id for d in task.documents if task.gold[d.id] != NOISE_LABEL]


def _require(mapping: object, key: str, where: str):
    if not isinstance(mapping, dict):
        raise CorpusFormatError(f"{where}: must be a JSON object, got {type(mapping).__name__}")
    if key not in mapping:
        raise CorpusFormatError(f"{where}: missing key {key!r}")
    return mapping[key]


def _require_list(mapping: dict, key: str, where: str) -> list:
    value = _require(mapping, key, where)
    if not isinstance(value, list):
        raise CorpusFormatError(f"{where}: {key} must be a JSON list, got {type(value).__name__}")
    return value


def _open_nonblocking(path: str, flags: int) -> int:
    """``os.open`` that returns at once on a FIFO instead of waiting for a writer."""
    return os.open(path, flags | os.O_NONBLOCK)


def _read_regular(path: str | Path) -> str:
    """The UTF-8 text of a regular file; anything else raises OSError at once."""
    # newline="" keeps every line ending as written, so bodies round-trip.
    with open(path, encoding="utf-8", newline="", opener=_open_nonblocking) as f:
        # A FIFO or a device could block or never end; open itself has
        # already refused a directory.
        if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            raise OSError("not a regular file")
        return f.read()


def _read_text(path: Path, where: str) -> str:
    try:
        return _read_regular(path)
    except FileNotFoundError:
        raise CorpusFormatError(f"{where}: referenced file {path} does not exist") from None
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{where}: {path} is not valid UTF-8 ({exc})") from None
    except (OSError, ValueError) as exc:  # a directory, no permission, a NUL byte
        raise CorpusFormatError(f"{where}: cannot read {path} ({exc})") from None


def _resolves_inside(path: Path, directory: str) -> bool:
    """Whether ``path``, symlinks followed, is or lies under ``directory``, a resolved path ending in a separator."""
    try:
        return os.path.join(os.path.realpath(path), "").startswith(directory)
    except (OSError, ValueError):  # a NUL byte
        return False


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\r": "\\r", "\n": "\\n"})


def tsv_cell(text: str) -> str:
    r"""``text`` as one TSV cell: backslash, tab, CR and LF become ``\\``, ``\t``, ``\r``, ``\n``."""
    return text.translate(_TSV_ESCAPES)


def _is_gold_skip(line: str) -> bool:
    """Blank and ``#`` comment lines of gold.tsv carry no row."""
    return not line.strip() or line.lstrip().startswith("#")


def _gold_line(doc_id: str, label: str) -> str:
    """The gold.tsv row of one document; raises if the format cannot carry it."""
    line = f"{doc_id}\t{label}"
    if line.count("\t") != 1 or line.splitlines() != [line] or _is_gold_skip(line):
        raise CorpusFormatError(
            f"document {doc_id!r} labeled {label!r} cannot be a gold.tsv row:"
            " ids may not contain tabs or line breaks, and a row may not be blank or start with '#'"
        )
    return line


def _parse_gold(path: Path) -> dict[str, str]:
    rows: dict[str, str] = {}
    text = _read_text(path, "gold.tsv")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _is_gold_skip(line):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(f"gold.tsv line {lineno}: expected 2 tab-separated columns, got {len(parts)}")
        doc_id, label = parts
        if doc_id in rows:
            raise CorpusIntegrityError(f"gold.tsv line {lineno}: duplicate row for document {doc_id!r}")
        rows[doc_id] = label
    return rows


def read_manifest(path: str | Path) -> dict:
    """The parsed task.json of a task directory, its ``name`` checked; bodies and gold are not read."""
    manifest_path = Path(path, "task.json")
    if not manifest_path.is_file():
        raise CorpusFormatError(f"{path}: no task.json manifest")
    manifest_text = _read_text(manifest_path, "task.json")
    try:
        manifest = json.loads(manifest_text)
        # A \udXXX escape can decode to a lone surrogate, which no output
        # could encode.
        json.dumps(manifest, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusFormatError(f"{manifest_path}: a string holds an unpaired surrogate escape") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, nesting too deep
        raise CorpusFormatError(f"{manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise CorpusFormatError(f"{manifest_path}: manifest must be a JSON object")

    name = _require(manifest, "name", "task.json")
    if not isinstance(name, str) or not name:
        raise CorpusFormatError("task.json: name must be a non-empty string")
    return manifest


def load_task(
    path: str | Path,
    *,
    strip_markup: bool = False,
    stopwords: Collection[str] | None = None,
) -> Task:
    """Read one task directory into a fully validated :class:`Task`.

    Args:
        path: task directory containing ``task.json`` and ``gold.tsv``.
        strip_markup: apply :func:`strip_html` to every body as it is read
            (for corpora stored as raw HTML).
        stopwords: optional token blacklist; every element keeps one shared
            frozen copy and applies it when its ``tokens`` are derived.  A
            bare string raises TypeError.

    Raises:
        CorpusFormatError: missing or malformed files.
        CorpusIntegrityError: parseable but inconsistent task.
    """
    path = Path(path)
    stopwords = _frozen_stopwords(stopwords)
    inside = os.path.join(os.path.realpath(path), "")
    manifest = read_manifest(path)

    def _body(spec: dict, where: str) -> str:
        rel = _require(spec, "file", where)
        if not isinstance(rel, str):
            raise CorpusFormatError(f"{where}: file must be a string, got {rel!r}")
        # Bodies live inside the task directory: no absolute path, and no
        # ``..`` or symlink that leads out of it once resolved.
        if os.path.isabs(rel) or not _resolves_inside(path / rel, inside):
            raise CorpusFormatError(f"{where}: file {rel!r} is not a path inside the task directory")
        text = _read_text(path / rel, "task.json")
        return strip_html(text) if strip_markup else text

    entities = []
    for i, spec in enumerate(_require_list(manifest, "entities", "task.json")):
        where = f"task.json entities[{i}]"
        entities.append(
            EntityProfile(
                id=str(_require(spec, "id", where)),
                title=str(_require(spec, "title", where)),
                text=_body(spec, where),
                stopwords=stopwords,
            )
        )
    documents = []
    for i, spec in enumerate(_require_list(manifest, "documents", "task.json")):
        where = f"task.json documents[{i}]"
        rank = _require(spec, "rank", where)
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise CorpusFormatError(f"{where}: rank must be an integer, got {rank!r}")
        documents.append(
            ResultDocument(
                id=str(_require(spec, "id", where)),
                url=str(_require(spec, "url", where)),
                rank=rank,
                text=_body(spec, where),
                stopwords=stopwords,
            )
        )

    gold = _parse_gold(path / "gold.tsv")
    return Task(name=manifest["name"], entities=entities, documents=documents, gold=gold)


def write_task(task: Task, path: str | Path) -> Path:
    """Serialize ``task`` into a directory readable by :func:`load_task`.

    Bodies are written verbatim, so a write/load round trip reproduces the
    task exactly (loaded with the stopwords its elements hold).  A task the
    format cannot carry (an empty name, a document id or gold label that
    would not read back as its own gold.tsv row, or text UTF-8 cannot
    encode) raises :class:`CorpusFormatError` before anything is written.
    """
    if not task.name:
        raise CorpusFormatError("task name must be a non-empty string")
    gold_lines = [_gold_line(doc.id, task.gold[doc.id]) for doc in task.documents]
    manifest: dict = {"name": task.name, "entities": [], "documents": []}
    files: dict[str, str] = {}
    for i, entity in enumerate(task.entities):
        rel = f"entities/e{i:03d}.txt"
        files[rel] = entity.text
        manifest["entities"].append({"id": entity.id, "title": entity.title, "file": rel})
    for i, doc in enumerate(task.documents):
        rel = f"documents/d{i:03d}.txt"
        files[rel] = doc.text
        manifest["documents"].append({"id": doc.id, "url": doc.url, "rank": doc.rank, "file": rel})
    files["task.json"] = json.dumps(manifest, ensure_ascii=False, indent=2) + "\n"
    files["gold.tsv"] = "\n".join(gold_lines) + "\n"
    try:
        encoded = {rel: text.encode("utf-8") for rel, text in files.items()}
    except UnicodeEncodeError as exc:
        raise CorpusFormatError(f"task {task.name!r}: text UTF-8 cannot encode ({exc})") from None
    path = Path(path)
    (path / "entities").mkdir(parents=True, exist_ok=True)
    (path / "documents").mkdir(parents=True, exist_ok=True)
    for rel, data in encoded.items():
        (path / rel).write_bytes(data)
    return path


def discover_tasks(root: str | Path) -> list[Path]:
    """Return task directories under ``root``, sorted by directory name."""
    root = Path(root)
    if not root.is_dir():
        raise CorpusFormatError(f"corpus root {root} is not a directory")
    return sorted(p for p in root.iterdir() if p.is_dir() and (p / "task.json").is_file())
