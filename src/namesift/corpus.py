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
paths are relative to the task directory.  Lines of ``gold.tsv`` end at
LF, CR LF or CR; lines starting with ``#`` and blank lines are ignored.  A
leading byte-order mark is dropped from ``gold.tsv`` and ``task.json``.  A
corpus root is any directory whose immediate subdirectories are tasks.
"""

from __future__ import annotations

import errno
import html
import json
import os
import re
import stat
from contextlib import contextmanager
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


def _require_str(mapping: object, key: str, where: str, non_empty: bool = False) -> str:
    value = _require(mapping, key, where)
    if not isinstance(value, str) or (non_empty and not value):
        what = "a non-empty string" if non_empty else "a string"
        raise CorpusFormatError(f"{where}: {key} must be {what}, got {value!r}")
    return value


def _require_list(mapping: dict, key: str, where: str) -> list:
    value = _require(mapping, key, where)
    if not isinstance(value, list):
        raise CorpusFormatError(f"{where}: {key} must be a JSON list, got {type(value).__name__}")
    return value


def _read_fd(fd: int, name: str | Path) -> str:
    """The UTF-8 text of the open file ``fd``, which is closed; anything but a regular file raises OSError.

    A directory raises IsADirectoryError naming ``name``.
    """
    try:
        mode = os.fstat(fd).st_mode
        if stat.S_ISDIR(mode):  # os.open, unlike open(), opens a directory
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(name))
        if not stat.S_ISREG(mode):  # a FIFO or a device could block or never end
            raise OSError("not a regular file")
        chunks = []
        while chunk := os.read(fd, 1 << 20):
            chunks.append(chunk)
    finally:
        os.close(fd)
    # Decoded without newline translation, so bodies round-trip.
    return b"".join(chunks).decode("utf-8")


def _read_regular(path: str | Path, dir_fd: int | None = None) -> str:
    """The UTF-8 text of the regular file ``path``, relative to ``dir_fd`` if given; anything else raises OSError at once.

    O_NONBLOCK makes a FIFO open at once instead of waiting for a writer.
    """
    return _read_fd(os.open(path, os.O_RDONLY | os.O_NONBLOCK, dir_fd=dir_fd), path)


def _read_error(exc: OSError | ValueError, path: Path, where: str) -> CorpusFormatError:
    """The format error for file ``path`` of a task, which could not be read."""
    if isinstance(exc, FileNotFoundError):
        return CorpusFormatError(f"{where}: referenced file {path} does not exist")
    if isinstance(exc, UnicodeDecodeError):
        return CorpusFormatError(f"{where}: {path} is not valid UTF-8 ({exc})")
    if isinstance(exc, OSError) and exc.errno is not None:
        # An os.open relative to a descriptor names only what it opened;
        # the message names the whole path, as opening that would.
        exc = OSError(exc.errno, exc.strerror, str(path))
    return CorpusFormatError(f"{where}: cannot read {path} ({exc})")  # a directory, no permission


def _read_text(path: Path, where: str, dir_fd: int | None = None) -> str:
    """The text of the regular file ``path``; given its directory's descriptor ``dir_fd``, only its last name is opened."""
    try:
        return _read_regular(path if dir_fd is None else path.name, dir_fd)
    except (OSError, ValueError) as exc:
        raise _read_error(exc, path, where) from None


def _walk(dir_fd: int, rel: str) -> int | None:
    """A descriptor of the body ``rel``, opened one component at a time down from the task directory ``dir_fd``.

    None when only resolving the path can tell where it leads: ``rel``
    holds a ``..``, a NUL byte, or a component that is a symlink, which
    O_NOFOLLOW refuses with ELOOP (ENOTDIR under O_DIRECTORY, which a file
    where a directory belongs also gives).  Any other OSError is raised.
    """
    parts = [part for part in rel.split("/") if part not in ("", ".")] or ["."]
    if ".." in parts or "\0" in rel:
        return None
    flags = os.O_RDONLY | os.O_NOFOLLOW
    fd = dir_fd
    try:
        for part in parts[:-1]:
            parent, fd = fd, os.open(part, flags | os.O_DIRECTORY, dir_fd=fd)
            if parent != dir_fd:
                os.close(parent)
        return os.open(parts[-1], flags | os.O_NONBLOCK, dir_fd=fd)
    except OSError as exc:
        if exc.errno in (errno.ELOOP, errno.ENOTDIR):
            return None
        raise
    finally:
        if fd != dir_fd:
            os.close(fd)


def _resolves_inside(path: Path, directory: Path) -> bool:
    """Whether ``path``, symlinks followed, is or lies under ``directory``, symlinks followed."""
    try:
        return os.path.join(os.path.realpath(path), "").startswith(os.path.join(os.path.realpath(directory), ""))
    except (OSError, ValueError):  # a NUL byte
        return False


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\r": "\\r", "\n": "\\n"})


def tsv_cell(text: str) -> str:
    r"""``text`` as one TSV cell: backslash, tab, CR and LF become ``\\``, ``\t``, ``\r``, ``\n``."""
    return text.translate(_TSV_ESCAPES)


_LINE_BREAK = re.compile(r"\r\n?|\n")


def _lines(text: str) -> list[str]:
    """The lines of a line-oriented file's ``text``, a leading U+FEFF dropped.

    Lines end at LF, CR LF or CR, the breaks `tsv_cell` escapes, and at
    nothing else; a break at the end of the text starts no line.
    """
    lines = _LINE_BREAK.split(text.removeprefix("\ufeff"))
    return lines[:-1] if lines[-1] == "" else lines


def _parse_json(text: str, where: str):
    """The JSON value of ``text``, a leading U+FEFF dropped; bad JSON raises CorpusFormatError naming ``where``."""
    try:
        value = json.loads(text.removeprefix("\ufeff"))
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, nesting too deep
        raise CorpusFormatError(f"{where} is not valid JSON ({exc})") from None
    # A \udXXX escape can decode to a lone surrogate, which no output could
    # encode; name the top-level entry that holds one.
    for key, item in value.items() if isinstance(value, dict) else [(None, value)]:
        try:
            json.dumps(key, ensure_ascii=False).encode("utf-8")
            json.dumps(item, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            entry = "" if key is None else f" entry {key!r}"
            raise CorpusFormatError(f"{where}{entry} holds an unpaired surrogate escape") from None
        except RecursionError as exc:  # nesting too deep to write back
            raise CorpusFormatError(f"{where} is not valid JSON ({exc})") from None
    return value


def _is_gold_skip(line: str) -> bool:
    """Blank and ``#`` comment lines of gold.tsv carry no row."""
    return not line.strip() or line.lstrip().startswith("#")


def _gold_line(doc_id: str, label: str) -> str:
    """The gold.tsv row of one document; raises if the format cannot carry it."""
    line = f"{doc_id}\t{label}"
    if line.count("\t") != 1 or _lines(line) != [line] or _is_gold_skip(line):
        raise CorpusFormatError(
            f"document {doc_id!r} labeled {label!r} cannot be a gold.tsv row: ids may not contain tabs"
            " or line breaks, and a row may not be blank or start with '#' or a byte-order mark"
        )
    return line


def _parse_gold(path: Path, dir_fd: int) -> dict[str, str]:
    rows: dict[str, str] = {}
    text = _read_text(path, "gold.tsv", dir_fd)
    for lineno, line in enumerate(_lines(text), start=1):
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


@contextmanager
def _task_directory(path: Path):
    """The task directory ``path`` open as a descriptor, which every file of the task is read through."""
    try:
        dir_fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except (FileNotFoundError, NotADirectoryError, ValueError):
        raise CorpusFormatError(f"{path}: no task.json manifest") from None
    except OSError as exc:  # no permission
        raise CorpusFormatError(f"{path}: cannot open the task directory ({exc.strerror})") from None
    try:
        yield dir_fd
    finally:
        os.close(dir_fd)


def _read_manifest(path: Path, dir_fd: int) -> dict:
    manifest_path = path / "task.json"
    try:
        absent = not stat.S_ISREG(os.stat("task.json", dir_fd=dir_fd).st_mode)
    except OSError as exc:  # no permission: the read below says so
        absent = exc.errno in (errno.ENOENT, errno.ENOTDIR)
    if absent:
        raise CorpusFormatError(f"{path}: no task.json manifest")
    manifest = _parse_json(_read_text(manifest_path, "task.json", dir_fd), str(manifest_path))
    if not isinstance(manifest, dict):
        raise CorpusFormatError(f"{manifest_path}: manifest must be a JSON object")

    _require_str(manifest, "name", "task.json", non_empty=True)
    return manifest


def read_manifest(path: str | Path) -> dict:
    """The parsed task.json of a task directory, its ``name`` checked; bodies and gold are not read."""
    path = Path(path)
    with _task_directory(path) as dir_fd:
        return _read_manifest(path, dir_fd)


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
    with _task_directory(path) as dir_fd:
        manifest = _read_manifest(path, dir_fd)

        def _body(spec: dict, where: str) -> str:
            rel = _require_str(spec, "file", where)
            # Bodies live inside the task directory: no absolute path, and no
            # ``..`` or symlink that leads out of it.  A path the walk follows
            # to its end holds neither; any other is resolved and checked.
            text = None
            if not os.path.isabs(rel):
                try:
                    fd = _walk(dir_fd, rel)
                    text = None if fd is None else _read_fd(fd, rel)
                except (OSError, ValueError) as exc:
                    raise _read_error(exc, path / rel, "task.json") from None
                if text is None and _resolves_inside(path / rel, path):
                    text = _read_text(path / rel, "task.json")
            if text is None:
                raise CorpusFormatError(f"{where}: file {rel!r} is not a path inside the task directory")
            return strip_html(text) if strip_markup else text

        entities = []
        for i, spec in enumerate(_require_list(manifest, "entities", "task.json")):
            where = f"task.json entities[{i}]"
            entities.append(
                EntityProfile(
                    id=_require_str(spec, "id", where),
                    title=_require_str(spec, "title", where),
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
                    id=_require_str(spec, "id", where),
                    url=_require_str(spec, "url", where),
                    rank=rank,
                    text=_body(spec, where),
                    stopwords=stopwords,
                )
            )

        gold = _parse_gold(path / "gold.tsv", dir_fd)
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
    """Task directories under ``root`` by directory name, and any whose task.json cannot be checked, so loading says why."""
    root = Path(root)
    try:
        return sorted(p for p in root.iterdir() if _may_hold_task(p))
    except (FileNotFoundError, NotADirectoryError):
        raise CorpusFormatError(f"corpus root {root} is not a directory") from None
    except OSError as exc:  # a name too long; no permission
        raise CorpusFormatError(f"corpus root {root} cannot be read ({exc.strerror})") from None


def _may_hold_task(path: Path) -> bool:
    """Whether ``path`` is a directory holding a task.json file, or cannot be checked."""
    try:
        return stat.S_ISDIR(os.stat(path).st_mode) and stat.S_ISREG(os.stat(path / "task.json").st_mode)
    except OSError as exc:  # a missing file or directory, a symlink loop, or no permission
        return exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)
