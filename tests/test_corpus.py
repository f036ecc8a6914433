"""Tokenization, task validation, and corpus round-trip tests."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from namesift.corpus import (
    _TOKEN_RE,
    NOISE_LABEL,
    CorpusFormatError,
    CorpusIntegrityError,
    EntityProfile,
    ResultDocument,
    Task,
    discover_tasks,
    load_task,
    strip_html,
    tokenize,
    write_task,
)
from namesift.cli import main as cli_main
from namesift.experiments import RunSpec, load_tasks, validate_corpus

import oracles
from conftest import build_task, deny_access, write_mini_corpus


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_splits_on_nonalphanumeric_runs():
    assert tokenize("John Campbell's Yoga") == ["john", "campbell", "s", "yoga"]
    assert tokenize("U.C. Berkeley 2012") == ["u", "c", "berkeley", "2012"]


def test_tokenize_empty_input():
    assert tokenize("") == []
    assert tokenize("   \n\t  ") == []
    assert tokenize("!!! --- ???") == []


def test_tokenize_keeps_digits_and_unicode_letters():
    assert tokenize("Area 51 and Zürich") == ["area", "51", "and", "zürich"]


def test_tokenize_splits_on_underscores():
    # Underscores are word chars to \w but carry no lexical content here.
    assert tokenize("snake_case_name") == ["snake", "case", "name"]


def test_tokenize_stopword_filter():
    assert tokenize("the cat and the hat", stopwords={"the", "and"}) == ["cat", "hat"]


def test_token_count_and_idempotence_properties():
    rng = np.random.default_rng(11)
    pool = list("abcXYZ0129 ..,;'!-_\tü(")
    for _ in range(200):
        text = "".join(rng.choice(pool, size=int(rng.integers(0, 60))))
        tokens = tokenize(text)
        counts = Counter(tokens)
        assert sum(counts.values()) == len(tokens)
        assert tokenize(" ".join(tokens)) == tokens


# Characters where the ASCII and the regex paths could part: Kelvin sign
# (lowercases to ASCII "k"), dotted capital I (lowercases to two code
# points), superscript two, underscore, fullwidth digits, and the ASCII
# controls and separators that str.split treats as whitespace.
_TRICKY = st.sampled_from(["K", "İ", "²", "_", "０", "９", "\x1c", "\x1f", "\x85", " "])
_ASCII_TEXT = st.text(st.characters(max_codepoint=127), max_size=40)
_ANY_TEXT = st.lists(st.text(max_size=8) | _TRICKY, max_size=8).map("".join)
_STOPWORDS = st.none() | st.frozensets(st.sampled_from(["a", "k", "i", "2", "0", "the", "i̇"]), max_size=4)


@settings(max_examples=300, deadline=None)
@given(text=_ASCII_TEXT | _ANY_TEXT, stopwords=_STOPWORDS)
@example(text="Kelvin \u212a2 and A_b", stopwords=None)
@example(text="\u212a", stopwords=frozenset({"k"}))
@example(text="\u0130stanbul x\u00b2 \uff10\uff19 snake_case", stopwords=None)
@example(text="\u0130 i", stopwords=frozenset({"i"}))
def test_tokenize_equals_the_token_regex(text, stopwords):
    """Both tokenizer paths give the tokens of the regex on the lowercased text."""
    expected = _TOKEN_RE.findall(text.lower())
    if stopwords:
        expected = [t for t in expected if t not in stopwords]
    assert tokenize(text, stopwords) == expected


def test_strip_html_removes_markup_and_decodes_entities():
    html = (
        "<html><head><style>p {color: red}</style>"
        "<script>var x = 1;</script></head>"
        "<body><p>Tom &amp; Jerry</p><!-- hidden --><br/>2 &lt; 3</body></html>"
    )
    text = strip_html(html)
    assert "Tom & Jerry" in text
    assert "2 < 3" in text
    for leftover in ("<p>", "script", "color", "hidden"):
        assert leftover not in text


# ---------------------------------------------------------------------------
# domain types


def test_profile_and_document_tokens_are_derived():
    entity = EntityProfile(id="e1", title="T", text="Alpha beta ALPHA")
    assert entity.tokens == ("alpha", "beta", "alpha")
    doc = ResultDocument(id="d1", url="http://x", rank=3, text="Gamma")
    assert doc.tokens == ("gamma",)
    assert doc.rank == 3


def test_empty_text_gives_empty_tokens():
    assert EntityProfile(id="e", title="t", text="").tokens == ()


_WORDS = st.lists(st.sampled_from(["a", "k", "the", "x1", "ü", "i̇"]) | st.text(max_size=3), max_size=5)
_COLLECTIONS = st.sampled_from([set, frozenset, list, lambda words: None])


@settings(max_examples=200, deadline=None)
@given(text=_ASCII_TEXT | _ANY_TEXT, words=_WORDS, collection=_COLLECTIONS, mutate=st.booleans())
@example(text="the cat", words=["the"], collection=set, mutate=True)
def test_tokens_are_the_text_tokenized_with_the_stopwords_given(text, words, collection, mutate):
    """``tokens`` is derived from ``text`` and a frozen copy of the stopwords the caller passed."""
    stopwords = collection(words)
    expected = tuple(tokenize(text, stopwords))
    entity = EntityProfile("e", "t", text, stopwords)
    document = ResultDocument("d", "u", 1, text, stopwords)
    if mutate and stopwords is not None:
        # A later change to the caller's collection does not reach the elements.
        if isinstance(stopwords, list):
            stopwords.extend(tokenize(text))
        elif isinstance(stopwords, set):
            stopwords.update(tokenize(text))
    assert entity.tokens == document.tokens == expected
    assert entity.stopwords == document.stopwords == (frozenset(words) if stopwords is not None and words else None)
    assert repr(entity) == f"EntityProfile(id='e', title='t', text={text!r})"


_STOPWORD_TEXT = "the t hat The body"


@pytest.fixture(scope="module")
def stopword_task(tmp_path_factory) -> Path:
    task = build_task({"e1": _STOPWORD_TEXT}, {"d1": _STOPWORD_TEXT}, name="hat")
    return write_task(task, tmp_path_factory.mktemp("corpus") / "hat")


@settings(max_examples=40, deadline=None)
@given(words=st.lists(st.sampled_from(["the", "t", "h", "hat", "body", "x"]), max_size=4), string=st.text(max_size=4))
@example(words=["the"], string="the")
def test_stopwords_are_a_collection_of_words_at_every_entry_point(stopword_task, words, string):
    """A bare string is refused everywhere; a list, a set and a frozenset of the same words give the same tokens."""

    def tokens(stopwords) -> tuple:
        task = load_task(stopword_task, stopwords=stopwords)
        return (
            tuple(tokenize(_STOPWORD_TEXT, stopwords)),
            EntityProfile("e", "t", _STOPWORD_TEXT, stopwords).tokens,
            ResultDocument("d", "u", 1, _STOPWORD_TEXT, stopwords).tokens,
            task.entities[0].tokens,
            task.documents[0].tokens,
        )

    expected = tuple(t for t in tokenize(_STOPWORD_TEXT) if t not in words)
    assert tokens(list(words)) == tokens(set(words)) == tokens(frozenset(words)) == (expected,) * 5
    assert [r.ok for r in validate_corpus(stopword_task.parent, stopwords=list(words))] == [True]
    entry_points = (
        lambda s: tokenize(_STOPWORD_TEXT, s),
        lambda s: EntityProfile("e", "t", _STOPWORD_TEXT, s),
        lambda s: ResultDocument("d", "u", 1, _STOPWORD_TEXT, s),
        lambda s: load_task(stopword_task, stopwords=s),
        lambda s: validate_corpus(stopword_task.parent, stopwords=s),
    )
    for call in entry_points:
        with pytest.raises(TypeError, match="stopwords"):
            call(string)


def test_a_loaded_task_retains_about_its_text_not_its_tokens(tmp_path, make_task):
    # Two-letter tokens: each is a str object of about 51 bytes plus a
    # pointer, against 3 bytes of text, so stored tokens would be ~20x the text.
    rng = np.random.default_rng(3)
    pairs = [a + b for a in "abcdefghij" for b in "klmnopqrst"]
    documents = {f"d{i}": " ".join(rng.choice(pairs, size=500)) for i in range(40)}
    write_task(make_task({"e1": " ".join(pairs)}, documents), tmp_path / "t")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        task = load_task(tmp_path / "t", stopwords={"ab"})
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    elements = [*task.entities, *task.documents]
    text_bytes = sum(sys.getsizeof(e.text) for e in elements)
    assert sum(len(e.tokens) for e in elements) > 20_000
    assert {id(e.stopwords) for e in elements} == {id(task.documents[0].stopwords)}  # one shared copy
    # The texts, plus a kilobyte per element for its ids, fields and object.
    assert retained < text_bytes + 1024 * len(elements), (retained, text_bytes)


@pytest.mark.parametrize("rank", [0, -1, True, "2", 1.5])
def test_document_rank_must_be_positive_integer(rank):
    with pytest.raises(CorpusIntegrityError):
        ResultDocument(id="d", url="u", rank=rank, text="x")


def test_task_rejects_duplicate_entity_ids():
    with pytest.raises(CorpusIntegrityError):
        Task(
            name="t",
            entities=[
                EntityProfile(id="e1", title="a", text="x"),
                EntityProfile(id="e1", title="b", text="y"),
            ],
            documents=[],
            gold={},
        )


def test_task_rejects_duplicate_document_ids(make_task):
    docs = [
        ResultDocument(id="d1", url="u", rank=1, text="x"),
        ResultDocument(id="d1", url="u", rank=2, text="y"),
    ]
    with pytest.raises(CorpusIntegrityError):
        Task(
            name="t",
            entities=[EntityProfile(id="e1", title="a", text="x")],
            documents=docs,
            gold={"d1": "e1"},
        )


def test_task_rejects_id_shared_between_entity_and_document():
    with pytest.raises(CorpusIntegrityError):
        Task(
            name="t",
            entities=[EntityProfile(id="n1", title="a", text="x")],
            documents=[ResultDocument(id="n1", url="u", rank=1, text="y")],
            gold={"n1": "n1"},
        )


def test_task_rejects_reserved_noise_label_as_entity_id():
    with pytest.raises(CorpusIntegrityError):
        Task(
            name="t",
            entities=[EntityProfile(id=NOISE_LABEL, title="a", text="x")],
            documents=[],
            gold={},
        )


def test_gold_domain_must_match_document_set(make_task):
    with pytest.raises(CorpusIntegrityError):
        build_task({"e1": "x"}, {"d1": "y"}, gold={})  # d1 unlabeled
    with pytest.raises(CorpusIntegrityError):
        build_task({"e1": "x"}, {"d1": "y"}, gold={"d1": "e1", "ghost": "e1"})


def test_gold_labels_must_name_entities_or_noise(make_task):
    with pytest.raises(CorpusIntegrityError):
        build_task({"e1": "x"}, {"d1": "y"}, gold={"d1": "e9"})
    task = build_task({"e1": "x"}, {"d1": "y"}, gold={"d1": NOISE_LABEL})
    assert task.gold["d1"] == NOISE_LABEL


def test_task_with_no_documents_is_valid(make_task):
    task = build_task({"e1": "some text"}, {})
    assert task.document_ids == []
    assert task.entity_ids == ["e1"]


# ---------------------------------------------------------------------------
# on-disk format


def test_write_then_load_round_trips_exactly(tmp_path, make_task):
    task = build_task(
        {"e1": "Jazz guitar.\nSecond line", "e2": ""},
        {"d1": "Some <document> body", "d2": "Üñïçødé tökens 42"},
        gold={"d1": "e1", "d2": NOISE_LABEL},
        name="round trip",
    )
    write_task(task, tmp_path / "rt")
    loaded = load_task(tmp_path / "rt")
    assert loaded.name == task.name
    assert [e.id for e in loaded.entities] == [e.id for e in task.entities]
    assert [e.title for e in loaded.entities] == [e.title for e in task.entities]
    assert [e.text for e in loaded.entities] == [e.text for e in task.entities]
    assert [d.id for d in loaded.documents] == [d.id for d in task.documents]
    assert [d.url for d in loaded.documents] == [d.url for d in task.documents]
    assert [d.rank for d in loaded.documents] == [d.rank for d in task.documents]
    assert [d.text for d in loaded.documents] == [d.text for d in task.documents]
    assert [d.tokens for d in loaded.documents] == [d.tokens for d in task.documents]
    assert loaded.gold == task.gold


def test_round_trip_keeps_carriage_returns(tmp_path, make_task):
    task = make_task({"e1": "x\r\ny"}, {"d1": "a\rb c"}, gold={"d1": "e1"})
    loaded = load_task(write_task(task, tmp_path / "rt"))
    assert loaded.documents[0].text == "a\rb c"
    assert loaded.entities[0].text == "x\r\ny"


@pytest.mark.parametrize("doc_id", ["#d1", "  # d1", "a\tb", "a\nb", "a\rb", "\ufeffd1"])
def test_write_task_refuses_ids_gold_tsv_cannot_carry(tmp_path, make_task, doc_id):
    task = make_task({"e1": "x"}, {doc_id: "a"})
    with pytest.raises(CorpusFormatError, match="gold.tsv"):
        write_task(task, tmp_path / "rt")
    assert not (tmp_path / "rt").exists()


@pytest.mark.parametrize("doc_id", ["a\x85b", "a\u2028b", "a\u2029b", "a\x0cb", "a\x0bb", "a\x1cb", "a\x1eb"])
def test_write_task_carries_ids_holding_breaks_other_than_cr_and_lf(tmp_path, make_task, doc_id):
    """gold.tsv lines end at LF, CR LF or CR only, so an id holding any other break is one row."""
    task = make_task({"e1": "x"}, {"d0": "a", doc_id: "b"}, gold={"d0": "e1", doc_id: "e1"})
    assert load_task(write_task(task, tmp_path / "rt")) == task


def test_task_json_and_gold_tsv_with_a_byte_order_mark_and_crlf_load(tmp_path, make_task):
    task = make_task({"e1": "x"}, {"d1": "a\r\nb", "d2": "c"}, gold={"d1": "e1", "d2": NOISE_LABEL})
    path = write_task(task, tmp_path / "rt")
    for name in ("task.json", "gold.tsv"):
        text = (path / name).read_text(encoding="utf-8")
        (path / name).write_bytes(("\ufeff" + text.replace("\n", "\r\n")).encode("utf-8"))
    assert load_task(path) == task  # bodies keep their bytes: d1 still holds its CR LF


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "{manifest} is not valid JSON (Expecting property name"),
        ('{"name": "\\ud800", "entities": [], "documents": []}', "{manifest} entry 'name' holds an unpaired surrogate escape"),
        ("[1]", "{manifest}: manifest must be a JSON object"),
    ],
)
def test_manifest_json_errors_name_the_file_and_the_entry(tmp_path, text, message):
    d = tmp_path / "t"
    d.mkdir()
    (d / "task.json").write_text(text, encoding="utf-8")
    with pytest.raises(CorpusFormatError) as raised:
        load_task(d)
    assert str(raised.value).startswith(message.format(manifest=d / "task.json"))


def test_load_task_on_a_file_is_a_format_error(tmp_path):
    path = tmp_path / "task.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="no task.json manifest"):
        load_task(path)


def test_write_task_refuses_labels_gold_tsv_cannot_carry(tmp_path, make_task):
    task = make_task({"e\t1": "x"}, {"d1": "a"}, gold={"d1": "e\t1"})
    with pytest.raises(CorpusFormatError, match="gold.tsv"):
        write_task(task, tmp_path / "rt")


def test_write_task_refuses_an_empty_name(tmp_path, make_task):
    with pytest.raises(CorpusFormatError, match="name"):
        write_task(make_task({}, {}, name=""), tmp_path / "rt")


def test_write_task_refuses_text_utf8_cannot_encode(tmp_path, make_task):
    task = make_task({"e1": "x"}, {"d1": "lone \ud800 surrogate"})
    with pytest.raises(CorpusFormatError, match="UTF-8"):
        write_task(task, tmp_path / "rt")
    assert not (tmp_path / "rt").exists()


# Arbitrary Unicode, lone surrogates included.
_ANY_TEXT = st.text(st.characters(exclude_categories=()))


@settings(max_examples=80, deadline=None)
@given(
    name=_ANY_TEXT,
    ids=st.lists(_ANY_TEXT, min_size=1, max_size=6, unique=True),
    n_entities=st.integers(0, 3),
    texts=st.lists(_ANY_TEXT, min_size=12, max_size=12),
    labels=st.lists(st.integers(0, 3), min_size=6, max_size=6),
)
def test_write_load_round_trips_arbitrary_unicode(name, ids, n_entities, texts, labels):
    """A task the writer accepts reads back exactly; one it refuses raises a format error."""
    assume(NOISE_LABEL not in ids)
    entity_ids, doc_ids = ids[:n_entities], ids[n_entities:]
    entities = [EntityProfile(id=eid, title=texts[i], text=texts[i + 6]) for i, eid in enumerate(entity_ids)]
    documents = [
        ResultDocument(id=did, url=texts[i], rank=i + 1, text=texts[i + 6]) for i, did in enumerate(doc_ids)
    ]
    options = entity_ids + [NOISE_LABEL]
    gold = {did: options[labels[i] % len(options)] for i, did in enumerate(doc_ids)}
    task = Task(name=name, entities=entities, documents=documents, gold=gold)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            path = write_task(task, Path(tmp) / "rt")
        except CorpusFormatError:
            return
        assert load_task(path) == task


def test_load_task_missing_manifest(tmp_path):
    (tmp_path / "t").mkdir()
    with pytest.raises(CorpusFormatError):
        load_task(tmp_path / "t")


def test_load_task_invalid_manifest_json(tmp_path):
    d = tmp_path / "t"
    d.mkdir()
    (d / "task.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_task(d)


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,  # deeper than the decoder's recursion limit
        '{"name": "x", "n": ' + "1" * 5_000 + "}",  # longer than int() converts
        '{"name": "\\ud800", "entities": [], "documents": []}',  # an unpaired surrogate
    ],
)
def test_load_task_rejects_manifests_python_cannot_carry(tmp_path, text):
    d = tmp_path / "t"
    d.mkdir()
    (d / "task.json").write_text(text, encoding="utf-8")
    (d / "gold.tsv").write_text("", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="task.json"):
        load_task(d)


def _write_minimal(d, gold="d1\te1\n"):
    d.mkdir(parents=True, exist_ok=True)
    manifest = {
        "name": "minimal",
        "entities": [{"id": "e1", "title": "E One", "file": "e1.txt"}],
        "documents": [{"id": "d1", "url": "http://x", "rank": 1, "file": "d1.txt"}],
    }
    (d / "task.json").write_text(json.dumps(manifest), encoding="utf-8")
    (d / "e1.txt").write_text("entity body words", encoding="utf-8")
    (d / "d1.txt").write_text("document body words", encoding="utf-8")
    if gold is not None:
        (d / "gold.tsv").write_text(gold, encoding="utf-8")


def test_load_task_minimal_layout(tmp_path):
    _write_minimal(tmp_path / "t")
    task = load_task(tmp_path / "t")
    assert task.name == "minimal"
    assert task.entity_ids == ["e1"]
    assert task.document_ids == ["d1"]


def test_load_task_missing_gold_file(tmp_path):
    _write_minimal(tmp_path / "t", gold=None)
    with pytest.raises(CorpusFormatError, match="gold"):
        load_task(tmp_path / "t")


def test_load_task_unknown_gold_entity(tmp_path):
    _write_minimal(tmp_path / "t", gold="d1\tnobody\n")
    with pytest.raises(CorpusIntegrityError):
        load_task(tmp_path / "t")


def test_load_task_duplicate_gold_row(tmp_path):
    _write_minimal(tmp_path / "t", gold="d1\te1\nd1\te1\n")
    with pytest.raises(CorpusIntegrityError):
        load_task(tmp_path / "t")


def test_load_task_malformed_gold_row(tmp_path):
    _write_minimal(tmp_path / "t", gold="d1 e1\n")
    with pytest.raises(CorpusFormatError):
        load_task(tmp_path / "t")


def test_gold_comments_and_blank_lines_ignored(tmp_path):
    _write_minimal(tmp_path / "t", gold="# header comment\n\nd1\te1\n")
    task = load_task(tmp_path / "t")
    assert task.gold == {"d1": "e1"}


def test_load_task_dangling_file_reference(tmp_path):
    d = tmp_path / "t"
    _write_minimal(d)
    (d / "e1.txt").unlink()
    with pytest.raises(CorpusFormatError, match="e1.txt"):
        load_task(d)


def _write_manifest(d, **changes):
    """Minimal task with some manifest keys replaced."""
    _write_minimal(d)
    manifest = json.loads((d / "task.json").read_text(encoding="utf-8"))
    manifest.update(changes)
    (d / "task.json").write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize(
    ("section", "key", "value", "gold"),
    [
        # Each used to load through str(): as the document "None", the url
        # "None", the title "['x']" and the entity "7".
        ("documents", "id", None, "None\t__NOISE__\n"),
        ("documents", "url", None, "d1\te1\n"),
        ("entities", "title", ["x"], "d1\te1\n"),
        ("entities", "id", 7, "d1\t7\n"),
        ("documents", "file", 3, "d1\te1\n"),
    ],
)
def test_load_task_refuses_non_string_ids_titles_urls_and_files(tmp_path, section, key, value, gold):
    d = tmp_path / "t"
    _write_minimal(d, gold=gold)
    manifest = json.loads((d / "task.json").read_text(encoding="utf-8"))
    manifest[section][0][key] = value
    (d / "task.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CorpusFormatError) as excinfo:
        load_task(d)
    assert str(excinfo.value) == f"task.json {section}[0]: {key} must be a string, got {value!r}"
    [result] = validate_corpus(tmp_path)
    assert not result.ok and result.problems == [str(excinfo.value)]


@pytest.mark.parametrize("name", [5, None, ""])
def test_load_task_refuses_a_name_that_is_not_a_non_empty_string(tmp_path, name):
    _write_manifest(tmp_path / "t", name=name)
    with pytest.raises(CorpusFormatError) as excinfo:
        load_task(tmp_path / "t")
    assert str(excinfo.value) == f"task.json: name must be a non-empty string, got {name!r}"


@pytest.mark.parametrize("rank", ["2", True, 2.0])
def test_validate_fails_a_task_whose_rank_is_not_an_integer(tmp_path, rank, capsys):
    root = write_mini_corpus(tmp_path / "corpus")
    path = root / "baker" / "task.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["documents"][1]["rank"] = rank
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert cli_main(["validate", str(root), "--format", "json"]) == 2
    tasks = json.loads(capsys.readouterr().out)["tasks"]
    assert [(t["ok"], t["problems"]) for t in tasks] == [
        (False, [f"task.json documents[1]: rank must be an integer, got {rank!r}"]),
        (True, []),
    ]


@pytest.mark.parametrize("key", ["entities", "documents"])
@pytest.mark.parametrize("value", [5, "e1.txt", {"id": "e1"}, None])
def test_load_task_rejects_non_list_sections(tmp_path, key, value):
    _write_manifest(tmp_path / "t", **{key: value})
    with pytest.raises(CorpusFormatError, match=f"{key} must be a JSON list"):
        load_task(tmp_path / "t")


@pytest.mark.parametrize("key", ["entities", "documents"])
@pytest.mark.parametrize("entry", ["id title file url rank", 5, ["id"], None])
def test_load_task_rejects_non_object_entries(tmp_path, key, entry):
    # A string entry used to pass the key check as a substring test.
    _write_manifest(tmp_path / "t", **{key: [entry]})
    with pytest.raises(CorpusFormatError, match=rf"{key}\[0\]: must be a JSON object"):
        load_task(tmp_path / "t")


def test_load_task_rejects_absolute_file_path(tmp_path):
    secret = tmp_path / "secret.txt"
    secret.write_text("outside words", encoding="utf-8")
    d = tmp_path / "t"
    _write_manifest(d, entities=[{"id": "e1", "title": "E One", "file": str(secret)}])
    with pytest.raises(CorpusFormatError, match="inside the task directory"):
        load_task(d)


def test_load_task_rejects_file_path_escaping_upwards(tmp_path):
    (tmp_path / "secret.txt").write_text("outside words", encoding="utf-8")
    d = tmp_path / "t"
    _write_manifest(d, documents=[{"id": "d1", "url": "http://x", "rank": 1, "file": "../secret.txt"}])
    with pytest.raises(CorpusFormatError, match="inside the task directory"):
        load_task(d)


def test_load_task_rejects_dotdot_through_a_symlink(tmp_path):
    # Lexically "link/../secret.txt" is "secret.txt", but the OS resolves
    # ".." from the link's target, which lies outside the task directory.
    # A body file or a documents/ directory that links out is refused too.
    (tmp_path / "outside" / "deeper").mkdir(parents=True)
    (tmp_path / "outside" / "secret.txt").write_text("outside words", encoding="utf-8")
    (tmp_path / "outside" / "d1.txt").write_text("outside words", encoding="utf-8")
    links = {
        "link/../secret.txt": ("link", tmp_path / "outside" / "deeper"),
        "linked.txt": ("linked.txt", tmp_path / "outside" / "secret.txt"),
        "documents/d1.txt": ("documents", tmp_path / "outside"),
    }
    for i, (file, (link, target)) in enumerate(links.items()):
        d = tmp_path / f"t{i}"
        _write_manifest(d, documents=[{"id": "d1", "url": "http://x", "rank": 1, "file": file}])
        (d / link).symlink_to(target)
        with pytest.raises(CorpusFormatError, match="inside the task directory"):
            load_task(d)


def test_load_task_accepts_a_symlink_that_stays_inside(tmp_path):
    d = tmp_path / "t"
    _write_manifest(d, documents=[{"id": "d1", "url": "http://x", "rank": 1, "file": "documents/linked.txt"}])
    (d / "documents").mkdir()
    (d / "documents" / "linked.txt").symlink_to(d / "d1.txt")
    assert load_task(d).documents[0].text == "document body words"


def test_load_task_accepts_dotdot_that_stays_inside(tmp_path):
    d = tmp_path / "t"
    _write_manifest(d, documents=[{"id": "d1", "url": "http://x", "rank": 1, "file": "sub/../d1.txt"}])
    (d / "sub").mkdir()
    assert load_task(d).documents[0].text == "document body words"


@pytest.mark.parametrize("file", [5, None, "", "."])
def test_load_task_rejects_unreadable_file_entries(tmp_path, file):
    d = tmp_path / "t"
    _write_manifest(d, entities=[{"id": "e1", "title": "E One", "file": file}])
    with pytest.raises(CorpusFormatError):
        load_task(d)


@pytest.mark.parametrize(("name", "where"), [("d1.txt", "task.json"), ("gold.tsv", "gold.tsv")])
def test_a_fifo_in_a_task_is_refused_without_waiting_for_a_writer(tmp_path, name, where):
    # A blocking open waits for a writer that never comes, so the commands
    # run in subprocesses that the test can time out.
    _write_minimal(tmp_path / "corpus" / "good")
    bad = tmp_path / "corpus" / "bad"
    _write_minimal(bad)
    (bad / name).unlink()
    os.mkfifo(bad / name)
    env = {k: v for k, v in os.environ.items() if not k.startswith("NAMESIFT_")}
    runs = {
        command: subprocess.run(
            [sys.executable, "-m", "namesift.cli", command, str(tmp_path / "corpus")],
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=30,
            env=env,
        )
        for command in ("validate", "grid")
    }
    problem = f"{where}: cannot read {bad / name} (not a regular file)"
    assert runs["validate"].returncode == 2
    assert f"{bad}\t\tfail\t{problem}\n" in runs["validate"].stdout
    assert runs["grid"].returncode == 3
    assert f"warning: skipped {bad}: {problem}" in runs["grid"].stderr


# ---------------------------------------------------------------------------
# body paths: walked relative to the task directory, resolved only for a
# ``..`` or a symlink


def _write_body_task(root: Path, documents: str) -> Path:
    """A task directory whose documents/ is a directory, or a symlink that stays inside or leads out.

    Beside it lie symlinks that stay inside, lead out, dangle or loop, and
    the bodies hold CRLF line endings, a byte that is not UTF-8 and a FIFO.
    """
    outside = root / "outside"
    d = root / documents
    bodies = [outside, d / "store"] + ([d / "documents"] if documents == "plain" else [])
    for base in bodies:
        if not base.exists():
            (base / "sub").mkdir(parents=True)
            (base / "d1.txt").write_text("first\r\nbody\n", encoding="utf-8")
            (base / "sub" / "d2.txt").write_bytes(b"caf\xe9")
            os.mkfifo(base / "fifo")
    _write_minimal(d)
    if documents != "plain":
        (d / "documents").symlink_to("store" if documents == "linked_in" else outside)
    links = {
        "in_file": "store/d1.txt",
        "in_dir": d / "store",
        "out_file": "../outside/d1.txt",
        "out_dir": outside,
        "dangling_in": "store/missing",
        "dangling_out": outside / "missing",
        "loop": "loop",
        "loop_a": "loop_b",
        "loop_b": "loop_a",
        "up": "..",
    }
    for name, target in links.items():
        (d / name).symlink_to(target)
    return d


@pytest.fixture(scope="module")
def body_tasks(tmp_path_factory):
    root = tmp_path_factory.mktemp("bodies")
    return {layout: _write_body_task(root, layout) for layout in ("plain", "linked_in", "linked_out")}


_BODY_PARTS = [
    "documents", "store", "sub", "d1.txt", "d2.txt", "fifo", "e1.txt", "missing", "plain",
    *("in_file", "in_dir", "out_file", "out_dir", "dangling_in", "dangling_out", "loop", "loop_a", "up"),
    ".", "..", "", "d\0",
]


@settings(max_examples=300, deadline=None)
@given(
    layout=st.sampled_from(["plain", "linked_in", "linked_out"]),
    parts=st.lists(st.sampled_from(_BODY_PARTS), min_size=1, max_size=4),
    absolute=st.booleans(),
)
@example(layout="plain", parts=["documents", "d1.txt", ""], absolute=False)
@example(layout="plain", parts=["", "documents", "d1.txt"], absolute=False)
@example(layout="plain", parts=[".", "documents", ".", "d1.txt"], absolute=False)
@example(layout="plain", parts=["documents", "d1.txt"], absolute=True)
@example(layout="plain", parts=[""], absolute=False)
@example(layout="plain", parts=["."], absolute=False)
@example(layout="plain", parts=["documents", "d\0"], absolute=False)
@example(layout="plain", parts=["sub", "d\0"], absolute=False)
@example(layout="plain", parts=["loop", "d\0"], absolute=False)
@example(layout="plain", parts=["up", "plain", "e1.txt"], absolute=False)
@example(layout="plain", parts=["in_dir", "..", "e1.txt"], absolute=False)
@example(layout="plain", parts=["out_dir", "..", "plain", "e1.txt"], absolute=False)
@example(layout="plain", parts=["e1.txt", "d1.txt"], absolute=False)
@example(layout="plain", parts=["loop_a", "d1.txt"], absolute=False)
@example(layout="linked_in", parts=["documents", "sub", "d2.txt"], absolute=False)
@example(layout="linked_out", parts=["documents", "fifo"], absolute=False)
def test_a_body_reads_as_resolving_its_whole_path_says(body_tasks, layout, parts, absolute):
    d = body_tasks[layout]
    file = (f"{d}/" if absolute else "") + "/".join(parts)
    _write_manifest(d, documents=[{"id": "d1", "url": "http://x", "rank": 1, "file": file}])
    expected = oracles.body_ref(d, file)
    try:
        got = load_task(d).documents[0].text
    except CorpusFormatError as exc:
        got = str(exc)
    if expected == "outside":
        assert got == f"task.json documents[0]: file {file!r} is not a path inside the task directory"
    elif isinstance(expected, str):
        assert got == expected
    elif isinstance(expected, FileNotFoundError):
        assert got == f"task.json: referenced file {d / file} does not exist"
    elif isinstance(expected, UnicodeDecodeError):
        assert got == f"task.json: {d / file} is not valid UTF-8 ({expected})"
    else:
        assert got == f"task.json: cannot read {d / file} ({expected})"


def _write_broken_corpus(root: Path, outside: Path) -> Path:
    """One task per way a body or gold.tsv can fail to load, and two that load, one through a symlink that stays inside."""
    files = {
        "missing": "documents/deeper/nope.txt",
        "missing_directory": "nodir/nope.txt",
        "directory": "documents/sub",
        "fifo": "documents/fifo",
        "not_utf8": "documents/latin1.txt",
        "escaping_link": "documents/link",
        "dangling_link": "documents/link",
        "link_loop": "documents/link",
        "nul": "documents/d\0.txt",
        "empty": "",
        "dot": ".",
        "no_gold": "documents/d1.txt",
        "inside_link": "documents/link",
        "ok": "documents/deeper/d1.txt",
    }
    for name, file in files.items():
        d = root / name
        _write_manifest(d, name=name, documents=[{"id": "d1", "url": "http://x", "rank": 1, "file": file}])
        (d / "documents").mkdir()
        (d / "documents" / "deeper").mkdir(parents=True)
        for body in ("documents/d1.txt", "documents/deeper/d1.txt"):
            (d / body).write_text("document body words", encoding="utf-8")
    (root / "directory" / "documents" / "sub").mkdir()
    os.mkfifo(root / "fifo" / "documents" / "fifo")
    (root / "not_utf8" / "documents" / "latin1.txt").write_bytes(b"caf\xe9")
    (root / "escaping_link" / "documents" / "link").symlink_to(outside)
    (root / "dangling_link" / "documents" / "link").symlink_to("nothing")
    (root / "link_loop" / "documents" / "link").symlink_to("link")
    (root / "no_gold" / "gold.tsv").unlink()
    (root / "inside_link" / "documents" / "link").symlink_to(root / "inside_link" / "e1.txt")
    return root


def _outcomes(root: Path) -> dict[str, object]:
    """Each task's loaded Task, or its error's kind and message with ``root`` written ROOT."""
    outcomes: dict[str, object] = {}
    for path in discover_tasks(root):
        try:
            outcomes[path.name] = load_task(path)
        except (CorpusFormatError, CorpusIntegrityError) as exc:
            outcomes[path.name] = (type(exc).__name__, str(exc).replace(str(root), "ROOT"))
    return outcomes


def test_a_task_loads_the_same_from_any_location(tmp_path):
    outside = tmp_path / "outside.txt"
    outside.write_text("outside words", encoding="utf-8")
    direct = _write_broken_corpus(tmp_path / "real" / "corpus", outside)
    deep = _write_broken_corpus(tmp_path.joinpath(*["deep"] * 32, "corpus"), outside)
    (tmp_path / "link").symlink_to(tmp_path / "real")
    through_link = tmp_path / "link" / "corpus"
    outcomes = _outcomes(direct)
    assert outcomes == _outcomes(deep) == _outcomes(through_link)
    assert [name for name, outcome in outcomes.items() if isinstance(outcome, Task)] == ["inside_link", "ok"]
    assert len(outcomes) == 14


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to list open descriptors")
def test_loading_a_broken_corpus_leaves_no_descriptor_open(tmp_path):
    outside = tmp_path / "outside.txt"
    outside.write_text("outside words", encoding="utf-8")
    root = _write_broken_corpus(tmp_path / "corpus", outside)
    before = sorted(os.listdir("/proc/self/fd"))
    results = validate_corpus(root)
    tasks, skipped = load_tasks(RunSpec(corpus_root=root))
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert sum(not r.ok for r in results) == len(skipped) == 12
    assert [t.name for t in tasks] == ["inside_link", "ok"]


def test_validate_names_each_broken_body_in_full(tmp_path, capsys):
    outside = tmp_path / "outside.txt"
    outside.write_text("outside words", encoding="utf-8")
    root = _write_broken_corpus(tmp_path / "corpus", outside)
    assert cli_main(["validate", str(root)]) == 2
    problems = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        directory, _, status, problem = line.split("\t")
        problems[Path(directory).name] = problem
    is_a_directory = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
    assert problems["missing"] == f"task.json: referenced file {root}/missing/documents/deeper/nope.txt does not exist"
    assert problems["directory"] == (
        f"task.json: cannot read {root}/directory/documents/sub ({is_a_directory}: '{root}/directory/documents/sub')"
    )
    assert problems["fifo"] == f"task.json: cannot read {root}/fifo/documents/fifo (not a regular file)"
    assert problems["not_utf8"] == (
        f"task.json: {root}/not_utf8/documents/latin1.txt is not valid UTF-8"
        " ('utf-8' codec can't decode byte 0xe9 in position 3: unexpected end of data)"
    )
    assert problems["escaping_link"] == (
        "task.json documents[0]: file 'documents/link' is not a path inside the task directory"
    )
    for name in ("empty", "dot"):
        assert problems[name] == f"task.json: cannot read {root}/{name} ({is_a_directory}: '{root}/{name}')"


def test_load_task_strip_markup_flag(tmp_path):
    d = tmp_path / "t"
    _write_minimal(d)
    (d / "d1.txt").write_text("<p>styled &amp; clean</p>", encoding="utf-8")
    plain = load_task(d, strip_markup=True)
    assert list(plain.documents[0].tokens) == ["styled", "clean"]
    raw = load_task(d)
    assert "p" in raw.documents[0].tokens


def test_load_task_stopwords(tmp_path):
    _write_minimal(tmp_path / "t")
    task = load_task(tmp_path / "t", stopwords={"body"})
    assert "body" not in task.documents[0].tokens
    assert "body" not in task.entities[0].tokens


def test_empty_document_list_allowed(tmp_path):
    d = tmp_path / "t"
    d.mkdir()
    manifest = {
        "name": "empty",
        "entities": [{"id": "e1", "title": "E", "file": "e1.txt"}],
        "documents": [],
    }
    (d / "task.json").write_text(json.dumps(manifest), encoding="utf-8")
    (d / "e1.txt").write_text("words", encoding="utf-8")
    (d / "gold.tsv").write_text("", encoding="utf-8")
    task = load_task(d)
    assert task.documents == []


def test_discover_tasks_sorted_and_filtered(tmp_path):
    root = write_mini_corpus(tmp_path / "corpus")
    (root / "not_a_task").mkdir()
    (root / "stray.txt").write_text("x", encoding="utf-8")
    found = discover_tasks(root)
    assert [p.name for p in found] == ["baker", "mason"]


@pytest.mark.parametrize("readable", [False, True])
def test_discover_tasks_reports_a_subdirectory_it_cannot_check(tmp_path, monkeypatch, readable):
    root = write_mini_corpus(tmp_path / "corpus")
    locked = root / "locked"
    locked.mkdir()
    deny_access(monkeypatch, locked, readable=readable)
    assert [p.name for p in discover_tasks(root)] == ["baker", "locked", "mason"]
    with pytest.raises(CorpusFormatError) as raised:
        load_task(locked)
    assert str(locked) in str(raised.value) and "Permission denied" in str(raised.value)


def test_a_corpus_root_that_cannot_be_read_is_a_format_error():
    root = "a" * 300  # longer than any file name may be
    with pytest.raises(CorpusFormatError, match=r"^corpus root a+ cannot be read \(File name too long\)$"):
        discover_tasks(root)
