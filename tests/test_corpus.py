"""Tokenization, task validation, and corpus round-trip tests."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
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
    load_corpus,
    load_task,
    strip_html,
    term_frequencies,
    tokenize,
    write_task,
)

from conftest import build_task, write_mini_corpus


# ---------------------------------------------------------------------------
# tokenize / term_frequencies


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


def test_term_frequencies_counts():
    assert term_frequencies(["a", "b", "a"]) == {"a": 2, "b": 1}
    assert term_frequencies([]) == {}
    assert term_frequencies(["x"]) == {"x": 1}


def test_token_count_and_idempotence_properties():
    rng = np.random.default_rng(11)
    pool = list("abcXYZ0129 ..,;'!-_\tü(")
    for _ in range(200):
        text = "".join(rng.choice(pool, size=int(rng.integers(0, 60))))
        tokens = tokenize(text)
        counts = term_frequencies(tokens)
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


@pytest.mark.parametrize("doc_id", ["#d1", "  # d1", "a\tb", "a\nb", "a\rb", "a\x85b", "a\u2028b"])
def test_write_task_refuses_ids_gold_tsv_cannot_carry(tmp_path, make_task, doc_id):
    task = make_task({"e1": "x"}, {doc_id: "a"})
    with pytest.raises(CorpusFormatError, match="gold.tsv"):
        write_task(task, tmp_path / "rt")
    assert not (tmp_path / "rt").exists()


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


def test_load_corpus(tmp_path):
    root = write_mini_corpus(tmp_path / "corpus")
    tasks = load_corpus(root)
    assert [t.name for t in tasks] == ["baker", "mason"]
    assert all(t.gold for t in tasks)
