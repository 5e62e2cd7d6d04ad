import json
import os
import re
import sys
import unicodedata
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from corpusprep import core
from corpusprep.core import (
    Document,
    canonical_json,
    StageStats,
    normalize_text,
    read_jsonl,
    word_count,
    write_jsonl,
    write_rejects,
)
from corpusprep.subword import token_ids


def _normalize_text_reference(text: str) -> str:
    """normalize_text as it was before the whitespace pattern skipped lone
    spaces and newlines: every maximal whitespace run goes through the
    callback."""

    def collapse(m):
        run = m.group(0)
        return "\n" if ("\n" in run or "\r" in run) else " "

    text = unicodedata.normalize("NFC", text)
    return re.sub(r"\s+", collapse, text).strip()


# every str.isspace character, the same 29 that re's \s matches, and \r\n
_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()] + ["\r\n"]

# Arbitrary Unicode chunks, each followed by a run of one to three
# whitespace pieces, so lone and mixed runs of every kind are frequent
_WHITESPACE_TEXT = st.lists(
    st.tuples(
        st.one_of(st.text(min_size=1, max_size=3), st.sampled_from(["a", "ā", "a\u0304"])),
        st.lists(st.sampled_from(_WHITESPACE), min_size=1, max_size=3).map("".join),
    ),
    max_size=12,
).map(lambda parts: "".join(w + ws for w, ws in parts))


class TestNormalizeText:
    def test_whitespace_collapse(self):
        assert normalize_text("a\t b\n") == "a b"

    def test_empty_identity(self):
        assert normalize_text("") == ""

    def test_nfc_recomposition(self):
        decomposed = "ā"  # a + combining macron
        expected = unicodedata.normalize("NFC", decomposed)
        assert normalize_text(decomposed) == expected
        assert expected == "ā"

    def test_preserves_line_structure(self):
        assert normalize_text("one  line\n\n  two \t line\n") == "one line\ntwo line"

    @given(st.one_of(st.text(max_size=200), _WHITESPACE_TEXT))
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    def test_split_and_re_agree_on_whitespace(self):
        # normalize_text splits with str.split; the oracle collapses \s runs
        spaces = {chr(c) for c in range(sys.maxunicode + 1) if re.fullmatch(r"\s", chr(c))}
        assert spaces == set(_WHITESPACE) - {"\r\n"} and len(spaces) == 29

    @given(st.one_of(st.text(max_size=200), _WHITESPACE_TEXT))
    def test_matches_collapse_of_every_run(self, text):
        assert normalize_text(text) == _normalize_text_reference(text)

    @given(st.text(alphabet=st.sampled_from("ab \t"), max_size=100))
    def test_ascii_whitespace_collapse_nonincreasing(self, text):
        assert len(normalize_text(text).encode()) <= len(text.encode())


class TestWordCount:
    def test_three_words(self):
        assert word_count("Rīga ir galvaspilsēta") == 3

    def test_empty(self):
        assert word_count("") == 0

    def test_fixture_file_known_count(self, tmp_path):
        # oracle: counted by hand (2 + 3 + 1 words across lines)
        text = "viens divi\ntrīs četri pieci\nseši"
        assert word_count(text) == 6

    @given(st.lists(st.text(alphabet="ab", min_size=1, max_size=5), max_size=20))
    def test_matches_join_construction(self, words):
        assert word_count(" ".join(words)) == len(words)


class TestChunks:
    @given(sizes=st.lists(st.integers(0, 9), max_size=30), limit=st.integers(1, 20))
    @example(sizes=[], limit=1)
    @example(sizes=[0, 0, 5, 0], limit=5)
    def test_each_chunk_closes_at_the_first_item_reaching_the_limit(self, sizes, limit):
        items = list(enumerate(sizes))  # distinct items of those sizes
        got = list(core.chunks(iter(items), lambda item: item[1], limit))
        assert [item for chunk in got for item in chunk] == items
        assert all(got) and (got != []) == (items != [])
        totals = [sum(size for _, size in chunk) for chunk in got]
        assert all(total >= limit for total in totals[:-1])
        assert all(sum(size for _, size in chunk[:-1]) < limit for chunk in got)
        assert all(total < limit + max(size for _, size in chunk)
                   for chunk, total in zip(got, totals))


class TestLazyWordCount:
    """``Document.word_count`` is counted when first read, or filled by the
    tokenizer's split, and always equals ``len(text.split())``."""

    @given(text=_WHITESPACE_TEXT, other=_WHITESPACE_TEXT)
    def test_equals_split_on_every_path(self, small_vocab, text, other):
        record = {"id": "d", "source": "s", "text": text}
        read = Document.from_record(record)
        assert read.word_count == len(text.split())
        # a new text is counted by its separators, not the old count kept
        read.set_normalized_text(normalize_text(other))
        assert read.word_count == len(read.text.split())
        tokenized = Document.from_record(record)
        token_ids(tokenized, small_vocab)
        with mock.patch("corpusprep.core.word_count", side_effect=AssertionError):
            assert tokenized.word_count == len(text.split())

    def test_a_new_text_drops_its_token_count_and_ids(self, small_vocab):
        doc = Document(id="d", source="s", text="viens divi\nviens")
        doc.token_count = len(token_ids(doc, small_vocab))
        doc.set_normalized_text("viens divi\nviens")
        assert doc.token_count is not None and doc.token_ids is not None
        doc.set_normalized_text("viens divi")
        assert doc.token_count is None and doc.token_ids is None

    @given(text=_WHITESPACE_TEXT)
    def test_equality_does_not_depend_on_counting(self, text):
        counted = Document(id="d", source="s", text=text, meta={"k": "v"})
        fresh = Document(id="d", source="s", text=text, meta={"k": "v"})
        assert counted.word_count == len(text.split())
        assert counted == fresh and fresh == counted
        assert repr(counted) == repr(fresh)
        assert counted != Document(id="d", source="s", text=text + " x", meta={"k": "v"})


class TestJsonl:
    def _docs(self):
        return [
            Document(id="d1", source="web", text="sveika pasaule", url="http://a.lv/x"),
            Document(id="d2", source="news", text="otrs teksts", meta={"k": "v"}),
            Document(id="d3", source="web", text="trešais", token_count=7),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        docs = self._docs()
        assert write_jsonl(docs, path) == 3
        back = list(read_jsonl(path))
        assert [d.id for d in back] == ["d1", "d2", "d3"]
        for a, b in zip(docs, back):
            assert (a.id, a.source, a.url, a.text, a.meta) == (
                b.id, b.source, b.url, b.text, b.meta,
            )
            assert a.token_count == b.token_count
            assert a.word_count == b.word_count

    def test_write_read_write_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(self._docs(), p1)
        write_jsonl(read_jsonl(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_lines_counted_not_dropped_silently(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        lines = [_line(d)[:-1] for d in self._docs()]
        bad = [
            "{not json",
            json.dumps({"source": "x", "text": "no id"}),
            # JSON values that are not objects, though "id" and "text"
            # are substrings or members of them
            json.dumps("an id and text"),
            json.dumps(["id", "text"]),
            # schema types: id and text strings, source a string, url a
            # string or null
            json.dumps({"id": None, "text": None}),
            json.dumps({"id": 7, "text": "seven"}),
            json.dumps({"id": "s", "source": None, "text": "no source"}),
            json.dumps({"id": "u", "text": "bad url", "url": 5}),
            "[" * 100_000,  # nested past the parser's depth limit
            # meta an object of strings, its token_count ASCII digits
            json.dumps({"id": "m1", "text": "t", "meta": [["k", "v"]]}),
            json.dumps({"id": "m2", "text": "t", "meta": {"k": 1}}),
            json.dumps({"id": "m3", "text": "t", "meta": {"token_count": 3.9}}),
            json.dumps({"id": "m4", "text": "t", "meta": {"token_count": "-4"}}),
            # a lone surrogate escape in any string field cannot be written
            json.dumps({"id": "s1", "text": "lone \ud800 high"}),
            json.dumps({"id": "s2\udfff", "text": "t"}),
            json.dumps({"id": "s3", "text": "t", "meta": {"k": "\udc00"}}),
        ]
        lines[1:1] = bad
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        diagnostics = []
        docs = list(read_jsonl(path, diagnostics=diagnostics))
        assert [d.id for d in docs] == ["d1", "d2", "d3"]
        assert [d["line"] for d in diagnostics] == list(range(2, 2 + len(bad)))

    def test_escapes_that_decode_to_encodable_text_are_read(self, tmp_path):
        # a surrogate pair is one character; an escaped backslash is text
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"id": "p", "text": "\\ud83d\\ude00"}\n'
            '{"id": "b", "text": "\\\\ud800"}\n',
            encoding="utf-8",
        )
        diagnostics = []
        docs = list(read_jsonl(path, diagnostics=diagnostics))
        assert [d.text for d in docs] == ["\U0001f600", "\\ud800"]
        assert diagnostics == []

    def test_invalid_utf8_aborts_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"id": "a", "text": "\xff\xfe"}\n')
        with pytest.raises(IOError, match="bad.jsonl:1"):
            list(read_jsonl(path))


# Text that UTF-8 can encode, with quotes, line breaks and non-ASCII
_TEXT = st.text(
    st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from(['"', "\\", "\n", "ā", "ž", "\u2028", "😀"]),
    ),
    max_size=40,
)
# meta keys include "meta" and the bytes that start the meta object
_META = st.dictionaries(
    st.one_of(st.sampled_from(["meta", "ppl", ', "meta": {']), _TEXT),
    _TEXT,
    max_size=3,
)
_DOC = st.builds(
    Document,
    id=_TEXT,
    source=_TEXT,
    text=_TEXT,
    url=st.one_of(st.none(), _TEXT),
    meta=_META,
    token_count=st.one_of(st.none(), st.integers(0, 10**6)),
)


def _line(doc) -> str:
    """The line of a fresh encode, newline included."""
    return doc.json_prefix() + doc.json_tail()


def _key(path) -> tuple:
    """The file key ``line_at`` names *path* by."""
    st = os.stat(path)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


@contextmanager
def _not_encoded():
    """Patch both part encoders to fail: every line must be copied."""
    with mock.patch.object(
        Document, "json_prefix", side_effect=AssertionError("prefix encoded")
    ), mock.patch.object(Document, "json_tail", side_effect=AssertionError("tail encoded")):
        yield


def _spy(method):
    """Patch a Document method to record the documents it is called on."""
    return mock.patch.object(
        Document, method, autospec=True, side_effect=getattr(Document, method)
    )


@contextmanager
def _spy_parts():
    """Record the documents each part encoder is called on: (prefix, tail)."""
    with _spy("json_prefix") as prefix, _spy("json_tail") as tail:
        yield prefix, tail


def _called_on(spy) -> list:
    return [id(c.args[0]) for c in spy.call_args_list]


class TestLineCopy:
    """write_jsonl with *prev* copies each unchanged part of a line from
    *prev*, encodes each changed one, and writes the bytes of a fresh
    encode."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_DOC, max_size=8), st.data())
    def test_copy_writes_the_bytes_of_a_fresh_encode(self, tmp_path, docs, data):
        a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
        write_jsonl(docs, a)
        # a later stage keeps some documents and reorders them
        kept = data.draw(st.permutations(docs))[: data.draw(st.integers(0, len(docs)))]
        with _not_encoded():
            assert write_jsonl(kept, b, prev=a) == len(kept)
        write_jsonl(kept, c)
        assert b.read_bytes() == c.read_bytes()
        assert b.read_bytes() == "".join(_line(d) for d in kept).encode()

    def test_chain_of_copies(self, tmp_path):
        docs = [
            Document(id="d1", source="web", text="ā \"x\"\ny", meta={"meta": "m"}),
            Document(id="d2", source="news", text="otrs", url="http://b.lv"),
        ]
        paths = [tmp_path / f"{i}.jsonl" for i in range(4)]
        write_jsonl(docs, paths[0])
        for i in (1, 2, 3):
            # one document's tail changes, the rest is copied
            changed = docs[i % 2]
            if i % 2:
                changed.meta["ppl"] = f"{i}.5"
            else:
                changed.token_count = i
            with _spy_parts() as (prefix, tail):
                write_jsonl(docs, paths[i], prev=paths[i - 1])
            assert (_called_on(prefix), _called_on(tail)) == ([], [id(changed)])
            assert docs[0].line_at[0] == _key(paths[i])
        write_jsonl(docs, tmp_path / "fresh.jsonl")
        assert paths[3].read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "change, encoded",
        [
            (lambda doc, _: setattr(doc, "id", "d2"), "prefix"),
            (lambda doc, _: setattr(doc, "source", "news"), "prefix"),
            (lambda doc, _: setattr(doc, "url", None), "prefix"),
            (lambda doc, _: setattr(doc, "text", "cits teksts"), "prefix"),
            # equal to the old text, but another object
            (lambda doc, _: setattr(doc, "text", "".join(["sveika ", "pasaule"])), "prefix"),
            # the document was last written to b.jsonl, not to a.jsonl
            (lambda doc, tmp: write_jsonl([doc], tmp / "b.jsonl"), "both"),
            (lambda doc, _: doc.meta.update(ppl="1.5"), "tail"),
            (lambda doc, _: setattr(doc, "token_count", 2), "tail"),
        ],
        ids=["id", "source", "url", "text", "equal_text", "other_file", "meta", "token_count"],
    )
    def test_stale_record_is_encoded_afresh(self, tmp_path, change, encoded):
        a, c = tmp_path / "a.jsonl", tmp_path / "c.jsonl"
        doc = Document(id="d1", source="web", text="sveika pasaule", url="http://a.lv")
        write_jsonl([doc], a)
        change(doc, tmp_path)
        with _spy_parts() as (prefix, tail):
            write_jsonl([doc], c, prev=a)
        assert (prefix.call_count, tail.call_count) == {
            "prefix": (1, 0), "tail": (0, 1), "both": (1, 1)}[encoded]
        assert c.read_bytes() == _line(doc).encode()


class TestEncoding:
    @given(_DOC)
    def test_line_is_the_canonical_json_of_the_record(self, doc):
        meta = dict(doc.meta)
        if doc.token_count is not None:
            meta["token_count"] = str(doc.token_count)
        record = {"id": doc.id, "source": doc.source, "url": doc.url,
                  "text": doc.text, "meta": {k: meta[k] for k in sorted(meta)}}
        assert _line(doc) == canonical_json(record) + "\n"
        assert doc.json_prefix().startswith(doc.json_head())

    @pytest.mark.parametrize(
        "meta", [{"k": 1}, {"k": 1.0}, {"k": True}, {"k": None}, {"k": b"1"}, {1: "1"}]
    )
    def test_meta_of_strings_only(self, tmp_path, meta):
        # a line is copied when its meta is == the meta it was written from;
        # only strings are written, and a string equals only an equal string
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        (key, value), = meta.items()
        with pytest.raises(TypeError):
            write_jsonl([Document(id="d", source="s", text="t", meta=meta)], a)
        doc = Document(id="d", source="s", text="t", meta={str(key): str(value)})
        write_jsonl([doc], a)
        doc.meta = meta
        with pytest.raises(TypeError):
            write_jsonl([doc], b, prev=a)


# what a later stage does to one document it keeps
_EDITS = ["none", "meta_in_place", "meta_reassigned", "token_count", "head"]


def _written_from(doc) -> tuple:
    """What write_jsonl compares a document's prefix by, its id, source,
    url and text objects, and its tail by, its token count object and its
    meta by value."""
    return (doc.id, doc.source, doc.url, doc.text), (doc.token_count, dict(doc.meta))


def _same_prefix(a: tuple, b: tuple) -> bool:
    return all(x is y for x, y in zip(a[0], b[0]))


def _same_tail(a: tuple, b: tuple) -> bool:
    return a[1][0] is b[1][0] and a[1][1] == b[1][1]


class TestWriteChains:
    """Chains of writes, each with the previous file as *prev*, write the
    bytes of a fresh encode, copy every unchanged part of a line and encode
    every changed one once."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_DOC, max_size=8), st.integers(3, 5), st.integers(1, 64), st.data())
    def test_chain(self, tmp_path, docs, n_writes, chunk, data):
        paths = [tmp_path / f"{i}.jsonl" for i in range(n_writes)]
        # a few bytes a chunk, so copies cross chunk edges
        with mock.patch.object(core, "COPY_CHUNK_BYTES", chunk):
            write_jsonl(docs, paths[0])
            for prev, path in zip(paths, paths[1:]):
                # keep, drop and reorder
                docs = data.draw(st.permutations(docs))[: data.draw(st.integers(0, len(docs)))]
                before = {id(doc): _written_from(doc) for doc in docs}
                for doc in docs:
                    edit = data.draw(st.sampled_from(_EDITS))
                    if edit == "meta_in_place":
                        key = data.draw(st.sampled_from(["ppl", "meta", *doc.meta]))
                        if key in doc.meta and data.draw(st.booleans()):
                            del doc.meta[key]
                        else:
                            doc.meta[key] = data.draw(_TEXT)
                    elif edit == "meta_reassigned":
                        doc.meta = data.draw(_META)
                    elif edit == "token_count":
                        doc.token_count = data.draw(st.one_of(st.none(), st.integers(0, 10**6)))
                    elif edit == "head":
                        field = data.draw(st.sampled_from(["id", "source", "url", "text"]))
                        setattr(doc, field, data.draw(_TEXT))
                after = {id(doc): _written_from(doc) for doc in docs}
                changed = [
                    sorted(i for i in before if not same(before[i], after[i]))
                    for same in (_same_prefix, _same_tail)
                ]
                with _spy_parts() as (prefix, tail):
                    assert write_jsonl(docs, path, prev=prev) == len(docs)
                assert [sorted(_called_on(prefix)), sorted(_called_on(tail))] == changed
                assert path.read_bytes() == "".join(_line(d) for d in docs).encode()

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_truncated_prev_raises(self, tmp_path, chunk):
        """A *prev* cut short since its lines were recorded is not the file
        recorded, so every line is encoded; if fstat still showed the file
        recorded, a copy past its end raises instead of writing short."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        docs = [Document(id=f"d{i}", source="s", text="teksts " * i) for i in range(4)]
        write_jsonl(docs, a)
        data, recorded, lines_at = a.read_bytes(), os.stat(a), [d.line_at for d in docs]
        fresh = "".join(_line(d) for d in docs).encode()
        with mock.patch.object(core, "COPY_CHUNK_BYTES", chunk):
            for size in range(0, len(data), 5):
                a.write_bytes(data[:size])
                for doc, at in zip(docs, lines_at):
                    doc.line_at = at
                with mock.patch.object(core.os, "fstat", return_value=recorded):
                    with pytest.raises(OSError, match="shorter than when it was written"):
                        write_jsonl(docs, b, prev=a)
                assert not b.exists()
                with _spy_parts() as (prefix, tail):
                    write_jsonl(docs, b, prev=a)
                assert (prefix.call_count, tail.call_count) == (len(docs), len(docs))
                assert b.read_bytes() == fresh
                b.unlink()


_HEAD = '{"id": "d", "source": "s", "url": null, "text": '


class TestReadRecordsLines:
    """read_jsonl records a line for copying only when it is the line
    write_jsonl writes for its document; a copy from the file read writes
    the bytes of a fresh encode either way."""

    @pytest.mark.parametrize("text", [
        "", "plain", 'quote " and \\ backslash', "line\nbreak", "\\\\\n\"\\",
        "ā ž   😀", "/ slash",
    ])
    def test_canonical_line_is_recorded(self, tmp_path, text):
        a = tmp_path / "a.jsonl"
        doc = Document(id="d", source="s", text=text, meta={"k": "v"}, token_count=4)
        a.write_bytes(_line(doc).encode())
        back, = read_jsonl(a)
        prefix = doc.json_prefix().encode()
        assert back.line_at[:4] == (_key(a), 0, len(_line(doc).encode()), len(prefix))
        with _not_encoded():
            write_jsonl([back], tmp_path / "b.jsonl", prev=a)
        assert (tmp_path / "b.jsonl").read_bytes() == _line(doc).encode()

    @pytest.mark.parametrize("line", [
        # the text key twice, or another key after the text: the value
        # between head and tail is more than one string
        _HEAD + '"abc", "text": "abc", "meta": {}}\n',
        _HEAD + '"x", "text": "abcdef", "meta": {}}\n',
        _HEAD + '"abc", "id": "d", "meta": {}}\n',
        _HEAD + '"a\\"b", "k": "\\n", "meta": {}}\n',
        _HEAD + '"abc" , "meta": {}}\n',
        _HEAD + ' "abc", "meta": {}}\n',
        # escapes a fresh encode does not write
        _HEAD + '"a\\/b", "meta": {}}\n',
        _HEAD + '"\\u0101", "meta": {}}\n',
        _HEAD + '"\\u00E9", "meta": {}}\n',
        _HEAD + '"\\ud83d\\ude00", "meta": {}}\n',
        _HEAD + '"\\u000a", "meta": {}}\n',
        _HEAD + '"\\\\\\u0041", "meta": {}}\n',
        _HEAD + '"\\t", "meta": {}}\n',
        # head and tail spelled otherwise
        '{"id": "d", "source": "s", "url": null, "text": "abc", "meta": {}}\r\n',
        '{"id": "d", "source": "s", "url": null, "text": "abc", "meta": {}}',
        '{"id": "d", "url": null, "text": "abc", "meta": {}}\n',
        '{"source": "s", "id": "d", "url": null, "text": "abc", "meta": {}}\n',
        '{"id": "d", "source": "s", "url": null, "text": "abc", "meta": {"b": "1", "a": "2"}}\n',
        '{"id": "d", "source": "s", "url": null, "text": "abc"}\n',
        '{"id":"d","source":"s","url":null,"text":"abc","meta":{}}\n',
        '{"id": "\\u0064", "source": "s", "url": null, "text": "abc", "meta": {}}\n',
    ])
    def test_other_spellings_are_encoded(self, tmp_path, line):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_bytes(line.encode())
        back, = read_jsonl(a)
        assert back.line_at is None
        write_jsonl([back], b, prev=a)
        assert b.read_bytes() == _line(back).encode()

    @pytest.mark.parametrize("how", ["rename", "rewrite"])
    def test_input_changed_after_the_read_is_not_copied(self, tmp_path, how):
        """An input replaced by rename, or rewritten in place at its size in
        a later tick of the file system's clock, between the read and the
        write is not the file read: every line is encoded afresh."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        docs = [Document(id=f"d{i}", source="s", text=f"teksts {i}") for i in range(3)]
        write_jsonl(docs, a)
        docs = list(read_jsonl(a))
        assert all(d.line_at is not None for d in docs)
        changed = a.read_bytes().replace(b"teksts", b"TEKSTS")
        if how == "rename":
            (tmp_path / "new").write_bytes(changed)
            os.replace(tmp_path / "new", a)
        else:
            st = os.stat(a)
            a.write_bytes(changed)
            # a file timestamp may not move within one clock tick
            os.utime(a, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        write_jsonl(docs, b, prev=a)
        assert b.read_bytes() == "".join(_line(d) for d in docs).encode()
        assert b"TEKSTS" not in b.read_bytes()

    def test_rewrite_within_one_tick_is_not_seen(self, tmp_path):
        """The guard's limit, as core._file_key states it: a rewrite in
        place at the same size that leaves ``mtime_ns`` as it was (as one
        within a clock tick can) is taken for the file read."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl([Document(id="d", source="s", text="teksts")], a)
        docs = list(read_jsonl(a))
        st = os.stat(a)
        a.write_bytes(a.read_bytes().replace(b"teksts", b"TEKSTS"))
        os.utime(a, ns=(st.st_atime_ns, st.st_mtime_ns))
        write_jsonl(docs, b, prev=a)
        assert b"TEKSTS" in b.read_bytes()


class TestAtomicWrites:
    """A write that raises leaves no file and no temporary file behind, and
    an existing file at the path untouched."""

    @pytest.mark.parametrize("existing", [None, b"old bytes\n"])
    def test_failed_document_write_leaves_path_untouched(self, tmp_path, existing):
        path = tmp_path / "out.jsonl"
        if existing is not None:
            path.write_bytes(existing)
        good = Document(id="a", source="web", text="labs")
        bad = Document(id="b", source="web", text="lone \ud800")
        with pytest.raises(UnicodeEncodeError):
            write_jsonl([good, bad], path)
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if existing is None else ["out.jsonl"]
        )
        if existing is not None:
            assert path.read_bytes() == existing
        # no line of a file that was never put in place is recorded
        assert good.line_at is None

    def test_failed_rejects_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.jsonl.rejects"
        records = [{"id": "a", "stage": "s", "reason": "r"}, {"id": object()}]
        with pytest.raises(TypeError), write_rejects(path) as reject:
            for record in records:
                reject(record)
        assert list(tmp_path.iterdir()) == []

    def test_line_at_names_the_final_path(self, tmp_path):
        path = tmp_path / "out.jsonl"
        doc = Document(id="a", source="web", text="labs")
        write_jsonl([doc], path)
        line = b'{"id": "a", "source": "web", "url": null, "text": "labs", "meta": {}}\n'
        assert path.read_bytes() == line
        assert doc.line_at[:4] == (_key(path), 0, len(line), line.index(b', "meta"'))


# A verdict per document: keep, reject for a reason, or reject for a
# reason with a detail for the sidecar
_VERDICT = st.one_of(
    st.none(),
    st.sampled_from(["short", "dup"]),
    st.tuples(st.sampled_from(["short", "near_dup"]), st.sampled_from(["kept=a", "x"])),
)

_DOCS_AND_VERDICTS = st.lists(
    st.tuples(
        st.sampled_from(["web", "news", ""]),
        st.text(alphabet="ab \n", max_size=12),
        _VERDICT,
    ),
    max_size=30,
).map(
    lambda rows: (
        [Document(id=f"d{i}", source=src, text=text)
         for i, (src, text, _) in enumerate(rows)],
        [verdict for _, _, verdict in rows],
    )
)


def _reason(verdict):
    return verdict if isinstance(verdict, str) else verdict[0]


def _logged(verdict):
    return verdict if isinstance(verdict, str) else f"{verdict[0]}:{verdict[1]}"


class TestStageStats:
    @given(_DOCS_AND_VERDICTS)
    def test_conservation(self, docs_and_verdicts):
        docs, verdicts = docs_and_verdicts
        stats = StageStats("t")
        pairs = list(zip(docs, verdicts))
        records = [stats.count(d, v) for d, v in pairs]
        stats.check_conservation()
        kept = [d for d, record in zip(docs, records) if record is None]
        assert kept == [d for d, v in pairs if v is None]
        assert stats.docs_in == len(docs)
        assert stats.words_in == sum(d.word_count for d in docs)
        assert stats.words_out == sum(d.word_count for d in kept)
        assert stats.rejected == Counter(_reason(v) for _, v in pairs if v is not None)
        assert [record for record in records if record is not None] == [
            {"id": d.id, "stage": "t", "reason": _logged(v)} for d, v in pairs if v is not None
        ]
        for src, s in stats.per_source.items():
            mine = [(d, v) for d, v in pairs if d.source == src]
            assert s.docs_in == len(mine)
            assert s.rejected_words == sum(d.word_count for d, v in mine if v is not None)

    def test_conservation_checks_each_source_words(self):
        """Word counts moved between two sources' rejects keep every total
        and every document count; only the per-source word check sees it."""
        docs = [Document(id="a", source="web", text="viens divi trīs"),
                Document(id="b", source="news", text="četri pieci")]
        stats = StageStats("t")
        for doc in docs:
            stats.count(doc, "short")
        stats.check_conservation()
        stats.per_source["web"].rejected_words -= 1
        stats.per_source["news"].rejected_words += 1
        with pytest.raises(AssertionError):
            stats.check_conservation()

    @given(_DOCS_AND_VERDICTS)
    def test_dict_round_trip(self, docs_and_verdicts):
        docs, verdicts = docs_and_verdicts
        stats = StageStats("t", extra={"windows": 3, "cutoff": "1.5"})
        for doc, verdict in zip(docs, verdicts):
            stats.count(doc, verdict)
        assert StageStats.from_dict(stats.to_dict()).to_dict() == stats.to_dict()

    def test_none_keeps_every_document(self):
        docs = [Document(id=str(i), source="s" + str(i % 2), text="a b c") for i in range(5)]
        stats = StageStats("t", extra={"windows": 2})
        assert [stats.count(d, None) for d in docs] == [None] * 5
        assert (stats.docs_out, stats.words_out, stats.rejected) == (5, 15, {})
        assert {s: stats.per_source[s].docs_out for s in stats.per_source} == {"s0": 3, "s1": 2}
        assert stats.extra == {"windows": 2}
