"""Canonical document model, text normalization, and streaming JSONL I/O.

The JSONL interchange schema is exactly
``{"id": str, "source": str, "url": str|null, "text": str, "meta": {str: str}}``
with that key order and alphabetically sorted meta keys, so that
write(read(f)) is byte-identical for canonical files. On read, a line must
be a JSON object with string ``id`` and ``text``; ``source`` may be absent
(read as "") and ``url`` absent or null; ``meta`` may be absent, and is
otherwise an object whose values are strings, with ``meta["token_count"]``,
when present, matching ``[0-9]+``; any other line is skipped. An ``id``
read before in the file is refused, so no stage checks ids again. A
document's subword token count, when known, rides in ``meta["token_count"]``
on disk and is lifted into ``Document.token_count`` on read.

A run tokenizes each document once: ``subword.token_ids`` keeps the ids on
``Document.token_ids`` as ``(vocab, uint16 array)``, in memory only. They
are never serialized and ``with_text`` does not copy them, so a document
read from JSONL is tokenized again when its ids are first needed. Its text
is split once: reading splits nothing, and the tokenizer's split
(``Document.split_words``) fills ``Document.word_count``, which is
otherwise counted when first read.

A run encodes a document's JSON line only when the document changed
(``to_json_line``, built with ``json``'s C string encoder; meta keys and
values must be strings). ``write_jsonl`` keeps on ``Document.line_at`` where
the line went (file, offset and length) and what it was encoded from: the
``id``, ``source``, ``url`` and ``text`` objects, a copy of ``meta`` and the
``token_count``. Given that file as *prev*, a later ``write_jsonl`` copies
the line from it, in one byte range with its neighbours, if all six are
those it was written with, and encodes it whole otherwise. ``line_at``
holds no encoded bytes, is never serialized and is not copied by
``with_text``.

Rejected records go to a ``<output>.rejects`` sidecar as
``{"id", "stage", "reason"}`` JSONL lines, which ``StageStats.tally`` returns.

Per-word work (subword ids, shingle word hashes) is memoized in a
``WordMemo``, bounded in words and in the characters of its long words.
"""

from __future__ import annotations

import json
import os
import re
import unicodedata
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

TOKEN_COUNT_META_KEY = "token_count"
_TOKEN_COUNT_RE = re.compile(r"[0-9]+")
# a JSON escape of a UTF-16 surrogate; only a line holding one can decode
# to a string that UTF-8 cannot encode
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


# Canonical JSON: non-ASCII kept, ", " and ": " separators. One encoder
# object, because json.dumps builds a new one per call when given options.
canonical_json = json.JSONEncoder(ensure_ascii=False, separators=(", ", ": ")).encode
# the string encoder canonical_json applies to every key and string value;
# Document lines are built from it directly, TypeError on a non-string
_json_str = json.encoder.encode_basestring
# bytes of *prev* one read of a run copy in write_jsonl holds at most
COPY_CHUNK_BYTES = 1 << 16
# bounds of a WordMemo
MEMO_WORDS = 1 << 16
MEMO_WORD_CHARS = 64
MEMO_LONG_CHARS = 1 << 18


def normalize_text(text: str) -> str:
    """NFC-normalize and collapse whitespace runs; idempotent.

    A maximal whitespace run (``str.isspace``, the characters ``re``'s
    ``\\s`` matches) that holds a ``\\n`` or ``\\r`` becomes one ``\\n``, any
    other run one space, and the ends are stripped. Line structure is
    load-bearing downstream (boilerplate stripping, newline sentence
    splitting). Done as: ``\\r`` to ``\\n``, split on ``\\n``, each line's
    words joined by one space, and the non-empty lines joined by ``\\n``.
    """
    lines = unicodedata.normalize("NFC", text).replace("\r", "\n").split("\n")
    return "\n".join(filter(None, [" ".join(line.split()) for line in lines]))


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs."""
    return len(text.split())


class WordMemo(dict):
    """word -> fn(word), for *fn* of the word alone. A missing word is
    stored while fewer than MEMO_WORDS are and the words stored longer than
    MEMO_WORD_CHARS hold at most MEMO_LONG_CHARS characters in all, so a
    repeated URL is computed once and base64 blobs cannot crowd out words."""

    def __init__(self, fn):
        self.fn = fn
        self.long_chars = 0

    def __missing__(self, word: str):
        value = self.fn(word)
        chars = len(word) if len(word) > MEMO_WORD_CHARS else 0
        if len(self) < MEMO_WORDS and self.long_chars + chars <= MEMO_LONG_CHARS:
            self.long_chars += chars
            self[word] = value
        return value


@dataclass(slots=True)
class Document:
    """One corpus record. ``word_count`` is the number of words of
    ``text``, counted when first read (or filled by ``split_words``) and
    then kept."""

    id: str
    source: str
    text: str
    url: Optional[str] = None
    meta: dict = field(default_factory=dict)
    token_count: Optional[int] = None
    # (vocab, uint16 ids), filled by subword.token_ids; never serialized
    token_ids: Optional[tuple] = field(default=None, repr=False, compare=False)
    # (path, offset, line length, id, source, url, text, meta copy,
    # token_count) of the line write_jsonl last wrote; not serialized
    line_at: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    # word_count once known
    _word_count: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def word_count(self) -> int:
        n = self._word_count
        if n is None:
            n = self._word_count = word_count(self.text)
        return n

    def split_words(self) -> list[str]:
        """``text.split()``, keeping its length as the word count."""
        words = self.text.split()
        self._word_count = len(words)
        return words

    def with_text(self, text: str) -> "Document":
        """Copy with new text; its word count is counted when first read."""
        return Document(
            id=self.id,
            source=self.source,
            text=text,
            url=self.url,
            meta=dict(self.meta),
            token_count=self.token_count,
        )

    def to_json_line(self) -> str:
        """The canonical line, without its newline: meta keys sorted, with
        the token count when known. Meta keys and values must be strings
        (TypeError otherwise), so equal meta dicts are written as equal
        bytes."""
        meta = self.meta
        if self.token_count is not None:
            meta = {**meta, TOKEN_COUNT_META_KEY: str(self.token_count)}
        url = "null" if self.url is None else _json_str(self.url)
        items = ", ".join([f"{_json_str(k)}: {_json_str(meta[k])}" for k in sorted(meta)])
        return (
            f'{{"id": {_json_str(self.id)}, "source": {_json_str(self.source)}, '
            f'"url": {url}, "text": {_json_str(self.text)}, "meta": {{{items}}}}}'
        )

    @classmethod
    def from_record(cls, record) -> "Document":
        """The document of one parsed JSONL value; ValueError unless it is
        an object whose ``id`` and ``text`` are strings, whose ``source``,
        when present, is a string, whose ``url`` is a string or null and
        whose ``meta``, when present, is an object of strings with a
        ``token_count``, if any, of ASCII digits."""
        if not isinstance(record, dict):
            raise ValueError(f"not a JSON object: {type(record).__name__}")
        for key in ("id", "text"):
            if not isinstance(record.get(key), str):
                raise ValueError(f"{key!r} missing or not a string")
        if not isinstance(record.get("source", ""), str):
            raise ValueError("'source' is not a string")
        if not isinstance(record.get("url"), (str, type(None))):
            raise ValueError("'url' is neither a string nor null")
        meta = record.get("meta", {})
        if not isinstance(meta, dict) or not all(
            isinstance(v, str) for v in meta.values()
        ):
            raise ValueError("'meta' is not an object of strings")
        meta = dict(meta)
        token_count = meta.pop(TOKEN_COUNT_META_KEY, None)
        if token_count is not None and not _TOKEN_COUNT_RE.fullmatch(token_count):
            raise ValueError(f"'meta.token_count' {token_count!r} is not [0-9]+")
        return cls(
            id=record["id"],
            source=record.get("source", ""),
            text=record["text"],
            url=record.get("url"),
            meta=meta,
            token_count=int(token_count) if token_count is not None else None,
        )


@dataclass
class SourceStats:
    docs_in: int = 0
    docs_out: int = 0
    words_in: int = 0
    words_out: int = 0
    rejected_docs: int = 0
    rejected_words: int = 0


@dataclass
class StageStats:
    """Per-stage accounting; every input doc is counted exactly once as
    output or reject. Words are counted on the texts a stage passes on, so
    ``filter``'s ``words_in`` counts its normalized, stripped texts, not
    the raw input's. Build one with ``tally``."""

    stage: str
    docs_in: int = 0
    docs_out: int = 0
    words_in: int = 0
    words_out: int = 0
    rejected: dict = field(default_factory=dict)  # reason -> count
    per_source: dict = field(default_factory=dict)  # source -> SourceStats
    extra: dict = field(default_factory=dict)

    @classmethod
    def tally(
        cls,
        stage: str,
        docs: list,
        reasons: Optional[list] = None,
        extra: Optional[dict] = None,
    ) -> tuple[list, "StageStats", list]:
        """The kept documents, the stats of *stage* over *docs* and the
        ``.rejects`` sidecar records ``{"id", "stage", "reason"}``.

        *reasons* holds one verdict per document, in order: None keeps it,
        a string rejects it for that reason, and a ``(reason, detail)`` pair
        rejects it with ``reason:detail`` written in the sidecar only.
        ``reasons=None`` keeps every document; ValueError if the verdicts
        and the documents differ in number."""
        if reasons is None:
            reasons = [None] * len(docs)
        elif len(reasons) != len(docs):
            raise ValueError(f"{len(reasons)} verdicts for {len(docs)} documents")
        stats = cls(stage=stage, extra=dict(extra or {}))
        kept, rejects = [], []
        for doc, reason in zip(docs, reasons):
            s = stats.per_source.get(doc.source)
            if s is None:
                s = stats.per_source[doc.source] = SourceStats()
            s.docs_in += 1
            s.words_in += doc.word_count
            if reason is None:
                s.docs_out += 1
                s.words_out += doc.word_count
                kept.append(doc)
                continue
            if isinstance(reason, str):
                logged = reason
            else:
                reason, detail = reason
                logged = f"{reason}:{detail}"
            stats.rejected[reason] = stats.rejected.get(reason, 0) + 1
            rejects.append({"id": doc.id, "stage": stage, "reason": logged})
            s.rejected_docs += 1
            s.rejected_words += doc.word_count
        per_source = stats.per_source.values()
        stats.docs_in = sum(s.docs_in for s in per_source)
        stats.docs_out = sum(s.docs_out for s in per_source)
        stats.words_in = sum(s.words_in for s in per_source)
        stats.words_out = sum(s.words_out for s in per_source)
        return kept, stats, rejects

    @property
    def rejected_docs(self) -> int:
        return sum(self.rejected.values())

    def check_conservation(self) -> None:
        """Every input doc is an output or a reject, and so is every input
        word of each source; per-source sums match. AssertionError naming
        the stage and the failed totals or sources otherwise, raised under
        ``python -O`` too, since reports read back are checked with it."""
        failed = [
            key for key in ("docs_in", "docs_out", "words_in", "words_out")
            if getattr(self, key) != sum(getattr(s, key) for s in self.per_source.values())
        ]
        if self.docs_in != self.docs_out + self.rejected_docs:
            failed.append("rejected")
        failed += [
            src for src, s in self.per_source.items()
            if s.docs_in != s.docs_out + s.rejected_docs
            or s.words_in != s.words_out + s.rejected_words
        ]
        if failed:
            raise AssertionError((self.stage, *failed))

    def to_dict(self) -> dict:
        # no timings: serialized stats must be byte-stable across reruns
        # of an identical configuration
        return {
            "stage": self.stage,
            "docs_in": self.docs_in,
            "docs_out": self.docs_out,
            "words_in": self.words_in,
            "words_out": self.words_out,
            "rejected": {k: self.rejected[k] for k in sorted(self.rejected)},
            "per_source": {
                src: vars(self.per_source[src]) for src in sorted(self.per_source)
            },
            "extra": {k: self.extra[k] for k in sorted(self.extra)},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StageStats":
        """Inverse of to_dict."""
        return cls(
            stage=d["stage"],
            docs_in=d["docs_in"],
            docs_out=d["docs_out"],
            words_in=d["words_in"],
            words_out=d["words_out"],
            rejected=dict(d["rejected"]),
            per_source={s: SourceStats(**v) for s, v in d["per_source"].items()},
            extra=dict(d["extra"]),
        )


class JsonlReadError(IOError):
    pass


def read_jsonl(path, diagnostics: Optional[list] = None) -> Iterator[Document]:
    """Stream Documents from a JSONL file.

    Malformed or schema-violating lines, and lines with a string field
    holding a lone surrogate escape, are skipped; each skip appends a
    ``{"line", "reason"}`` entry to *diagnostics* when given. Hard I/O /
    encoding failures raise JsonlReadError with path and line number, and
    a document id read before in the file raises it naming the id and path.
    """
    path = Path(path)
    seen = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise JsonlReadError(f"{path}:{lineno}: invalid UTF-8: {e}") from e
            # JSONDecodeError is a ValueError; nesting past the parser's
            # depth limit raises RecursionError
            try:
                record = json.loads(line)
                doc = Document.from_record(record)
                if _SURROGATE_ESCAPE.search(raw):
                    # UnicodeEncodeError (a ValueError) on a lone surrogate,
                    # which no output file could hold
                    for s in (doc.id, doc.source, doc.url or "", doc.text,
                              *doc.meta, *doc.meta.values()):
                        s.encode("utf-8")
            except (RecursionError, TypeError, ValueError) as e:
                if diagnostics is not None:
                    diagnostics.append({"line": lineno, "reason": str(e)})
                continue
            if doc.id in seen:
                raise JsonlReadError(f"duplicate document id {doc.id!r} in {path}")
            seen.add(doc.id)
            yield doc


@contextmanager
def open_replacing(path, mode: str = "w"):
    """Open ``<path>.tmp`` for writing and move it onto *path* when the block
    ends; on an exception remove it and leave *path* untouched. Text mode
    writes UTF-8 with ``\\n`` line ends."""
    tmp = f"{os.fspath(path)}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def write_jsonl(docs: Iterable[Document], path, prev=None) -> int:
    """Write documents in canonical serialization; returns count written.

    A document whose ``line_at`` names *prev*, with the same ``id``,
    ``source``, ``url`` and ``text`` objects, ``meta`` and ``token_count``
    it was written with, has its line copied from *prev*; lines next to
    each other in *prev* are one copy, read COPY_CHUNK_BYTES at a time. Any
    other document is encoded whole; the bytes are the same. OSError if
    *prev* is shorter than a line it should hold. The file is replaced
    atomically, and ``line_at`` is set once it is in place."""
    path = os.fspath(path)
    prev = None if prev is None else os.fspath(prev)
    placed = []
    offset = 0
    # the range of prev to copy before the next line that is encoded
    run_start = run_end = 0
    with open_replacing(path, "wb") as fh, (
        nullcontext() if prev is None else open(prev, "rb")
    ) as src:

        def copy(start: int, end: int) -> None:
            while start < end:
                chunk = os.pread(src.fileno(), min(end - start, COPY_CHUNK_BYTES), start)
                if not chunk:
                    raise OSError(f"{prev}: shorter than when it was written")
                start += fh.write(chunk)

        for doc in docs:
            at = doc.line_at
            if (
                at is not None
                and at[0] == prev
                and at[3] is doc.id
                and at[4] is doc.source
                and at[5] is doc.url
                and at[6] is doc.text
                and at[8] is doc.token_count
                and at[7] == doc.meta
            ):
                start, n_bytes = at[1:3]
                if start != run_end:
                    copy(run_start, run_end)
                    run_start = start
                run_end = start + n_bytes
                at = (path, offset) + at[2:]
            else:
                copy(run_start, run_end)
                run_start = run_end
                n_bytes = fh.write(doc.to_json_line().encode("utf-8")) + fh.write(b"\n")
                at = (path, offset, n_bytes, doc.id, doc.source, doc.url,
                      doc.text, dict(doc.meta), doc.token_count)
            placed.append((doc, at))
            offset += n_bytes
        copy(run_start, run_end)
    for doc, at in placed:
        doc.line_at = at
    return len(placed)


def write_rejects(records: Iterable[dict], path) -> int:
    """Write canonical JSONL records, a ``.rejects`` sidecar's, replacing
    *path* atomically; returns the count."""
    n = 0
    with open_replacing(path) as fh:
        for rec in records:
            fh.write(canonical_json(rec))
            fh.write("\n")
            n += 1
    return n


def write_json(obj, path) -> None:
    """Write *obj* as one JSON document, indented by 2 with sorted keys,
    replacing *path* atomically."""
    with open_replacing(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
