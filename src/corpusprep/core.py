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
``Document.token_ids`` as ``(vocab, uint16 array)``, in memory only, until
``Document.set_normalized_text`` gives it a new text, which drops the ids
and ``Document.token_count``; a document read from JSONL is tokenized
again when its ids are first needed. Its text is split at most once:
reading splits nothing, the filter stage counts its texts' words by their
separators (``set_normalized_text``), and the tokenizer's split
(``Document.split_words``) fills ``Document.word_count``, which is
otherwise counted when first read.

A line is two parts: the *prefix* ``{"id": …, "source": …, "url": …,
"text": "…"`` and the *tail* ``, "meta": {…}}`` with its newline, encoded by
``Document.json_prefix`` and ``Document.json_tail`` with ``json``'s C string
encoder (meta keys and values must be strings). ``Document.line_at`` records
where a document's line lies: the file (its device, inode, size and
``mtime_ns``), the offset, the line and prefix lengths, and what the line
holds: the ``id``, ``source``, ``url`` and ``text`` objects, a copy of
``meta`` and the ``token_count``. ``write_jsonl`` records every line it
writes, and ``read_jsonl`` every line of a regular file it can prove
canonical without encoding the text: the head and tail are those the
encoders give, and the text is one JSON string whose only escapes are
``\\"``, ``\\\\`` and ``\\n``. Corpusprep's own files are spelled so; an
input dumped another way (``\\u`` escapes, no ``meta`` key) is encoded on
its first write. Given that file as *prev*, while ``fstat`` shows it
unchanged (``_file_key`` says which rewrites it cannot see), a later
``write_jsonl`` copies a document's prefix from it when the four objects
are those recorded, and its tail when ``meta`` and ``token_count`` are, in
byte ranges merged with their neighbours; it encodes the other parts.
``line_at`` holds no encoded bytes and is never serialized.

``StageStats.tally`` reads a stage's documents and verdicts in one pass
and yields each document with its ``{"id", "stage", "reason"}`` record for
the ``<output>.rejects`` sidecar (``write_rejects``), or None when kept.

Per-word work (subword ids, shingle word hashes) is memoized in a
``WordMemo``, bounded in words and in the characters of its long words.
The array layers (``quality.char_ratios``, ``near_dedup.shingles``,
``ngram_lm.perplexities``) make one payload per document and run one array
kernel per list of ``chunks``, which closes a list at the first document
that brings its total size to the layer's constant or past it.
"""

from __future__ import annotations

import json
import os
import re
import stat
import unicodedata
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional

TOKEN_COUNT_META_KEY = "token_count"
_TOKEN_COUNT_RE = re.compile(r"[0-9]+")
# a JSON escape of a UTF-16 surrogate; only a line holding one can decode
# to a string that UTF-8 cannot encode
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")
# a backslash that does not start a \" or \n escape: another escape, or
# the first of an escaped backslash
_OTHER_ESCAPE = re.compile(rb'\\[^"n]')


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


def separated_word_count(text: str) -> int:
    """``word_count`` of a text whose words are separated by exactly one
    space or newline, with no other whitespace: normalize_text's output,
    or some of its lines joined by newlines (``strip_boilerplate``'s). It
    counts the separators instead of splitting the text."""
    return text.count(" ") + text.count("\n") + 1 if text else 0


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


def chunks(items: Iterable, size, limit: int) -> Iterator[list]:
    """Consecutive lists of *items*, in order: each list is closed at the
    first item that brings its total ``size(item)`` to *limit* or past it,
    and the items after the last such item make one more list (none if
    there are none). So a list's total stays below *limit* plus its largest
    item, and an array kernel run per list needs no corpus-sized temporary."""
    chunk, total = [], 0
    for item in items:
        chunk.append(item)
        total += size(item)
        if total >= limit:
            yield chunk
            chunk, total = [], 0
    if chunk:
        yield chunk


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
    # (file key, offset, line length, prefix length, id, source, url, text,
    # meta copy, token_count) of the line last read or written; not serialized
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

    def set_normalized_text(self, text: str) -> None:
        """Set *text*, in normalize_text's format, with its word count by
        ``separated_word_count``. An equal text keeps the text object, whose
        line can be copied; a new one drops the ids and token count kept
        for the old."""
        if text != self.text:
            self.text = text
            self.token_ids = self.token_count = None
        self._word_count = separated_word_count(text)

    def json_head(self) -> str:
        """The line up to its text literal: ``{"id": …, "source": …, "url":
        …, "text": ``."""
        url = "null" if self.url is None else _json_str(self.url)
        return (f'{{"id": {_json_str(self.id)}, "source": {_json_str(self.source)}, '
                f'"url": {url}, "text": ')

    def json_prefix(self) -> str:
        """The line up to the end of its text literal."""
        return self.json_head() + _json_str(self.text)

    def json_tail(self) -> str:
        """The line after its text literal, newline included: meta keys
        sorted, with the token count when known. Meta keys and values must
        be strings (TypeError otherwise), so equal meta dicts are written as
        equal bytes."""
        meta = self.meta
        if self.token_count is not None:
            meta = {**meta, TOKEN_COUNT_META_KEY: str(self.token_count)}
        items = ", ".join([f"{_json_str(k)}: {_json_str(meta[k])}" for k in sorted(meta)])
        return f', "meta": {{{items}}}}}\n'

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
    the raw input's. Counted by ``tally`` in the pass that hands each
    document on, building no list of kept documents or reject records."""

    stage: str
    docs_in: int = 0
    docs_out: int = 0
    words_in: int = 0
    words_out: int = 0
    rejected: dict = field(default_factory=dict)  # reason -> count
    per_source: dict = field(default_factory=dict)  # source -> SourceStats
    extra: dict = field(default_factory=dict)

    def tally(self, docs: list, verdicts: Optional[Iterable] = None) -> Iterator[tuple]:
        """Count each document of *docs* with its verdict, read together in
        one pass, and yield it with its ``.rejects`` record ``{"id",
        "stage", "reason"}``, or None when it is kept.

        *verdicts*, one per document in order, is read once, each verdict
        before its document's words are counted: None keeps it, a string
        rejects it for that reason, and a ``(reason, detail)`` pair rejects
        it with ``reason:detail`` written in the sidecar only. No *verdicts*
        keeps every document; ValueError at the end of the pass if the
        verdicts and the documents differ in number."""
        n, read = len(docs), 0
        verdicts = iter(repeat(None, n) if verdicts is None else verdicts)
        for read, (doc, reason) in enumerate(zip(docs, verdicts), 1):
            s = self.per_source.get(doc.source)
            if s is None:
                s = self.per_source[doc.source] = SourceStats()
            words = doc.word_count
            s.docs_in += 1
            s.words_in += words
            self.docs_in += 1
            self.words_in += words
            if reason is None:
                s.docs_out += 1
                s.words_out += words
                self.docs_out += 1
                self.words_out += words
                yield doc, None
                continue
            if isinstance(reason, str):
                logged = reason
            else:
                reason, detail = reason
                logged = f"{reason}:{detail}"
            self.rejected[reason] = self.rejected.get(reason, 0) + 1
            s.rejected_docs += 1
            s.rejected_words += words
            yield doc, {"id": doc.id, "stage": self.stage, "reason": logged}
        read += sum(1 for _ in verdicts)
        if read != n:
            raise ValueError(f"{read} verdicts for {n} documents")

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


def _file_key(fh) -> Optional[tuple]:
    """What ``line_at`` names an open file by: its device, inode, size and
    ``mtime_ns``, so a file replaced, or rewritten to another size or in a
    later timestamp tick, does not match. A rewrite at the same size within
    one tick of the file system's clock (milliseconds on ext4, seconds on
    FAT or some NFS mounts) keeps the key. None if the file is not a
    regular file: a pipe or FIFO cannot be read again."""
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _escape_count(raw: bytes, start: int, end: int) -> Optional[int]:
    """The number of escapes in ``raw[start:end]``, a JSON string literal,
    when each is ``\\"``, ``\\\\`` or ``\\n``, else None."""
    if _OTHER_ESCAPE.search(raw, start, end):
        # escaped backslashes, paired from the left as a parser pairs them
        unpaired = raw[start:end].replace(b"\\\\", b"")
        if _OTHER_ESCAPE.search(unpaired):
            return None
        return unpaired.count(b"\\") + (end - start - len(unpaired)) // 2
    return raw.count(b"\\", start, end)


def _canonical_prefix(doc: Document, raw: bytes, line: str) -> Optional[int]:
    """The length of *raw*'s prefix if *raw*, the line *doc* was parsed
    from (*line* decoded), is the line write_jsonl writes for *doc*, else
    None. UnicodeEncodeError (a ValueError) if a field holds a lone
    surrogate, which no output file could hold.

    The head and tail are encoded and compared; the text is not. Between
    them lies the text's value, which JSON allows to be one string literal
    plus whitespace and further keys. If every backslash there starts a
    ``\\"``, ``\\\\`` or ``\\n`` escape, each of its string literals is
    canonical, and it holds the text's literal, 2 characters more than the
    text per escape; anything else in it adds more characters than
    escapes. So it is exactly that literal if its length in characters is
    the text's plus 2 plus its number of escapes."""
    head, tail = doc.json_head(), doc.json_tail()
    head_bytes, tail_bytes = head.encode("utf-8"), tail.encode("utf-8")
    n_prefix = len(raw) - len(tail_bytes)
    if raw.startswith(head_bytes) and raw.endswith(tail_bytes) and len(head_bytes) < n_prefix:
        escapes = _escape_count(raw, len(head_bytes), n_prefix)
        if escapes is not None and (
            len(line) - len(head) - len(tail) == len(doc.text) + 2 + escapes
        ):
            return n_prefix
    if _SURROGATE_ESCAPE.search(raw):
        doc.text.encode("utf-8")
    return None


def read_jsonl(path, diagnostics: Optional[list] = None) -> Iterator[Document]:
    """Stream Documents from a JSONL file.

    Malformed or schema-violating lines, and lines with a string field
    holding a lone surrogate escape, are skipped; each skip appends a
    ``{"line", "reason"}`` entry to *diagnostics* when given. Hard I/O /
    encoding failures raise JsonlReadError with path and line number, and
    a document id read before in the file raises it naming the id and path.
    In a regular file, a document whose line _canonical_prefix shows to be
    the one write_jsonl writes for it has its ``line_at`` set.
    """
    path = Path(path)
    seen = set()
    with open(path, "rb") as fh:
        key = _file_key(fh)
        end = 0
        for lineno, raw in enumerate(fh, start=1):
            offset, end = end, end + len(raw)
            if raw.isspace():
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise JsonlReadError(f"{path}:{lineno}: invalid UTF-8: {e}") from e
            # JSONDecodeError is a ValueError; nesting past the parser's
            # depth limit raises RecursionError
            try:
                doc = Document.from_record(json.loads(line))
                n_prefix = _canonical_prefix(doc, raw, line)
            except (RecursionError, TypeError, ValueError) as e:
                if diagnostics is not None:
                    diagnostics.append({"line": lineno, "reason": str(e)})
                continue
            if doc.id in seen:
                raise JsonlReadError(f"duplicate document id {doc.id!r} in {path}")
            seen.add(doc.id)
            if n_prefix is not None and key is not None:
                doc.line_at = (key, offset, len(raw), n_prefix, doc.id, doc.source,
                               doc.url, doc.text, dict(doc.meta), doc.token_count)
            yield doc


@contextmanager
def open_replacing(path, mode: str = "w"):
    """Open ``<path>.tmp`` for writing and move it onto *path* when the block
    ends; on an exception remove it and leave *path* untouched. Text mode
    writes UTF-8 with ``\\n`` line ends. The file is synced before the
    rename and its directory after it, so that once this returns *path*
    holds the new bytes also after an OS crash or power loss."""
    tmp = f"{os.fspath(path)}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_jsonl(docs: Iterable[Document], path, prev=None) -> int:
    """Write documents in canonical serialization; returns count written.

    For a document whose ``line_at`` names *prev* as ``fstat`` shows it
    now, the prefix is copied from *prev* if its ``id``, ``source``,
    ``url`` and ``text`` are the objects recorded, and the tail if its
    ``meta`` equals the copy recorded and its ``token_count`` is the one
    recorded; ranges next to each other in *prev* are one copy, read
    COPY_CHUNK_BYTES at a time. Every other part is encoded; the bytes are
    those of a fresh encode. A *prev* that is not a regular file is not
    opened. OSError if *prev* is shorter than a range it should hold. The
    file is replaced atomically, and ``line_at`` is set once it is in
    place."""
    placed = []
    offset = 0
    # the range of prev to copy before the next part that is encoded
    run_start = run_end = 0
    with open_replacing(path, "wb") as fh, (
        open(prev, "rb") if prev is not None and os.path.isfile(prev) else nullcontext()
    ) as src:
        prev_key = None if src is None else _file_key(src)

        def flush() -> None:
            nonlocal run_start
            while run_start < run_end:
                chunk = os.pread(src.fileno(), min(run_end - run_start, COPY_CHUNK_BYTES),
                                 run_start)
                if not chunk:
                    raise OSError(f"{prev}: shorter than when it was written")
                run_start += fh.write(chunk)

        def copy(start: int, end: int) -> None:
            nonlocal run_start, run_end
            if start != run_end:
                flush()
                run_start = start
            run_end = end

        def encode(part: str) -> int:
            flush()
            return fh.write(part.encode("utf-8"))

        for doc in docs:
            at = doc.line_at
            in_prev = at is not None and at[0] == prev_key
            if (in_prev and at[4] is doc.id and at[5] is doc.source and at[6] is doc.url
                    and at[7] is doc.text):
                n_prefix = at[3]
                copy(at[1], at[1] + n_prefix)
            else:
                n_prefix = encode(doc.json_prefix())
            if in_prev and at[9] is doc.token_count and at[8] == doc.meta:
                meta = at[8]
                copy(at[1] + at[3], at[1] + at[2])
                n_line = n_prefix + at[2] - at[3]
            else:
                meta = dict(doc.meta)
                n_line = n_prefix + encode(doc.json_tail())
            placed.append((doc, offset, n_line, n_prefix, meta))
            offset += n_line
        flush()
        fh.flush()
        key = _file_key(fh)
    for doc, offset, n_line, n_prefix, meta in placed:
        doc.line_at = (key, offset, n_line, n_prefix, doc.id, doc.source, doc.url,
                       doc.text, meta, doc.token_count)
    return len(placed)


@contextmanager
def write_rejects(path):
    """Give a function that writes one record, a ``.rejects`` sidecar's, as
    a canonical JSONL line to *path*, replaced atomically when the block
    ends (``open_replacing``)."""
    with open_replacing(path) as fh:
        yield lambda record: fh.write(canonical_json(record) + "\n")


def write_json(obj, path) -> None:
    """Write *obj* as one JSON document, indented by 2 with sorted keys,
    replacing *path* atomically."""
    with open_replacing(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
