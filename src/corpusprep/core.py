"""Canonical document model, text normalization, and streaming JSONL I/O.

The JSONL interchange schema is exactly
``{"id": str, "source": str, "url": str|null, "text": str, "meta": {str: str}}``
with that key order and alphabetically sorted meta keys, so that
write(read(f)) is byte-identical for canonical files. On read, a line must
be a JSON object with string ``id`` and ``text``; ``source`` may be absent
(read as "") and ``url`` absent or null; ``meta`` may be absent, and is
otherwise an object whose values are strings, with ``meta["token_count"]``,
when present, matching ``[0-9]+``; any other line is skipped. A document's
subword token count, when known, rides in ``meta["token_count"]`` on disk
and is lifted into ``Document.token_count`` on read.

A run tokenizes each document once: ``subword.token_ids`` keeps the ids on
``Document.token_ids`` as ``(vocab, uint16 array)``, in memory only. They
are never serialized and ``with_text`` does not copy them, so a document
read from JSONL is tokenized again when its ids are first needed.

Rejected records go to a ``<output>.rejects`` sidecar as
``{"id", "stage", "reason"}`` JSONL lines.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional

# Whitespace that changes under collapsing: a run of two or more, or one
# character other than a plain space or newline (those already collapse
# to themselves, so they are not matched and cost no callback).
_WS_RUN = re.compile(r"\s{2,}|[^\S \n]")

TOKEN_COUNT_META_KEY = "token_count"
_TOKEN_COUNT_RE = re.compile(r"[0-9]+")


def _collapse_run(m: re.Match) -> str:
    # A run containing a line break stays a line break; everything else
    # becomes a single space. Line structure is load-bearing downstream
    # (boilerplate stripping, newline sentence splitting).
    run = m.group(0)
    return "\n" if ("\n" in run or "\r" in run) else " "


def normalize_text(text: str) -> str:
    """NFC-normalize and collapse whitespace runs; idempotent."""
    text = unicodedata.normalize("NFC", text)
    return _WS_RUN.sub(_collapse_run, text).strip()


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs."""
    return len(text.split())


@dataclass
class Document:
    """One corpus record; ``word_count`` is always derived from ``text``."""

    id: str
    source: str
    text: str
    url: Optional[str] = None
    meta: dict = field(default_factory=dict)
    token_count: Optional[int] = None
    word_count: int = field(init=False)
    # (vocab, uint16 ids), filled by subword.token_ids; never serialized
    token_ids: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.word_count = word_count(self.text)

    def with_text(self, text: str) -> "Document":
        """Copy with new text and recomputed word count."""
        return Document(
            id=self.id,
            source=self.source,
            text=text,
            url=self.url,
            meta=dict(self.meta),
            token_count=self.token_count,
        )

    def to_json_line(self) -> str:
        meta = {str(k): str(v) for k, v in self.meta.items()}
        if self.token_count is not None:
            meta[TOKEN_COUNT_META_KEY] = str(self.token_count)
        record = {
            "id": self.id,
            "source": self.source,
            "url": self.url,
            "text": self.text,
            "meta": {k: meta[k] for k in sorted(meta)},
        }
        return json.dumps(record, ensure_ascii=False, separators=(", ", ": "))

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
    output or reject (transform stages may shrink word counts in place).
    Build one with ``tally``."""

    stage: str
    docs_in: int = 0
    docs_out: int = 0
    words_in: int = 0
    words_out: int = 0
    rejected: dict = field(default_factory=dict)  # reason -> count
    per_source: dict = field(default_factory=dict)  # source -> SourceStats
    extra: dict = field(default_factory=dict)
    # sidecar records {"id", "stage", "reason"}; kept out of to_dict
    rejects: list = field(default_factory=list, repr=False)

    @classmethod
    def tally(
        cls,
        stage: str,
        docs: list,
        reasons: Optional[Iterable] = None,
        extra: Optional[dict] = None,
    ) -> tuple[list, "StageStats"]:
        """The kept documents and the stats of *stage* over *docs*.

        *reasons* holds one verdict per document, in order: None keeps it,
        a string rejects it for that reason, and a ``(reason, detail)`` pair
        rejects it with ``reason:detail`` written in the sidecar only.
        ``reasons=None`` keeps every document; ValueError if the verdicts
        and the documents differ in number."""
        stats = cls(stage=stage, extra=dict(extra or {}))
        if reasons is None:
            reasons = repeat(None, len(docs))
        kept = []
        for doc, reason in zip(docs, reasons, strict=True):
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
            stats.rejects.append({"id": doc.id, "stage": stage, "reason": logged})
            s.rejected_docs += 1
            s.rejected_words += doc.word_count
        per_source = stats.per_source.values()
        stats.docs_in = sum(s.docs_in for s in per_source)
        stats.docs_out = sum(s.docs_out for s in per_source)
        stats.words_in = sum(s.words_in for s in per_source)
        stats.words_out = sum(s.words_out for s in per_source)
        return kept, stats

    @property
    def rejected_docs(self) -> int:
        return sum(self.rejected.values())

    def check_conservation(self) -> None:
        """Every input doc is an output or a reject, and so is every input
        word of each source; per-source sums match."""
        assert self.docs_in == self.docs_out + self.rejected_docs, self.stage
        assert self.docs_in == sum(s.docs_in for s in self.per_source.values())
        assert self.docs_out == sum(s.docs_out for s in self.per_source.values())
        assert self.words_in == sum(s.words_in for s in self.per_source.values())
        assert self.words_out == sum(s.words_out for s in self.per_source.values())
        for src, s in self.per_source.items():
            assert s.docs_in == s.docs_out + s.rejected_docs, (self.stage, src)
            assert s.words_in == s.words_out + s.rejected_words, (self.stage, src)

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
        """Inverse of to_dict (rejects are not serialized)."""
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

    Malformed or schema-violating lines are skipped; each skip appends a
    ``{"line", "reason"}`` entry to *diagnostics* when given. Hard I/O /
    encoding failures raise JsonlReadError with path and line number.
    """
    path = Path(path)
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
            except (RecursionError, TypeError, ValueError) as e:
                if diagnostics is not None:
                    diagnostics.append({"line": lineno, "reason": str(e)})
                continue
            yield doc


def write_jsonl(docs: Iterable[Document], path) -> int:
    """Write documents in canonical serialization; returns count written."""
    path = Path(path)
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            fh.write(doc.to_json_line())
            fh.write("\n")
            n += 1
    return n


def write_rejects(records: Iterable[dict], path) -> int:
    """Write reject sidecar lines ``{"id", "stage", "reason"}``."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, separators=(", ", ": ")))
            fh.write("\n")
            n += 1
    return n
