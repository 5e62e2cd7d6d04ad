"""Exact duplicate removal by normalized-text hash and canonical URL."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional
from urllib.parse import urlsplit

from corpusprep.core import Document, StageStats, normalize_text


@dataclass(frozen=True)
class ExactKey:
    text_hash: bytes  # 128-bit digest of normalized text
    url_key: Optional[str]


def text_digest(text: str) -> bytes:
    return hashlib.blake2b(
        normalize_text(text).encode("utf-8"), digest_size=16
    ).digest()


def canonical_url(url: str) -> str:
    """host+path, lowercased, query and trailing slash stripped.

    The scheme is dropped so http/https variants of one page collide.
    """
    parts = urlsplit(url.strip().lower())
    host = parts.netloc or ""
    path = parts.path or ""
    if not host and path:
        # schemeless input like "a.lv/x"
        host, _, path = path.partition("/")
        path = "/" + path if path else ""
    return host + path.rstrip("/")


def exact_key(doc: Document) -> ExactKey:
    url_key = canonical_url(doc.url) if doc.url else None
    return ExactKey(text_hash=text_digest(doc.text), url_key=url_key)


def dedup_exact(docs: Iterable[Document]) -> tuple[list[Document], StageStats]:
    """Keep the first occurrence per text hash, then per URL key.

    Input must already be in a deterministic order (the pipeline sorts by
    (source, id) beforehand); output preserves the order of survivors.
    """
    docs = list(docs)
    return StageStats.tally("dedup_exact", docs, _verdicts(docs))


def _verdicts(docs: list[Document]) -> Iterator[Optional[str]]:
    """Per document in order: the reject reason, or None for a first
    occurrence."""
    seen_text: set[bytes] = set()
    seen_url: set[str] = set()
    for doc in docs:
        key = exact_key(doc)
        if key.text_hash in seen_text:
            yield "exact_text"
        elif key.url_key is not None and key.url_key in seen_url:
            yield "exact_url"
        else:
            seen_text.add(key.text_hash)
            if key.url_key is not None:
                seen_url.add(key.url_key)
            yield None
