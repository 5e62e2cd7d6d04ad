"""Exact duplicate removal: a document whose normalized-text digest
(text_digest) or canonical URL (canonical_url) an earlier one has."""

from __future__ import annotations

import hashlib
from typing import Optional
from urllib.parse import urlsplit

from corpusprep.core import Document, normalize_text


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()


def text_digest(text: str) -> bytes:
    """The digest of *text* normalized."""
    return _digest(normalize_text(text))


def canonical_url(url: str) -> str:
    """host+path, lowercased, query and trailing slash stripped.

    The scheme is dropped so http/https variants of one page collide. A URL
    that ``urlsplit`` refuses (an unclosed or invalid ``[`` host) is keyed
    by its stripped, lowercased text.
    """
    url = url.strip().lower()
    try:
        parts = urlsplit(url)
    except ValueError:
        return url
    host = parts.netloc or ""
    path = parts.path or ""
    if not host and path:
        # schemeless input like "a.lv/x"
        host, _, path = path.partition("/")
        path = "/" + path if path else ""
    return host + path.rstrip("/")


def dedup_exact(docs: list[Document], normalized: bool = False) -> list[Optional[str]]:
    """Per document in order: None for the first occurrence of its text
    hash and of its URL key, else the reject reason, ``exact_text`` or
    ``exact_url``. *normalized* says every text is normalized already.

    Input must already be in a deterministic order (the pipeline sorts by
    (source, id) beforehand).
    """
    seen_text: set[bytes] = set()
    seen_url: set[str] = set()
    verdicts: list[Optional[str]] = []
    for doc in docs:
        text_hash = _digest(doc.text) if normalized else text_digest(doc.text)
        url_key = canonical_url(doc.url) if doc.url else None
        if text_hash in seen_text:
            verdicts.append("exact_text")
        elif url_key is not None and url_key in seen_url:
            verdicts.append("exact_url")
        else:
            seen_text.add(text_hash)
            if url_key is not None:
                seen_url.add(url_key)
            verdicts.append(None)
    return verdicts
