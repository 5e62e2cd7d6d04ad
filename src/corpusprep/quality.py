"""Heuristic boilerplate stripping and low-quality document filtering.

strip_boilerplate works on a text, so the filter stage makes one document
per input from its normalized, stripped text. heuristic_verdicts applies
the length rule first; the character ratios of the documents that pass it
are counted in a few array passes (char_ratios) and handed to
apply_heuristics document by document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Iterable, Optional

import numpy as np

from corpusprep.core import Document

LATVIAN_DIACRITICS = set("āčēģīķļņšūž")

BOILERPLATE_MAX_LINE_LEN = 80

# character classes of char_ratios, in the order of its counts
WHITESPACE, OTHER, ALPHA, LATVIAN, DIGIT = range(5)
N_CLASSES = 5
# char_ratios closes a chunk of texts, counted in one pass, at the first
# text boundary at or past this many characters
RATIO_CHUNK = 1 << 16


@dataclass
class HeuristicConfig:
    min_words: int = 20
    max_words: int = 1_000_000
    min_alpha_ratio: Annotated[float, "[0, 1]"] = 0.6
    max_digit_ratio: Annotated[float, "[0, 1]"] = 0.3
    min_latvian_char_ratio: Annotated[float, "[0, 1]"] = 0.005
    max_repeated_line_ratio: Annotated[float, "[0, 1]"] = 0.3


def strip_boilerplate(text: str) -> str:
    """*text* without its repeated short lines (navigation/footer text)
    beyond their first occurrence; lines longer than 80 characters are
    never dropped."""
    seen = set()
    kept = []
    for line in text.split("\n"):
        if len(line) <= BOILERPLATE_MAX_LINE_LEN:
            if line in seen:
                continue
            seen.add(line)
        kept.append(line)
    return "\n".join(kept)


def _char_class(ch: str) -> int:
    if ch.isspace():
        return WHITESPACE
    if ch.isalpha():
        return LATVIAN if ch.lower() in LATVIAN_DIACRITICS else ALPHA
    return DIGIT if ch.isdigit() else OTHER


def _class_counts(texts: list[str]) -> list[list[int]]:
    """Per text, its number of characters of each class, indexed by class.

    Each character becomes the key (text index << 21) | code point, as
    every code point is below 2**21; one sort counts each distinct key, and
    each distinct code point of the texts is classified once."""
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), np.uint32)
    text_of = np.repeat(np.arange(len(texts), dtype=np.uint64), [len(t) for t in texts])
    keys, runs = np.unique((text_of << 21) | codes, return_counts=True)
    distinct, inverse = np.unique(keys & 0x1FFFFF, return_inverse=True)
    classes = np.fromiter(map(_char_class, map(chr, distinct.tolist())), np.int64,
                          len(distinct))
    counts = np.zeros(len(texts) * N_CLASSES, np.int64)
    np.add.at(counts, (keys >> 21).astype(np.int64) * N_CLASSES + classes[inverse], runs)
    return counts.reshape(len(texts), N_CLASSES).tolist()


def char_ratios(texts: Iterable[str]) -> list[tuple[float, float, float]]:
    """(alpha_ratio, digit_ratio, latvian_ratio) of each text, in order.

    alpha and digit ratios are over non-whitespace characters; the Latvian
    diacritic ratio is over alphabetic characters. Texts are counted in
    chunks, each closed at the first text boundary at or past RATIO_CHUNK
    characters; each distinct character of a chunk is classified once.
    """
    counts: list[list[int]] = []
    chunk: list[str] = []
    size = 0
    for text in texts:
        chunk.append(text)
        size += len(text)
        if size >= RATIO_CHUNK:
            counts += _class_counts(chunk)
            chunk, size = [], 0
    if chunk:
        counts += _class_counts(chunk)
    out = []
    for _, other, alpha_only, latvian, digit in counts:
        non_ws = other + alpha_only + latvian + digit
        alpha = alpha_only + latvian
        if non_ws == 0:
            out.append((0.0, 0.0, 0.0))
        else:
            out.append((alpha / non_ws, digit / non_ws, latvian / alpha if alpha else 0.0))
    return out


def _repeated_line_ratio(text: str) -> float:
    lines = text.split("\n")
    # each line that repeats an earlier one
    return (len(lines) - len(set(lines))) / len(lines)


def apply_heuristics(doc: Document, cfg: HeuristicConfig,
                     ratios: Optional[tuple[float, float, float]]) -> Optional[str]:
    """Return None to keep, or the reason code of the first violated rule;
    *ratios* is char_ratios' triple for doc.text, or None for a document
    outside min_words..max_words, which the length rule rejects first.

    Rules run in a fixed order (length, alpha ratio, digit ratio, Latvian
    character ratio, repeated-line ratio) so rejection stats stay
    interpretable.
    """
    n = doc.word_count
    if n < cfg.min_words:
        return "too_short"
    if n > cfg.max_words:
        return "too_long"
    alpha_ratio, digit_ratio, latvian_ratio = ratios
    if alpha_ratio < cfg.min_alpha_ratio:
        return "alpha_ratio"
    if digit_ratio > cfg.max_digit_ratio:
        return "digit_ratio"
    if latvian_ratio < cfg.min_latvian_char_ratio:
        return "latvian_ratio"
    if _repeated_line_ratio(doc.text) > cfg.max_repeated_line_ratio:
        return "repeated_lines"
    return None


def heuristic_verdicts(docs: list[Document], cfg: HeuristicConfig) -> list[Optional[str]]:
    """apply_heuristics' verdict of each document, in order. The length rule
    comes first, so character ratios are counted only for the documents
    within min_words..max_words."""
    sized = [cfg.min_words <= doc.word_count <= cfg.max_words for doc in docs]
    ratios = iter(char_ratios(doc.text for doc, ok in zip(docs, sized) if ok))
    return [apply_heuristics(doc, cfg, next(ratios) if ok else None)
            for doc, ok in zip(docs, sized)]
