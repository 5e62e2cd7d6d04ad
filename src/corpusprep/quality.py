"""Heuristic boilerplate stripping and low-quality document filtering.

strip_boilerplate works on a text, so the filter stage makes one document
per input from its normalized, stripped text, whose words it counts by
their separators (core.separated_word_count), as such a text has one space
or newline between words and no other whitespace. heuristic_verdicts
applies the length rule first; the character ratios of the documents that
pass it are counted by char_ratios, one array pass per core.chunks list,
each character classified by a lookup in a table of the code points below
U+0800, and handed to apply_heuristics document by document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Iterable, Iterator, Optional

import numpy as np

from corpusprep.core import Document, chunks

LATVIAN_DIACRITICS = set("āčēģīķļņšūž")

BOILERPLATE_MAX_LINE_LEN = 80

# character classes of char_ratios, in the order of its counts
WHITESPACE, OTHER, ALPHA, LATVIAN, DIGIT = range(5)
N_CLASSES = 5
# char_ratios counts texts in core.chunks of this many characters, one
# array pass each
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


# _char_class of each code point below the table's length (U+0000-U+07FF:
# Latin, Greek, Cyrillic and more), so that most characters are classified
# by one array lookup
_CLASS_TABLE = np.fromiter(map(_char_class, map(chr, range(1 << 11))), np.uint8, 1 << 11)


def _class_counts(texts: list[str]) -> list[list[int]]:
    """Per text, its number of characters of each class, indexed by class.

    A character's class is looked up in _CLASS_TABLE, or, above it, found
    once per distinct code point of the texts; each character then counts
    at (text index * N_CLASSES + class) in one ``np.bincount``."""
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"),
                          np.uint32).astype(np.intp)
    above = codes >= len(_CLASS_TABLE)
    classes = _CLASS_TABLE[np.minimum(codes, len(_CLASS_TABLE) - 1)]
    if above.any():
        distinct, inverse = np.unique(codes[above], return_inverse=True)
        classes[above] = np.fromiter(map(_char_class, map(chr, distinct.tolist())),
                                     np.uint8, len(distinct))[inverse]
    text_of = np.repeat(np.arange(len(texts), dtype=np.intp), [len(t) for t in texts])
    counts = np.bincount(text_of * N_CLASSES + classes, minlength=len(texts) * N_CLASSES)
    return counts.reshape(len(texts), N_CLASSES).tolist()


def char_ratios(texts: Iterable[str]) -> list[tuple[float, float, float]]:
    """(alpha_ratio, digit_ratio, latvian_ratio) of each text, in order.

    alpha and digit ratios are over non-whitespace characters; the Latvian
    diacritic ratio is over alphabetic characters. Texts are counted in
    ``core.chunks`` of RATIO_CHUNK characters, one _class_counts call each.
    """
    out = []
    for chunk in chunks(texts, len, RATIO_CHUNK):
        for _, other, alpha_only, latvian, digit in _class_counts(chunk):
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


def heuristic_verdicts(docs: Iterable[Document], cfg: HeuristicConfig) -> Iterator[Optional[str]]:
    """apply_heuristics' verdict of each document, in order, read from *docs*
    one ``core.chunks`` list of RATIO_CHUNK characters at a time. The length
    rule comes first, so character ratios are counted only for the
    documents within min_words..max_words."""
    for chunk in chunks(docs, lambda doc: len(doc.text), RATIO_CHUNK):
        sized = [cfg.min_words <= doc.word_count <= cfg.max_words for doc in chunk]
        ratios = iter(char_ratios(doc.text for doc, ok in zip(chunk, sized) if ok))
        for doc, ok in zip(chunk, sized):
            yield apply_heuristics(doc, cfg, next(ratios) if ok else None)
