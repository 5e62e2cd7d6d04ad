"""Heuristic boilerplate stripping and low-quality document filtering."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Annotated, Optional

from corpusprep.core import Document

LATVIAN_DIACRITICS = set("āčēģīķļņšūž")

BOILERPLATE_MAX_LINE_LEN = 80


@dataclass
class HeuristicConfig:
    min_words: int = 20
    max_words: int = 1_000_000
    min_alpha_ratio: Annotated[float, "[0, 1]"] = 0.6
    max_digit_ratio: Annotated[float, "[0, 1]"] = 0.3
    min_latvian_char_ratio: Annotated[float, "[0, 1]"] = 0.005
    max_repeated_line_ratio: Annotated[float, "[0, 1]"] = 0.3


def strip_boilerplate(doc: Document) -> Document:
    """Drop repeated short lines (navigation/footer text) beyond their first
    occurrence; lines longer than 80 characters are never dropped."""
    seen = set()
    kept = []
    for line in doc.text.split("\n"):
        if len(line) <= BOILERPLATE_MAX_LINE_LEN:
            if line in seen:
                continue
            seen.add(line)
        kept.append(line)
    text = "\n".join(kept)
    return doc.with_text(text) if text != doc.text else doc


def _char_ratios(text: str) -> tuple[float, float, float]:
    """(alpha_ratio, digit_ratio, latvian_ratio) over the document text.

    alpha and digit ratios are over non-whitespace characters; the Latvian
    diacritic ratio is over alphabetic characters.
    """
    non_ws = alpha = digit = latvian = 0
    # classify each distinct character once, weighted by its count
    for ch, n in Counter(text).items():
        if ch.isspace():
            continue
        non_ws += n
        if ch.isalpha():
            alpha += n
            if ch.lower() in LATVIAN_DIACRITICS:
                latvian += n
        elif ch.isdigit():
            digit += n
    if non_ws == 0:
        return 0.0, 0.0, 0.0
    latvian_ratio = latvian / alpha if alpha else 0.0
    return alpha / non_ws, digit / non_ws, latvian_ratio


def _repeated_line_ratio(text: str) -> float:
    lines = text.split("\n")
    if not lines:
        return 0.0
    seen = set()
    repeats = 0
    for line in lines:
        if line in seen:
            repeats += 1
        else:
            seen.add(line)
    return repeats / len(lines)


def apply_heuristics(doc: Document, cfg: HeuristicConfig) -> Optional[str]:
    """Return None to keep, or the reason code of the first violated rule.

    Rules run in a fixed order (length, alpha ratio, digit ratio, Latvian
    character ratio, repeated-line ratio) so rejection stats stay
    interpretable.
    """
    n = doc.word_count
    if n < cfg.min_words:
        return "too_short"
    if n > cfg.max_words:
        return "too_long"
    alpha_ratio, digit_ratio, latvian_ratio = _char_ratios(doc.text)
    if alpha_ratio < cfg.min_alpha_ratio:
        return "alpha_ratio"
    if digit_ratio > cfg.max_digit_ratio:
        return "digit_ratio"
    if latvian_ratio < cfg.min_latvian_char_ratio:
        return "latvian_ratio"
    if _repeated_line_ratio(doc.text) > cfg.max_repeated_line_ratio:
        return "repeated_lines"
    return None
