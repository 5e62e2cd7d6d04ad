"""Deterministic synthetic corpora for the tests and the scripts.

The generator builds a toy "language" with a fixed Markov transition
structure over a diacritic-bearing word list, so a 5-gram model trained on
its output cleanly separates fluent samples from word-shuffled ones and
the quality heuristics accept it with default thresholds.
"""

from __future__ import annotations

import numpy as np

from corpusprep.core import Document, normalize_text

_SYLLABLES = [
    "ra", "mi", "lo", "tā", "šu", "ne", "pil", "sē", "ta", "vēr",
    "zi", "ko", "lī", "dz", "ga", "ru", "die", "nā", "ce", "ļš",
    "me", "ža", "upe", "kal", "ns", "grā", "ma", "tu", "la", "sī",
]


def word_list(n_words: int = 400, seed: int = 7) -> list[str]:
    rng = np.random.default_rng(seed)
    words = []
    seen = set()
    while len(words) < n_words:
        k = int(rng.integers(2, 5))
        w = "".join(_SYLLABLES[int(i)] for i in rng.integers(0, len(_SYLLABLES), k))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


class SyntheticLanguage:
    """Markov chain over a fixed word list with sparse transitions."""

    def __init__(self, n_words: int = 400, branching: int = 4, seed: int = 7):
        self.words = word_list(n_words, seed)
        rng = np.random.default_rng(seed + 1)
        self.successors = {
            w: [self.words[int(i)] for i in rng.integers(0, n_words, branching)]
            for w in self.words
        }

    def sentence(self, rng: np.random.Generator, length: int) -> str:
        w = self.words[int(rng.integers(0, len(self.words)))]
        out = [w]
        for _ in range(length - 1):
            succ = self.successors[w]
            w = succ[int(rng.integers(0, len(succ)))]
            out.append(w)
        return " ".join(out)

    def document(
        self,
        rng: np.random.Generator,
        n_sentences: int = 5,
        sentence_len: int = 12,
    ) -> str:
        return "\n".join(self.sentence(rng, sentence_len) for _ in range(n_sentences))


def shuffle_words(text: str, rng: np.random.Generator) -> str:
    words = text.split()
    order = rng.permutation(len(words))
    return " ".join(words[int(i)] for i in order)


def edit_words(
    text: str, replace_rate: float, rng: np.random.Generator, lang: SyntheticLanguage
) -> str:
    """Replace a fraction of word positions with random vocabulary words,
    preserving line structure. Used to plant near-duplicates at a target
    shingle overlap."""
    lines = []
    for line in text.split("\n"):
        words = line.split()
        for i in range(len(words)):
            if rng.random() < replace_rate:
                words[i] = lang.words[int(rng.integers(0, len(lang.words)))]
        lines.append(" ".join(words))
    return "\n".join(lines)


def make_near_duplicate_corpus(
    n_docs: int = 500,
    group_sizes: tuple = (2, 3),
    edit_rates: tuple = (0.0, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20),
    doc_words: int = 300,
    seed: int = 11,
) -> tuple[list[Document], list[list[str]]]:
    """Corpus with planted near-duplicate groups spanning a wide range of
    true 5-gram Jaccard similarities. Returns (docs, planted_groups)."""
    lang = SyntheticLanguage()
    rng = np.random.default_rng(seed)
    sentence_len = 15
    n_sentences = max(1, doc_words // sentence_len)
    docs: list[Document] = []
    groups: list[list[str]] = []

    def add(text: str) -> str:
        doc_id = f"nd-{len(docs):06d}"
        docs.append(Document(id=doc_id, source="synthetic", text=normalize_text(text)))
        return doc_id

    i = 0
    while len(docs) < n_docs:
        base = lang.document(rng, n_sentences, sentence_len)
        if i % 2 == 0 and len(docs) + 3 <= n_docs:
            size = group_sizes[i % len(group_sizes)]
            rate = edit_rates[i % len(edit_rates)]
            group = [add(base)]
            for _ in range(size - 1):
                group.append(add(edit_words(base, rate, rng, lang)))
            groups.append(group)
        else:
            add(base)
        i += 1
    return docs, groups


def lognormal_token_docs(
    n_docs: int,
    vocab_size: int,
    special_ids: frozenset,
    mean_len: float = 400.0,
    sigma: float = 1.0,
    seed: int = 3,
) -> list[tuple[str, list[int]]]:
    """(doc_id, token_ids) pairs with log-normal lengths, for packing tests."""
    rng = np.random.default_rng(seed)
    mu = np.log(mean_len) - sigma**2 / 2.0
    candidates = np.array(
        [i for i in range(vocab_size) if i not in special_ids], dtype=np.int64
    )
    out = []
    for i in range(n_docs):
        n = max(1, int(rng.lognormal(mu, sigma)))
        ids = candidates[rng.integers(0, len(candidates), n)]
        out.append((f"ln-{i:06d}", ids.tolist()))
    return out


def make_basic_vocab(
    extra_words: list[str] = (), size: int | None = None
) -> list[str]:
    """Token list for a byte-fallback vocabulary: specials, every single
    byte as initial and continuation piece, whole-word entries, and inert
    filler up to *size*."""
    from corpusprep.subword import SPECIAL_TOKENS, escape_token

    tokens = list(SPECIAL_TOKENS)
    seen = set(tokens)
    for b in range(256):
        for t in (escape_token(bytes([b])), "##" + escape_token(bytes([b]))):
            if t not in seen:
                seen.add(t)
                tokens.append(t)
    for w in extra_words:
        if w not in seen and not w.startswith("##"):
            seen.add(w)
            tokens.append(w)
    if size is not None:
        if len(tokens) > size:
            raise ValueError(f"base vocabulary already exceeds {size}")
        i = 0
        while len(tokens) < size:
            t = f"\\x00filler{i}"
            if t not in seen:
                seen.add(t)
                tokens.append(t)
            i += 1
    return tokens
