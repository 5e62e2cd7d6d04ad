"""Interpolated Kneser-Ney n-gram language model and perplexity filtering.

Single-discount interpolated KN: the highest order uses raw counts, every
lower order uses continuation counts (number of distinct predecessors),
and the unigram level interpolates down to a uniform floor over the
vocabulary, so every in-vocabulary word has strictly positive probability
in every context. One discount per order, D = n1 / (n1 + 2*n2) from that
order's counts-of-counts.

The model is compiled once when it is built. Every word gets an integer id
(out-of-vocabulary words share one extra id) and an n-gram becomes one
Python int in base |vocab|+1. Per order o >= 2 one table maps a seen
context to its interpolation weight D * types / total and one maps a seen
o-gram to max(c - D, 0) / total; the unigram level is a list over ids.
Scoring runs bottom-up with no recursion: start from the unigram value and,
for o = 2..order, interpolate while the order-o context is seen. A context
unseen at order o is unseen at every higher order, because each lower table
holds the suffixes of the one above, so the loop stops there. These are the
float operations of the textbook recursion in the same order, so every
probability is bit-identical to it.

Sentences are newline-separated, lowercased, whitespace-tokenized, padded
with order-1 start symbols and closed with an end symbol; words seen fewer
than min_count times train as the unknown token.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from operator import ne
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from corpusprep.core import Document, StageStats

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

DEFAULT_ORDER = 5
DEFAULT_MIN_COUNT = 2

MODEL_FORMAT = "kn-ngram-v1"


def _discount(table: dict) -> float:
    counts = Counter(table.values())
    n1, n2 = counts.get(1, 0), counts.get(2, 0)
    if n1 > 0 and n2 > 0:
        return n1 / (n1 + 2.0 * n2)
    return 0.5  # degenerate counts-of-counts; keep smoothing mass positive


def sentence_tokens(line: str) -> list[str]:
    return line.lower().split()


class KneserNeyModel:
    def __init__(self, order: int, vocab: list[str], top_counts,
                 min_count: int, discounts: Optional[dict] = None):
        """Compile a model from the count of every top-order n-gram.

        top_counts is a dict from word tuples to counts, or an iterable of
        (words, count) pairs; every gram has *order* words of *vocab* and a
        positive int count. ValueError names the first gram that does not.
        """
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.min_count = min_count
        self.vocab = list(vocab)
        self.vocab_index = ids = {w: i for i, w in enumerate(self.vocab)}
        # ids 0..V-1 are the vocab, V is every word outside it; an n-gram
        # is one int in base V+1, its oldest word the leading digit
        oov = len(self.vocab)
        self._oov = oov
        self._base = base = oov + 1
        self._unk = ids.get(UNK, oov)
        self._eos = ids.get(EOS, oov)
        bos = ids.get(BOS, oov)
        self._bos_ctx = sum(bos * base**i for i in range(order - 1))
        self._ctx_mod = base ** (order - 1)

        if isinstance(top_counts, dict):
            top_counts = top_counts.items()
        top: dict = {}
        for words, c in top_counts:
            if len(words) != order:
                raise ValueError(f"gram {' '.join(words)!r} has {len(words)} "
                                 f"words, order is {order}")
            if type(c) is not int or c < 1:
                raise ValueError(f"gram {' '.join(words)!r} has count {c!r}, "
                                 "not a positive int")
            g = 0
            try:
                for w in words:
                    g = g * base + ids[w]
            except KeyError:
                raise ValueError(f"gram {' '.join(words)!r}: word {w!r} is "
                                 "not in the vocab") from None
            top[g] = c
        self._top_counts = top
        self.total_tokens = sum(top.values())

        # counts[o]: o-gram id -> count; raw at the top order, continuation
        # counts below (distinct predecessors at order o+1).
        counts = {order: top}
        for o in range(order - 1, 0, -1):
            counts[o] = Counter(map((base**o).__rmod__, counts[o + 1]))
        if discounts is None:
            discounts = {o: _discount(counts[o]) for o in range(1, order + 1)}
        self.discounts = discounts

        uni = counts[1]
        total = sum(uni.values())
        uniform = 1.0 / self.vocab_size
        if total == 0:
            self._p1 = [uniform] * base
        else:
            d = discounts[1]
            lam = d * len(uni) / total
            self._p1 = [max(uni.get(w, 0) - d, 0.0) / total + lam * uniform
                        for w in range(base)]

        # (lam per seen context, alpha per seen gram, base**(o-1)) for
        # o = 2..order. The context of an o-gram id g is g // base; the
        # order-o context of a full context id is ctx % base**(o-1). The
        # sums run in numpy over the sorted grams, where the grams of one
        # context are adjacent; on ints converted exactly to float64 its
        # d * types / total and max(c - d, 0) / total are the same IEEE
        # operations, in the same order, as Python's.
        self._levels = []
        for o in range(2, order + 1):
            d = discounts[o]
            grams = sorted(counts[o])
            n = len(grams)
            c = np.fromiter(map(counts[o].__getitem__, grams), np.int64, n)
            ctxs = list(map(base.__rfloordiv__, grams))
            starts = np.flatnonzero(
                np.fromiter(map(ne, ctxs, [None] + ctxs[:-1]), bool, n)
            )
            totals = np.add.reduceat(c, starts)
            types = np.diff(starts, append=n)
            lam = dict(zip(map(ctxs.__getitem__, starts.tolist()),
                           (d * types / totals).tolist()))
            alpha = dict(zip(grams, (np.maximum(c - d, 0.0)
                                     / np.repeat(totals, types)).tolist()))
            self._levels.append((lam, alpha, base ** (o - 1)))

    def _decode(self, g: int) -> list[str]:
        words = []
        for _ in range(self.order):
            g, w = divmod(g, self._base)
            words.append(self.vocab[w])
        return words[::-1]

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def _interpolate(self, w: int, ctx: int) -> float:
        """p(word id w | full context id ctx), bottom-up."""
        p = self._p1[w]
        base = self._base
        for lam, alpha, mod in self._levels:
            c = ctx % mod
            weight = lam.get(c)
            if weight is None:
                break
            p = alpha.get(c * base + w, 0.0) + weight * p
        return p

    def prob(self, word: str, context: tuple) -> float:
        """p(word | context); context longer than order-1 is truncated.

        Words outside the vocabulary are not mapped to the unknown token
        here: they share the out-of-vocabulary id, which no table holds. A
        context shorter than order-1 matches no table and gives the
        unigram value.
        """
        ids = self.vocab_index
        w = ids.get(word, self._oov)
        k = self.order - 1
        context = tuple(context)
        if k == 0 or len(context) < k:
            return self._p1[w]
        ctx = 0
        for c in context[-k:]:
            ctx = ctx * self._base + ids.get(c, self._oov)
        return self._interpolate(w, ctx)

    def map_word(self, w: str) -> str:
        return w if w in self.vocab_index else UNK

    def sentence_logprob(self, words: list[str]) -> tuple[float, int]:
        """Natural-log probability of one sentence incl. the end symbol."""
        ids = self.vocab_index
        unk = self._unk
        seq = [ids.get(w, unk) for w in words]
        seq.append(self._eos)
        interpolate = self._interpolate
        base, mod = self._base, self._ctx_mod
        ctx = self._bos_ctx
        lp = 0.0
        for w in seq:
            lp += math.log(interpolate(w, ctx))
            ctx = (ctx * base + w) % mod
        return lp, len(seq)

    def save(self, path) -> None:
        counts = sorted(
            [" ".join(self._decode(g)), c] for g, c in self._top_counts.items()
        )
        payload = {
            "format": MODEL_FORMAT,
            "order": self.order,
            "min_count": self.min_count,
            "vocab": self.vocab,
            "discounts": {str(o): d for o, d in sorted(self.discounts.items())},
            "counts": counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "KneserNeyModel":
        """Read a model file; ValueError with a one-line message if it is
        not a well-formed kn-ngram-v1 model."""
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"{path}: not a {MODEL_FORMAT} model file")
        order = payload.get("order")
        if type(order) is not int or order < 1:
            raise ValueError(f"{path}: order {order!r} is not a positive int")
        vocab = payload.get("vocab")
        for special in (UNK, BOS, EOS):
            if not isinstance(vocab, list) or special not in vocab:
                raise ValueError(f"{path}: vocab lacks {special}")
        raw = payload.get("discounts")
        discounts = {}
        for o in range(1, order + 1):
            d = raw.get(str(o)) if isinstance(raw, dict) else None
            if type(d) is not float or not 0.0 < d < 1.0:
                raise ValueError(f"{path}: discount of order {o} is {d!r}, "
                                 "not a float in (0, 1)")
            discounts[o] = d
        min_count = payload.get("min_count")
        # only the generator holds the gram list, so it is freed as soon as
        # the constructor has read it
        grams = ((str.split(g, " "), c) for g, c in payload.pop("counts", []))
        del payload
        try:
            return cls(order, vocab, grams, min_count, discounts)
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: {e}") from None


def train_kn_sentences(
    sentences: Iterable[str],
    order: int = DEFAULT_ORDER,
    min_count: int = DEFAULT_MIN_COUNT,
) -> KneserNeyModel:
    sents = [sentence_tokens(s) for s in sentences]
    sents = [s for s in sents if s]
    word_freq = Counter(w for s in sents for w in s)
    if not word_freq:
        raise ValueError("training corpus has zero tokens")
    kept = sorted(w for w, c in word_freq.items() if c >= min_count)
    vocab = [UNK, BOS, EOS] + [w for w in kept if w not in (UNK, BOS, EOS)]
    # grams hold the vocab's strings, not the token copies of the corpus,
    # so the tokens are freed before the model is compiled
    canonical = {w: w for w in vocab}

    top_counts: dict = {}
    pad = (BOS,) * (order - 1)
    for s in sents:
        seq = pad + tuple(canonical.get(w, UNK) for w in s) + (EOS,)
        for i in range(len(seq) - order + 1):
            gram = seq[i : i + order]
            top_counts[gram] = top_counts.get(gram, 0) + 1
    del sents, word_freq
    return KneserNeyModel(order, vocab, top_counts, min_count)


def train_kn(
    corpus: Iterable[Document],
    order: int = DEFAULT_ORDER,
    min_count: int = DEFAULT_MIN_COUNT,
) -> KneserNeyModel:
    """Train on newline-separated sentences of a document stream."""
    sentences = (line for doc in corpus for line in doc.text.split("\n"))
    return train_kn_sentences(sentences, order=order, min_count=min_count)


@dataclass
class PerplexityVerdict:
    doc_id: str
    perplexity: float
    log_prob: float
    n_scored_tokens: int
    kept: bool = True
    reason: Optional[str] = None


def perplexity(model: KneserNeyModel, doc: Document) -> PerplexityVerdict:
    lp = 0.0
    n = 0
    for line in doc.text.split("\n"):
        words = sentence_tokens(line)
        if not words:
            continue
        slp, sn = model.sentence_logprob(words)
        lp += slp
        n += sn
    if n == 0:
        return PerplexityVerdict(doc.id, math.inf, 0.0, 0, kept=False, reason="empty")
    return PerplexityVerdict(doc.id, math.exp(-lp / n), lp, n)


@dataclass
class PerplexityPolicy:
    kind: str = "percentile"  # "percentile" or "absolute"
    value: float = 90.0

    def validate(self) -> list[str]:
        errors = []
        if self.kind not in ("percentile", "absolute"):
            errors.append(f"lm.policy.kind: unknown kind {self.kind!r}")
        if self.kind == "percentile" and not 0.0 <= self.value <= 100.0:
            errors.append(f"lm.policy.value: percentile {self.value} outside [0, 100]")
        return errors


def percentile_cutoff(values: list[float], p: float) -> float:
    """Nearest-rank percentile; p=0 gives the minimum, p=100 the maximum."""
    if not values:
        raise ValueError("percentile over an empty set")
    ordered = sorted(values)
    rank = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[rank]


PPL_META_KEY = "perplexity"


def filter_by_perplexity(
    docs: Iterable[Document],
    model: KneserNeyModel,
    policy: PerplexityPolicy,
) -> tuple[list[Document], StageStats]:
    """Drop documents whose perplexity exceeds the policy cutoff.

    Each surviving document carries its score in meta["perplexity"] for the
    downstream quality-ordered sampler.
    """
    stats = StageStats(stage="lm_score")
    docs = list(docs)
    verdicts = [perplexity(model, doc) for doc in docs]
    if policy.kind == "absolute":
        cutoff = policy.value
    else:
        finite = [v.perplexity for v in verdicts if v.n_scored_tokens > 0]
        if not finite:
            raise ValueError("percentile policy on a stream with no scorable docs")
        cutoff = percentile_cutoff(finite, policy.value)
    stats.extra["cutoff"] = repr(cutoff)
    kept = []
    for doc, verdict in zip(docs, verdicts):
        stats.record_in(doc)
        if verdict.n_scored_tokens == 0:
            verdict.kept = False
            verdict.reason = "empty"
        elif verdict.perplexity > cutoff:
            verdict.kept = False
            verdict.reason = "high_ppl"
        if not verdict.kept:
            stats.record_reject(doc, verdict.reason)
            continue
        doc.meta[PPL_META_KEY] = f"{verdict.perplexity:.8e}"
        stats.record_out(doc)
        kept.append(doc)
    return kept, stats.finish()


def load_model(path) -> KneserNeyModel:
    return KneserNeyModel.load(Path(path))
