"""Interpolated Kneser-Ney n-gram language model and perplexity filtering.

Single-discount interpolated KN: the highest order uses raw counts, every
lower order uses continuation counts (number of distinct predecessors),
and the unigram level interpolates down to a uniform floor over the
vocabulary, so every in-vocabulary word has strictly positive probability
in every context. One discount per order, D = n1 / (n1 + 2*n2) from that
order's counts-of-counts.

Sentences are newline-separated, lowercased, whitespace-tokenized, padded
with order-1 start symbols and closed with an end symbol; words seen fewer
than min_count times train as the unknown token.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from corpusprep.core import Document, StageStats

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

DEFAULT_ORDER = 5
DEFAULT_MIN_COUNT = 2


def _discount(table: dict) -> float:
    counts = Counter(table.values())
    n1, n2 = counts.get(1, 0), counts.get(2, 0)
    if n1 > 0 and n2 > 0:
        return n1 / (n1 + 2.0 * n2)
    return 0.5  # degenerate counts-of-counts; keep smoothing mass positive


def sentence_tokens(line: str) -> list[str]:
    return line.lower().split()


class KneserNeyModel:
    def __init__(self, order: int, vocab: list[str], top_counts: dict,
                 min_count: int, discounts: Optional[dict] = None):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.min_count = min_count
        self.vocab = list(vocab)
        self.vocab_index = {w: i for i, w in enumerate(self.vocab)}
        # tables[o]: o-gram -> count; raw at the top order, continuation
        # counts below (distinct predecessors at order o+1).
        self.tables: dict[int, dict] = {order: dict(top_counts)}
        for o in range(order - 1, 0, -1):
            cont: dict = {}
            for gram in self.tables[o + 1]:
                suffix = gram[1:]
                cont[suffix] = cont.get(suffix, 0) + 1
            self.tables[o] = cont
        self.ctx_total: dict[int, dict] = {}
        self.ctx_types: dict[int, dict] = {}
        for o in range(2, order + 1):
            totals: dict = {}
            types: dict = {}
            for gram, c in self.tables[o].items():
                ctx = gram[:-1]
                totals[ctx] = totals.get(ctx, 0) + c
                types[ctx] = types.get(ctx, 0) + 1
            self.ctx_total[o] = totals
            self.ctx_types[o] = types
        self.level_total = {1: sum(self.tables[1].values())}
        if discounts is None:
            discounts = {o: _discount(self.tables[o]) for o in range(1, order + 1)}
        self.discounts = discounts
        self.total_tokens = sum(top_counts.values())

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def prob(self, word: str, context: tuple) -> float:
        """p(word | context); context longer than order-1 is truncated."""
        if self.order > 1:
            context = tuple(context)[-(self.order - 1):]
        else:
            context = ()
        return self._p(word, context, self.order)

    def _p(self, w: str, ctx: tuple, o: int) -> float:
        if o == 1:
            table = self.tables[1]
            total = self.level_total[1]
            uniform = 1.0 / self.vocab_size
            if total == 0:
                return uniform
            d = self.discounts[1]
            c = table.get((w,), 0)
            lam = d * len(table) / total
            return max(c - d, 0.0) / total + lam * uniform
        total = self.ctx_total[o].get(ctx, 0)
        if total == 0:
            return self._p(w, ctx[1:], o - 1)
        d = self.discounts[o]
        c = self.tables[o].get(ctx + (w,), 0)
        lam = d * self.ctx_types[o][ctx] / total
        return max(c - d, 0.0) / total + lam * self._p(w, ctx[1:], o - 1)

    def map_word(self, w: str) -> str:
        return w if w in self.vocab_index else UNK

    def sentence_logprob(self, words: list[str]) -> tuple[float, int]:
        """Natural-log probability of one sentence incl. the end symbol."""
        ctx = (BOS,) * (self.order - 1)
        lp = 0.0
        n = 0
        for w in [self.map_word(w) for w in words] + [EOS]:
            lp += math.log(self.prob(w, ctx))
            n += 1
            ctx = (ctx + (w,))[1:] if self.order > 1 else ()
        return lp, n

    def save(self, path) -> None:
        grams = sorted(
            ((" ".join(g), c) for g, c in self.tables[self.order].items())
        )
        payload = {
            "format": "kn-ngram-v1",
            "order": self.order,
            "min_count": self.min_count,
            "vocab": self.vocab,
            "discounts": {str(o): d for o, d in sorted(self.discounts.items())},
            "counts": [[g, c] for g, c in grams],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "KneserNeyModel":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format") != "kn-ngram-v1":
            raise ValueError(f"{path}: not a kn-ngram-v1 model file")
        top = {tuple(g.split(" ")): c for g, c in payload["counts"]}
        return cls(
            order=payload["order"],
            vocab=payload["vocab"],
            top_counts=top,
            min_count=payload["min_count"],
            discounts={int(o): d for o, d in payload["discounts"].items()},
        )


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
    in_vocab = set(vocab)

    top_counts: dict = {}
    pad = (BOS,) * (order - 1)
    for s in sents:
        seq = pad + tuple(w if w in in_vocab else UNK for w in s) + (EOS,)
        for i in range(len(seq) - order + 1):
            gram = seq[i : i + order]
            top_counts[gram] = top_counts.get(gram, 0) + 1
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
