"""The recursive interpolated Kneser-Ney scorer, kept as a bit-exact test
oracle for the sorted-array trie scorer in corpusprep.ngram_lm.

Tuple-keyed tables per order and a recursive probability function that
backs off one order per call, as the package once scored. The trie model
must give ``==`` equal probabilities and sentence log-probabilities: it
performs the same float operations in the same order."""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

from corpusprep.ngram_lm import BOS, EOS, UNK


def _discount(table: dict) -> float:
    counts = Counter(table.values())
    n1, n2 = counts.get(1, 0), counts.get(2, 0)
    if n1 > 0 and n2 > 0:
        return n1 / (n1 + 2.0 * n2)
    return 0.5  # degenerate counts-of-counts; keep smoothing mass positive


class RecursiveKN:
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
