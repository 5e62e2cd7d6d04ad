"""Interpolated Kneser-Ney n-gram language model and perplexity filtering.

Single-discount interpolated KN: the highest order uses raw counts, every
lower order uses continuation counts (number of distinct predecessors),
and the unigram level interpolates down to a uniform floor over the
vocabulary, so every in-vocabulary word has strictly positive probability
in every context. One discount per order, D = n1 / (n1 + 2*n2) from that
order's counts-of-counts.

The model is a sorted-array trie (KenLM's, Heafield 2011, section 3), built
with numpy when the model is trained or loaded. Every word gets an integer
id; out-of-vocabulary words share one extra id, so with V = |vocab| the ids
are 0..V and B = V+1. Level 1 has one row per id. A row at level k >= 2 is
a k-word window, keyed by

    (row of its (k-1)-word suffix at level k-1) * B + (id of its oldest word)

and each level is one sorted int64 key array, so a row is the index of its
key and a lookup is one binary search. The rows of level k are the k-grams
(the top-order grams at the highest level, the suffixes of the grams one
level up below it) and the contexts of the (k+1)-grams. A context that is
no gram's suffix, such as the run of start symbols before a sentence, gets
a context-only row that never enters the counts. Per level k >= 2 one
float64 array holds alpha = max(c - D, 0) / total for each gram row (0.0
for a context-only row), and one holds lam = D * types / total for each
row of level k-1 that is a context of a k-gram (1.0 for a row that is
not); the unigram level is one array over the ids. The key, alpha and
lam arrays have one more entry, for the row of a window not in the trie.

Documents are scored together, in one pass per ``core.chunks`` list of
SCORE_CHUNK positions: the ids of its sentences, each padded with order-1
start symbols and closed with the end symbol. Per order k there is one
searchsorted over all positions, of the queries in sorted order (one
argsort), with the rows scattered back: the k-gram ending at position i
extends the (k-1)-gram ending there by the word k-1 places back, and the
context of the token at i is the (k-1)-gram ending at i-1. Starting
from the unigram value, each order applies p = alpha + lam * p. Where the
context is unseen, the gram is unseen too, so this is 0.0 + 1.0 * p, which
is p exactly: the textbook recursion's back-off needs no mask. A context
unseen at order k is unseen at every higher order, because each lower
level holds the suffixes of the one above. Numpy multiplies and adds in
separate steps, with no fused multiply-add, so these are the recursion's
float operations in its order and every probability is bit-identical to
it. The logs stay math.log, mapped over each sentence in C, and are added
left to right by functools.reduce: np.log is not guaranteed to equal
math.log, np.sum adds pairwise, and sum() compensates floats from Python
3.12 on, so each would move the scores' last bits.

Sentences are newline-separated, lowercased, whitespace-tokenized, padded
with order-1 start symbols and closed with an end symbol; words seen fewer
than min_count times train as the unknown token. A model is built from one
input form, the word ids and counts of the top-order grams: the trainer
counts the id windows of its sentences, and a model file stores the arrays.

A kn-ngram-v2 model file is an npz archive of the arrays FIELDS names, in
order: the format tag; order and min_count, int64 scalars; the float64
discounts of orders 1..order; the vocab, newline-joined, as UTF-8 bytes; the
top-order grams' word ids, oldest first, (n, order) int32; their int64 counts.
"""

from __future__ import annotations

import math
import zipfile
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import add
from pathlib import Path
from typing import Iterable, Literal, Optional

import numpy as np

from corpusprep.core import Document, chunks, open_replacing

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

DEFAULT_ORDER = 5
DEFAULT_MIN_COUNT = 2

# perplexities scores documents in core.chunks of this many positions,
# one _token_probs call each
SCORE_CHUNK = 1 << 14

MODEL_FORMAT = "kn-ngram-v2"
FIELDS = ("format", "order", "min_count", "discounts", "vocab", "grams", "counts")


def _discount(counts: np.ndarray) -> float:
    n1 = int(np.count_nonzero(counts == 1))
    n2 = int(np.count_nonzero(counts == 2))
    if n1 > 0 and n2 > 0:
        return n1 / (n1 + 2.0 * n2)
    return 0.5  # degenerate counts-of-counts; keep smoothing mass positive


def sentence_tokens(line: str) -> list[str]:
    return line.lower().split()


def _checked(a: np.ndarray, name: str, dtype, shape: tuple) -> np.ndarray:
    if a.dtype != dtype or a.shape != shape:
        raise ValueError(f"{name} is {a.dtype} of shape {a.shape}, not "
                         f"{np.dtype(dtype)} of shape {shape}")
    return a


class ModelError(ValueError):
    """A model file that is not a well-formed kn-ngram-v2 model."""


def _read_arrays(path) -> list:
    """The arrays of a kn-ngram-v2 model file, in FIELDS order; else ModelError."""
    try:
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            names = npz.zip.namelist() if isinstance(npz, np.lib.npyio.NpzFile) else []
            if names != [f"{name}.npy" for name in FIELDS]:
                raise ValueError(f"arrays {names}")
            arrays = [np.lib.format.read_array(npz.zip.open(name), allow_pickle=False)
                      for name in names]  # npz[name] gives bytes for a non-array
        if arrays[0].tolist() != MODEL_FORMAT:
            raise ValueError(f"format {arrays[0].tolist()!r}")
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        # "pickled" is np.load's word for a file neither npy nor zip
        why = "not an npz archive" if "pickled" in str(e) else e
        raise ModelError(f"{path}: not a {MODEL_FORMAT} model file ({why})") from None
    return arrays


class KneserNeyModel:
    def __init__(self, order: int, vocab: list[str], grams: np.ndarray,
                 counts: np.ndarray, min_count: int, discounts: Optional[dict] = None):
        """Build a model from the count of every top-order n-gram: *grams*
        holds their word ids, oldest first, (n, order) int32, and *counts*
        their counts, (n,) int64. Every count is positive and every gram is
        listed once; ValueError names the first gram that is not, a word
        listed twice in *vocab*, or a *min_count* below 1.
        """
        if order < 1:
            raise ValueError("order must be >= 1")
        if min_count < 1:
            raise ValueError(f"min_count {min_count} < 1")
        self.order = order
        self.min_count = min_count
        self.vocab = list(vocab)
        self.vocab_index = ids = {w: i for i, w in enumerate(self.vocab)}
        if len(ids) < len(self.vocab):
            word = next(w for i, w in enumerate(self.vocab) if ids[w] != i)
            raise ValueError(f"vocab word {word!r} is listed twice")
        oov = len(self.vocab)
        self._oov = oov
        self._base = oov + 1
        self._unk = ids.get(UNK, oov)
        self._eos = ids.get(EOS, oov)
        self._bos = ids.get(BOS, oov)
        self._build(grams, counts, discounts)

    def _gram_text(self, ids: np.ndarray) -> str:
        return " ".join(map(self.vocab.__getitem__, ids.tolist()))

    def _build(self, grams: np.ndarray, counts: np.ndarray,
               discounts: Optional[dict]) -> None:
        order, base = self.order, self._base
        n = len(counts)
        if n and counts.min() < 1:
            i = np.argmin(counts)
            raise ValueError(f"gram {self._gram_text(grams[i])!r} has count {counts[i]}")
        self.top_grams = n
        self.total_tokens = sum(counts.tolist())
        if self.total_tokens >= 2**63:  # every sum of counts is taken in int64
            raise ValueError("the counts sum past 2**63 - 1")
        # Bottom-up: the rows, level by level, of each top gram's k-word
        # suffix (s) and of the k words before its last word (x), the
        # context of its (k+1)-word suffix.
        keys = [np.arange(base, dtype=np.int64)]
        s_rows = [grams[:, order - 1].astype(np.int64)]
        x_rows = [grams[:, order - 2].astype(np.int64) if order > 1 else None]
        for k in range(2, order + 1):
            key = s_rows[-1] * base + grams[:, order - k]
            if k < order:
                x_key = x_rows[-1] * base + grams[:, order - k - 1]
                key = np.concatenate([key, x_key])
            level, rows = np.unique(key, return_inverse=True)
            keys.append(level)
            s_rows.append(rows[:n])
            x_rows.append(rows[n:])
        top = s_rows[-1]
        self._counts = np.zeros(len(keys[-1]), np.int64)
        self._counts[top] = counts
        if np.count_nonzero(self._counts) < n:  # name the first repeat
            first = np.zeros(n, bool)
            first[np.unique(top, return_index=True)[1]] = True
            gram = self._gram_text(grams[np.argmin(first)])
            raise ValueError(f"gram {gram!r} is listed twice")

        # Top-down: counts, discount, lam and alpha per level; the
        # continuation count of a level k-1 row is its number of
        # predecessors, the level-k gram rows whose key it prefixes.
        given = discounts
        discounts = {}
        c_level = self._counts
        levels = []
        for k in range(order, 1, -1):
            g = np.flatnonzero(c_level)
            c = c_level[g]
            d = discounts[k] = given[k] if given else _discount(c)
            n_ctx = len(keys[k - 2])
            ctx_of = np.empty(len(keys[k - 1]), np.int64)
            ctx_of[s_rows[k - 1]] = x_rows[k - 2]
            ctx = ctx_of[g]
            types = np.bincount(ctx, minlength=n_ctx)
            totals = np.zeros(n_ctx, np.int64)
            np.add.at(totals, ctx, c)
            seen = np.flatnonzero(types)
            lam = np.ones(n_ctx + 1)
            lam[seen] = d * types[seen] / totals[seen]
            alpha = np.zeros(len(keys[k - 1]) + 1)
            alpha[g] = np.maximum(c - d, 0.0) / totals[ctx]
            levels.append((np.append(keys[k - 1], -1), alpha, lam))
            c_level = np.bincount(keys[k - 1][g] // base, minlength=n_ctx)

        d = discounts[1] = given[1] if given else _discount(c_level)
        total = int(c_level.sum())
        uniform = 1.0 / self.vocab_size
        if total == 0:
            self._p1 = np.full(base, uniform)
        else:
            lam = d * np.count_nonzero(c_level) / total
            self._p1 = np.maximum(c_level - d, 0.0) / total + lam * uniform
        self.discounts = given or dict(sorted(discounts.items()))
        # per order 2..order: (keys with a -1 past the end, alpha, lam)
        self._levels = levels[::-1]

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def _token_probs(self, tok: np.ndarray) -> np.ndarray:
        """p(tok[i] | the order-1 ids before it) at every position i from
        order-1 on; tok opens with order-1 start symbols."""
        p = self._p1[tok]
        base = self._base
        row = tok  # level-k row of the k-gram ending at each position
        for k, (keys, alpha, lam) in enumerate(self._levels, start=2):
            # from here on, row and tail cover positions k-1.. of tok
            key = row[1:] * base + tok[: 1 - k]
            # sorted queries walk the key array in order, a cache-friendly
            # search; their rows are scattered back to the positions
            order = key.argsort()
            at = np.empty_like(key)
            at[order] = keys[:-1].searchsorted(key[order])
            weight = lam[row[:-1]]
            row = np.where(keys[at] == key, at, len(keys) - 1)
            tail = p[k - 1:]
            np.multiply(weight, tail, out=tail)
            np.add(alpha[row], tail, out=tail)
        return p

    def save(self, path) -> None:
        """Write the model to exactly *path* as a kn-ngram-v2 file."""
        rows = np.flatnonzero(self._counts)
        counts = self._counts[rows]
        words = []  # oldest first: each key's low digit, then its suffix's
        for keys, _, _ in self._levels[::-1]:
            key = keys[rows]
            words.append(key % self._base)
            rows = key // self._base
        words.append(rows)  # level-1 rows are ids
        arrays = {
            "format": np.array(MODEL_FORMAT),
            "order": np.array(self.order, np.int64),
            "min_count": np.array(self.min_count, np.int64),
            "discounts": np.array([self.discounts[o] for o in range(1, self.order + 1)]),
            "vocab": np.frombuffer("\n".join(self.vocab).encode("utf-8"), np.uint8),
            "grams": np.stack(words, axis=1).astype(np.int32),
            "counts": counts,
        }
        # np.savez stamps each member with the time; a ZipInfo of its own
        # keeps the 1980 default, so a model is always written to the same bytes
        with open_replacing(path, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
            for name, array in arrays.items():
                info = zipfile.ZipInfo(f"{name}.npy")
                with zf.open(info, "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, array, allow_pickle=False)

    @classmethod
    def load(cls, path) -> "KneserNeyModel":
        """Read a model file; ModelError with a one-line message naming the
        file if it is not a well-formed kn-ngram-v2 model."""
        _, order, min_count, discounts, vocab, grams, counts = _read_arrays(path)
        try:
            order = _checked(order, "order", np.int64, ()).item()
            if order < 1:
                raise ValueError(f"order {order} is not positive")
            min_count = _checked(min_count, "min_count", np.int64, ()).item()
            discounts = _checked(discounts, "discounts", np.float64, (order,)).tolist()
            for o, d in enumerate(discounts, start=1):
                if not 0.0 < d < 1.0:
                    raise ValueError(f"discount of order {o} is {d!r}, not in (0, 1)")
            vocab = _checked(vocab, "vocab", np.uint8, (vocab.size,)).tobytes()
            vocab = vocab.decode("utf-8").split("\n")
            for special in (UNK, BOS, EOS):
                if special not in vocab:
                    raise ValueError(f"vocab lacks {special}")
            if grams.ndim == 2 and grams.shape[1] != order:
                raise ValueError(f"grams have {grams.shape[1]} words, order is {order}")
            _checked(grams, "grams", np.int32, grams.shape[:1] + (order,))
            _checked(counts, "counts", np.int64, grams.shape[:1])
            if grams.size and (grams.min() < 0 or grams.max() >= len(vocab)):
                bad = grams.min() if grams.min() < 0 else grams.max()
                raise ValueError(f"word id {bad} is outside the vocab [0, {len(vocab)})")
            return cls(order, vocab, grams, counts, min_count,
                       dict(enumerate(discounts, start=1)))
        except ValueError as e:  # a UnicodeDecodeError too
            raise ModelError(f"{path}: {e}") from None


def train_kn_sentences(
    sentences: Iterable[str],
    order: int = DEFAULT_ORDER,
    min_count: int = DEFAULT_MIN_COUNT,
) -> KneserNeyModel:
    """A model of *sentences*, one per string; ValueError if they hold no word."""
    sents = [sentence_tokens(s) for s in sentences]
    sents = [s for s in sents if s]
    word_freq = Counter(w for s in sents for w in s)
    if not word_freq:
        raise ValueError("training corpus has zero tokens")
    kept = sorted(w for w, c in word_freq.items() if c >= min_count)
    vocab = [UNK, BOS, EOS] + [w for w in kept if w not in (UNK, BOS, EOS)]
    ids = {w: i for i, w in enumerate(vocab)}
    unk, pad, eos = ids[UNK], (ids[BOS],) * (order - 1), (ids[EOS],)
    windows: Counter = Counter()  # id tuple -> count
    for s in sents:
        seq = pad + tuple(ids.get(w, unk) for w in s) + eos
        windows.update(zip(*(seq[i:] for i in range(order))))
    del sents, word_freq
    grams = np.array(list(windows), np.int32).reshape(len(windows), order)
    counts = np.fromiter(windows.values(), np.int64, len(windows))
    return KneserNeyModel(order, vocab, grams, counts, min_count)


@dataclass
class PerplexityVerdict:
    doc_id: str
    perplexity: float
    log_prob: float
    n_scored_tokens: int


def perplexities(model: KneserNeyModel, docs: Iterable[Document]) -> list[PerplexityVerdict]:
    """The verdict of each document, in order: exp(-log_prob / n) over its
    n scored tokens (each sentence's words and end symbol), or inf with
    log_prob 0.0 if it has none.

    Each document's padded ids are scored together with its neighbours',
    one _token_probs call per ``core.chunks`` list of SCORE_CHUNK positions.
    A position reads only the order-1 ids before it, which are its own
    sentence's start symbols or words, so scoring documents together gives
    each token the probability it gets alone. Per sentence, math.log is
    mapped over its probabilities and reduce adds them left to right, from
    0.0; a document's log_prob adds its sentences' sums in order.
    """
    get = model.vocab_index.get
    unk, eos, k = model._unk, model._eos, model.order - 1
    pad = [model._bos] * k

    def padded(doc: Document) -> tuple[str, list, list]:
        """doc.id, the padded ids of its sentences, and each one's scored tokens."""
        ids, lengths = [], []
        # str.lower reads context only for a final sigma, and a line break
        # ends that context, so lowercasing the whole text lowercases each line
        for line in doc.text.lower().split("\n"):
            words = line.split()
            if words:
                ids += pad
                ids += map(get, words, repeat(unk))
                ids.append(eos)
                lengths.append(len(words) + 1)
        return doc.id, ids, lengths

    out: list[PerplexityVerdict] = []
    for chunk in chunks(map(padded, docs), lambda d: len(d[1]), SCORE_CHUNK):
        seq = np.fromiter(chain.from_iterable(ids for _, ids, _ in chunk), np.int64)
        probs = model._token_probs(seq).tolist()
        end = 0
        for doc_id, _, lengths in chunk:
            lp = 0.0
            for length in lengths:
                start = end + k
                end = start + length
                lp += reduce(add, map(math.log, probs[start:end]), 0.0)
            n = sum(lengths)
            out.append(PerplexityVerdict(doc_id, math.exp(-lp / n), lp, n) if n
                       else PerplexityVerdict(doc_id, math.inf, 0.0, 0))
    return out


@dataclass
class PerplexityPolicy:
    kind: Literal["percentile", "absolute"] = "percentile"
    value: float = 90.0


def percentile_cutoff(values: list[float], p: float) -> float:
    """Nearest-rank percentile; p=0 gives the minimum, p=100 the maximum."""
    if not values:
        raise ValueError("percentile over an empty set")
    ordered = sorted(values)
    rank = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[rank]


PPL_META_KEY = "perplexity"


def filter_by_perplexity(
    docs: list[Document],
    model: KneserNeyModel,
    policy: PerplexityPolicy,
) -> tuple[list[Optional[str]], float]:
    """Per document in order, None if its perplexity is within the policy
    cutoff, else ``empty`` (no scorable token) or ``high_ppl``; and the
    cutoff, nan under a percentile policy when no document is scorable.

    Each kept document carries its score in meta["perplexity"] for the
    downstream quality-ordered sampler.
    """
    scores = perplexities(model, docs)
    if policy.kind == "absolute":
        cutoff = policy.value
    else:
        finite = [v.perplexity for v in scores if v.n_scored_tokens > 0]
        cutoff = percentile_cutoff(finite, policy.value) if finite else math.nan
    verdicts = []
    for doc, score in zip(docs, scores):
        if score.n_scored_tokens == 0:
            verdicts.append("empty")
        elif score.perplexity > cutoff:
            verdicts.append("high_ppl")
        else:
            doc.meta[PPL_META_KEY] = f"{score.perplexity:.8e}"
            verdicts.append(None)
    return verdicts, cutoff


def load_model(path) -> KneserNeyModel:
    return KneserNeyModel.load(Path(path))
