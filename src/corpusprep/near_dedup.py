"""MinHash-LSH near-duplicate detection over word 5-gram shingles.

Shingles: each lowercased word is hashed with blake2b (through a
``core.WordMemo`` per call), n consecutive word hashes are combined by a
Karp-Rabin polynomial mod 2^64, and each value is finished with splitmix64,
so that the multiply-add family below does not see the polynomial's
low-bit structure. A corpus is shingled in one pass per ``core.chunks``
list of its documents' word hashes (one bytes object per document): one
polynomial over the concatenated hashes, whose windows that cross a
document boundary are dropped, and one sort by (document, value). Its
shingle sets come back concatenated, with one size per document.

Signatures use a seeded multiply-add family over the 64-bit ring: with an
odd multiplier, h(x) = a*x + b (mod 2^64) is a bijection of the hash
universe, so per-position signature collisions estimate Jaccard similarity
in the usual way. All documents are signed into one (n_docs, k) matrix.
Candidate pairs come from LSH banding of its rows; pairs whose estimated
(or, in exact-verify mode, true) Jaccard clears the threshold are merged
with union-find.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Annotated, Iterable, Optional

import numpy as np

from corpusprep.core import Document, WordMemo, chunks

DEFAULT_SHINGLE_N = 5
# Karp-Rabin base: an odd 64-bit multiplier (Steele & Vigna's LCG constant)
SHINGLE_BASE = np.uint64(0xD1342543DE82EF95)
# Documents are shingled in core.chunks of this many words plus one per
# document, so that shingling needs no corpus-sized temporary and a
# chunk's at most SHINGLE_CHUNK document numbers fit in uint16
SHINGLE_CHUNK = 1 << 13
# Most bytes of one signing chunk's products, so that signing needs no
# corpus-sized temporary
SIGN_CHUNK_BYTES = 4 << 20


def _word_hash(word: str) -> bytes:
    return hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()


def shingles(
    texts: Iterable[str], n: int = DEFAULT_SHINGLE_N
) -> tuple[np.ndarray, np.ndarray]:
    """The shingles of each text: the sorted unique uint64 hashes of the
    consecutive n-word windows of the lowercased text, where a text of
    fewer than n words, the empty text included, gives one shingle.
    Returns ``(values, sizes)``: every text's shingles concatenated in
    order, and the int64 number of each text's shingles."""
    if isinstance(texts, str):
        raise TypeError("shingles takes a sequence of texts, not a str")
    # each word lowercased alone: str.lower neither makes nor removes
    # whitespace, and its one context rule, final sigma, stops at it
    word_hash = WordMemo(lambda word: _word_hash(word.lower())).__getitem__
    hashes = (b"".join(map(word_hash, text.split())) for text in texts)
    docs = chunks(hashes, lambda h: len(h) // 8 + 1, SHINGLE_CHUNK)
    values, sizes = zip(*[_shingle_chunk(c, n) for c in docs] or [_shingle_chunk([], n)])
    return np.concatenate(values), np.concatenate(sizes)


def _shingle_chunk(hashes: list[bytes], n: int) -> tuple[np.ndarray, np.ndarray]:
    """``shingles`` of the documents whose word hashes are *hashes*, one
    bytes object of 8 bytes a word per document."""
    n_docs = len(hashes)
    lens = np.array([len(h) // 8 for h in hashes], dtype=np.int64)
    ends = np.cumsum(lens)
    n_words = int(lens.sum())
    # padded so that every window has n words
    w = np.frombuffer(b"".join(hashes) + bytes(8 * (n - 1)), dtype="<u8")
    # a document of fewer than n words has the one window of all of them,
    # 0 when it has none
    short = np.flatnonzero(lens < n)
    short_lens = lens[short]
    short_starts = ends[short] - short_lens
    short_z = np.zeros(len(short), dtype=np.uint64)
    # after step j, z[i] is the polynomial of words i .. i+j
    z = np.zeros(n_words, dtype=np.uint64)
    for j in range(n):
        z *= SHINGLE_BASE
        z += w[j : j + n_words]
        done = short_lens == j + 1
        short_z[done] = z[short_starts[done]]
    # keep the windows that end inside the document they start in
    inside = np.repeat(ends, lens) - np.arange(n_words) >= n
    doc = np.repeat(np.arange(n_docs, dtype=np.uint16), lens)
    z = np.concatenate((z[inside], short_z))
    doc = np.concatenate((doc[inside], short.astype(np.uint16)))
    # splitmix64 finalizer (Steele, Lea and Flood 2014), a bijection
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    # by value, then stably by document (a radix sort of uint16)
    order = np.argsort(z)
    order = order[np.argsort(doc[order], kind="stable")]
    z, doc = z[order], doc[order]
    first = np.ones(len(z), dtype=bool)
    first[1:] = (z[1:] != z[:-1]) | (doc[1:] != doc[:-1])
    return z[first], np.bincount(doc[first], minlength=n_docs).astype(np.int64)


def true_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """|a & b| / |a | b| of two sorted unique shingle arrays."""
    shared = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - shared
    return shared / union if union else 1.0


def minhash_signature(values: np.ndarray, sizes, k: int, perm_seed: int) -> np.ndarray:
    """The (len(sizes), k) uint64 MinHash matrix of the sets that
    *values* holds one after another, set i with sizes[i] values: entry
    (i, j) is the least (a_j * x + b_j) mod 2^64 over x in set i. Every
    set holds at least one value, as ``shingles`` gives every text one.

    The values are signed in chunks of at most SIGN_CHUNK_BYTES of
    products, into one buffer per call; a chunk's per-set minima are taken
    with ``np.minimum.reduceat`` and folded into the rows of the sets it
    overlaps."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.sum() != len(values):
        raise ValueError(f"set sizes sum to {sizes.sum()}, not {len(values)} values")
    rng = np.random.default_rng(perm_seed)
    a = rng.integers(0, 2**64, size=k, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 2**64, size=k, dtype=np.uint64)
    out = np.full((len(sizes), k), np.iinfo(np.uint64).max, dtype=np.uint64)
    starts = np.cumsum(sizes) - sizes
    step = max(1, SIGN_CHUNK_BYTES // (8 * k))
    products = np.empty((k, min(step, len(values))), dtype=np.uint64)
    for lo in range(0, len(values), step):
        hi = min(lo + step, len(values))
        # sets d0 .. d1-1 overlap shingles lo .. hi-1
        d0 = int(np.searchsorted(starts, lo, side="right")) - 1
        d1 = int(np.searchsorted(starts, hi, side="left"))
        # uint64 arithmetic wraps mod 2^64 by construction
        h = np.multiply(a[:, None], values[lo:hi], out=products[:, : hi - lo])
        h += b[:, None]
        part = np.minimum.reduceat(h, np.maximum(starts[d0:d1], lo) - lo, axis=1)
        np.minimum(out[d0:d1], part.T, out=out[d0:d1])
    return out


class UnionFind:
    def __init__(self):
        self._parent: dict = {}

    def find(self, x):
        parent = self._parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # deterministic: smaller key becomes the root
            if ry < rx:
                rx, ry = ry, rx
            self._parent[ry] = rx

    def clusters(self) -> list[list]:
        groups: dict = {}
        for x in self._parent:
            groups.setdefault(self.find(x), []).append(x)
        out = [sorted(g) for g in groups.values() if len(g) > 1]
        out.sort()
        return out


@dataclass
class NearDupConfig:
    num_perm: int = 112
    bands: Annotated[int, ">= 1"] = 14
    rows: Annotated[int, ">= 1"] = 8
    shingle_n: Annotated[int, ">= 1"] = DEFAULT_SHINGLE_N
    threshold: Annotated[float, "(0, 1]"] = 0.7
    perm_seed: Annotated[int, ">= 0"] = 1
    exact_verify: bool = False


def banding_odds(jaccard: float, bands: int, rows: int) -> tuple[float, float]:
    """The probability ``1 - (1 - jaccard^rows)^bands`` that two documents of
    that Jaccard similarity share a bucket of LSH banding, and the banding's
    own threshold ``(1/bands)^(1/rows)``, near which that probability rises
    most steeply."""
    return 1.0 - (1.0 - jaccard**rows) ** bands, (1 / bands) ** (1 / rows)


@dataclass
class LshIndex:
    """LSH banding of a signature matrix: rows that agree on all *rows*
    columns of one band share that band's bucket."""

    bands: int
    rows: int

    def buckets(self, mat: np.ndarray) -> list[list[int]]:
        """Every bucket of *mat*'s rows with two or more members, band by
        band, each a list of row indices in ascending order."""
        if mat.shape[1] != self.bands * self.rows:
            raise ValueError(f"signature length {mat.shape[1]} != {self.bands}*{self.rows}")
        key = np.dtype((np.void, 8 * self.rows))
        out = []
        for lo in range(0, mat.shape[1], self.rows):
            band = np.ascontiguousarray(mat[:, lo : lo + self.rows]).view(key).ravel()
            buckets: dict = {}
            for i, k in enumerate(band.tolist()):
                buckets.setdefault(k, []).append(i)
            out.extend(ids for ids in buckets.values() if len(ids) > 1)
        return out


def _signature_hits(mat: np.ndarray, x: int, cands: list, threshold: float):
    """Which rows *cands* of the signature matrix have an estimated Jaccard
    with row *x* that clears *threshold*. ``matches / k`` is the float64
    ``np.mean`` of the equality mask, so this agrees bit for bit with the
    test reference's ``estimate_jaccard(a, b) >= threshold``."""
    matches = np.count_nonzero(mat[cands] == mat[x], axis=1)
    return matches / mat.shape[1] >= threshold


def _link_bucket(members: list, uf: UnionFind, similar) -> None:
    """Union the verified pairs of one LSH bucket, skipping every pair whose
    ends are already connected, and verifying no pair twice.

    Each member in turn verifies the later members outside its component
    in one ``similar`` call, and the hits join it. Once a member has no
    such later member, every later member shares its component, so the
    loop stops there: on templated pages, at the second member. A pair is
    verified only at the turn of its earlier member, and only if its ends
    are not yet connected, so the components equal those of verifying
    every pair in the bucket, in at most len(members) - 1 calls."""
    for i, x in enumerate(members):
        root = uf.find(x)
        cands = [m for m in members[i + 1 :] if uf.find(m) != root]
        if not cands:
            return
        for m, hit in zip(cands, similar(x, cands)):
            if hit:
                uf.union(x, m)


def find_duplicate_clusters(
    mat: np.ndarray,
    bands: int,
    rows: int,
    threshold: float = 0.7,
    shingle_sets: Optional[list] = None,
) -> list[list[int]]:
    """Cluster the rows of the signature matrix *mat* whose bands collide
    and whose Jaccard estimate clears *threshold*. Pass *shingle_sets*, one
    per row, to verify candidates with true Jaccard instead of the
    signature estimate. Returns clusters of row indices, each sorted, in
    sorted order.

    The clusters are the connected components of the verified candidate
    pairs. Buckets are verified one at a time (see ``_link_bucket``), so on
    templated pages, where one bucket holds hundreds of near-identical
    members, the work grows with the bucket's size instead of its square,
    and is mostly one array comparison per bucket."""

    def similar(x, cands):
        if shingle_sets is None:
            return _signature_hits(mat, x, cands, threshold)
        return [true_jaccard(shingle_sets[x], shingle_sets[c]) >= threshold for c in cands]

    uf = UnionFind()
    for members in LshIndex(bands=bands, rows=rows).buckets(mat):
        _link_bucket(members, uf, similar)
    return uf.clusters()


def dedup_near(docs: list[Document], cfg: NearDupConfig) -> tuple[list, int]:
    """Near-duplicate verdicts, keeping the longest document per cluster
    (ties broken by smallest id): per document in order None, or
    ``("near_dup", "kept=<keeper id>")``; and the number of clusters.
    Document ids are unique, as read_jsonl checks."""
    values, sizes = shingles((doc.text for doc in docs), cfg.shingle_n)
    mat = minhash_signature(values, sizes, cfg.num_perm, cfg.perm_seed)
    sets = np.split(values, np.cumsum(sizes)[:-1]) if cfg.exact_verify else None
    clusters = find_duplicate_clusters(mat, cfg.bands, cfg.rows, cfg.threshold, sets)
    verdicts = [None] * len(docs)
    for cluster in clusters:
        keeper = min(cluster, key=lambda i: (-docs[i].word_count, docs[i].id))
        for i in cluster:
            if i != keeper:
                verdicts[i] = ("near_dup", f"kept={docs[keeper].id}")
    return verdicts, len(clusters)
