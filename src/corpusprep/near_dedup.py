"""MinHash-LSH near-duplicate detection over word 5-gram shingles.

Signatures use a seeded multiply-add family over the 64-bit ring: with an
odd multiplier, h(x) = a*x + b (mod 2^64) is a bijection of the hash
universe, so per-position signature collisions estimate Jaccard similarity
in the usual way. Candidate pairs come from LSH banding; pairs whose
estimated (or, in exact-verify mode, true) Jaccard clears the threshold are
merged with union-find.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from corpusprep.core import Document, StageStats

DEFAULT_SHINGLE_N = 5


def hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class ShingleSet:
    shingles: frozenset  # 64-bit hashes of word n-grams
    n: int


def shingles(text: str, n: int = DEFAULT_SHINGLE_N) -> ShingleSet:
    """Hashed set of consecutive n-word windows of the lowercased text.

    Texts shorter than n words degenerate to a single whole-text shingle.
    """
    if n < 1:
        raise ValueError("shingle order must be >= 1")
    words = text.lower().split()
    if len(words) < n:
        grams = [" ".join(words)]
    else:
        grams = [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]
    hashes = frozenset(hash64(g.encode("utf-8")) for g in grams)
    return ShingleSet(shingles=hashes, n=n)


def true_jaccard(a: ShingleSet, b: ShingleSet) -> float:
    union = len(a.shingles | b.shingles)
    if union == 0:
        return 1.0
    return len(a.shingles & b.shingles) / union


@dataclass
class MinHashSignature:
    values: np.ndarray  # uint64, length k
    perm_seed: int

    @property
    def k(self) -> int:
        return len(self.values)


_PERM_CACHE: dict = {}


def _permutation_params(k: int, perm_seed: int) -> tuple[np.ndarray, np.ndarray]:
    key = (k, perm_seed)
    if key not in _PERM_CACHE:
        rng = np.random.default_rng(perm_seed)
        a = rng.integers(0, 2**64, size=k, dtype=np.uint64) | np.uint64(1)
        b = rng.integers(0, 2**64, size=k, dtype=np.uint64)
        _PERM_CACHE[key] = (a, b)
    return _PERM_CACHE[key]


def minhash_signature(s: ShingleSet, k: int, perm_seed: int) -> MinHashSignature:
    if not s.shingles:
        raise ValueError("cannot sketch an empty shingle set")
    a, b = _permutation_params(k, perm_seed)
    x = np.fromiter(s.shingles, dtype=np.uint64, count=len(s.shingles))
    # uint64 arithmetic wraps mod 2^64 by construction
    hashed = a[:, None] * x[None, :] + b[:, None]
    return MinHashSignature(values=hashed.min(axis=1), perm_seed=perm_seed)


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    if a.k != b.k:
        raise ValueError(f"signature length mismatch: {a.k} vs {b.k}")
    if a.perm_seed != b.perm_seed:
        raise ValueError("signatures from different permutation families")
    return float(np.mean(a.values == b.values))


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

    def clusters(self, min_size: int = 2) -> list[list]:
        groups: dict = {}
        for x in self._parent:
            groups.setdefault(self.find(x), []).append(x)
        out = [sorted(g) for g in groups.values() if len(g) >= min_size]
        out.sort()
        return out


@dataclass
class NearDupConfig:
    num_perm: int = 112
    bands: int = 14
    rows: int = 8
    shingle_n: int = DEFAULT_SHINGLE_N
    threshold: float = 0.7
    perm_seed: int = 1
    exact_verify: bool = False

    def validate(self) -> list[str]:
        errors = []
        if self.bands * self.rows != self.num_perm:
            errors.append(
                f"near_dedup: bands*rows != num_perm "
                f"({self.bands}*{self.rows} != {self.num_perm})"
            )
        if not 0.0 < self.threshold <= 1.0:
            errors.append(f"near_dedup.threshold: {self.threshold} outside (0, 1]")
        return errors


@dataclass
class LshIndex:
    bands: int
    rows: int
    buckets: dict = field(default_factory=dict)  # (band, bytes) -> [ids]

    def insert(self, doc_id, sig: MinHashSignature) -> None:
        r = self.rows
        for band in range(self.bands):
            key = (band, sig.values[band * r : (band + 1) * r].tobytes())
            self.buckets.setdefault(key, []).append(doc_id)

    def candidate_pairs(self) -> set:
        pairs = set()
        for ids in self.buckets.values():
            if len(ids) < 2:
                continue
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    x, y = ids[i], ids[j]
                    pairs.add((x, y) if x <= y else (y, x))
        return pairs


def _signature_hits(mat: np.ndarray, x: int, cands: list, threshold: float):
    """Which rows *cands* of the signature matrix have an estimated Jaccard
    with row *x* that clears *threshold*. ``matches / k`` is the float64
    ``np.mean`` of the equality mask, so this agrees bit for bit with
    ``estimate_jaccard(a, b) >= threshold``."""
    matches = np.count_nonzero(mat[cands] == mat[x], axis=1)
    return matches / mat.shape[1] >= threshold


def _link_bucket(members: list, uf: UnionFind, similar) -> None:
    """Union the verified pairs of one LSH bucket, skipping every pair whose
    ends are already connected.

    Each member is verified against the earlier members outside its own
    component: first one representative per component, then, for the
    components whose representative missed, their remaining members. A
    component joins when any of its members verifies, so the components
    equal those of verifying every pair in the bucket."""
    if len({uf.find(m) for m in members}) < 2:
        return
    groups: dict = {}  # component root -> earlier bucket members in it
    for x in members:
        rx = uf.find(x)
        others = [r for r in groups if r != rx]
        if others:
            hits = similar(x, [groups[r][0] for r in others])
            linked = {r for r, hit in zip(others, hits) if hit}
            missed = [r for r, hit in zip(others, hits) if not hit]
            rest = [(r, m) for r in missed for m in groups[r][1:]]
            if rest:
                hits = similar(x, [m for _, m in rest])
                linked.update(r for (r, _), hit in zip(rest, hits) if hit)
            if linked:
                for r in linked:
                    uf.union(x, r)
                # extend the largest member list by the others
                parts = sorted(
                    (groups.pop(r) for r in linked | {rx} if r in groups), key=len
                )
                merged = parts.pop()
                for part in parts:
                    merged.extend(part)
                rx = uf.find(x)
                groups[rx] = merged
        groups.setdefault(rx, []).append(x)


def find_duplicate_clusters(
    signatures: dict,
    bands: int,
    rows: int,
    threshold: float = 0.7,
    shingle_sets: Optional[dict] = None,
) -> list[list]:
    """Cluster documents whose banded signatures collide and whose Jaccard
    estimate clears *threshold*. Pass *shingle_sets* to verify candidates
    with true Jaccard instead of the signature estimate.

    The clusters are the connected components of the verified candidate
    pairs. Buckets are verified one at a time (see ``_link_bucket``), so on
    templated pages, where one bucket holds hundreds of near-identical
    members, the work grows with the bucket's size instead of its square."""
    ids = sorted(signatures)
    if not ids:
        return []
    sigs = [signatures[i] for i in ids]
    if len({(s.k, s.perm_seed) for s in sigs}) > 1:
        raise ValueError("signatures differ in length or permutation family")
    index = LshIndex(bands=bands, rows=rows)
    for i, sig in enumerate(sigs):
        index.insert(i, sig)
    if shingle_sets is None:
        mat = np.stack([s.values for s in sigs])

        def similar(x, cands):
            return _signature_hits(mat, x, cands, threshold)

    else:
        sets = [shingle_sets[i] for i in ids]

        def similar(x, cands):
            return [true_jaccard(sets[x], sets[c]) >= threshold for c in cands]

    uf = UnionFind()
    for members in index.buckets.values():
        if len(members) > 1:
            _link_bucket(members, uf, similar)
    return [[ids[i] for i in cluster] for cluster in uf.clusters(min_size=2)]


def dedup_near(
    docs: Iterable[Document],
    cfg: NearDupConfig,
    cluster_report: Optional[list] = None,
) -> tuple[list[Document], StageStats]:
    """Remove near-duplicates, keeping the longest document per cluster
    (ties broken by smallest id). Output preserves input order."""
    stats = StageStats(stage="dedup_near")
    docs = list(docs)
    by_id = {}
    signatures = {}
    shingle_sets = {} if cfg.exact_verify else None
    for doc in docs:
        stats.record_in(doc)
        if doc.id in by_id:
            raise ValueError(f"duplicate document id {doc.id!r}")
        by_id[doc.id] = doc
        s = shingles(doc.text, cfg.shingle_n)
        if shingle_sets is not None:
            shingle_sets[doc.id] = s
        signatures[doc.id] = minhash_signature(s, cfg.num_perm, cfg.perm_seed)

    clusters = find_duplicate_clusters(
        signatures, cfg.bands, cfg.rows, cfg.threshold, shingle_sets
    )
    removed_to_kept = {}
    for cluster in clusters:
        keeper = min(cluster, key=lambda i: (-by_id[i].word_count, i))
        removed = [i for i in cluster if i != keeper]
        for i in removed:
            removed_to_kept[i] = keeper
        if cluster_report is not None:
            cluster_report.append({"kept": keeper, "removed": removed})

    kept = []
    for doc in docs:
        if doc.id in removed_to_kept:
            stats.record_reject(doc, "near_dup", f"kept={removed_to_kept[doc.id]}")
        else:
            stats.record_out(doc)
            kept.append(doc)
    stats.extra["clusters"] = len(clusters)
    return kept, stats.finish()
