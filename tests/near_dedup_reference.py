"""Pure-Python references for near-duplicate detection, used only as test
oracles.

``reference_shingles`` hashes every word of every gram with blake2b and does
the Karp-Rabin polynomial and the splitmix64 finish in Python ints mod 2^64.
``reference_signature`` takes each MinHash minimum over a Python loop.

``reference_clusters`` verifies every candidate pair: each pair of signature
matrix rows that agree on all columns of some band is listed, the list is
sorted, each pair is checked with the pairwise similarity functions, and
the verified pairs are merged with a union-find written here. No pair is
skipped.
"""

import hashlib
from itertools import combinations

import numpy as np

MASK64 = (1 << 64) - 1
SHINGLE_BASE = 0xD1342543DE82EF95


def splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def word_hash(word: str) -> int:
    return int.from_bytes(hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest(), "little")


def reference_shingles(text: str, n: int = 5) -> list[int]:
    """Sorted distinct shingle hashes; fewer than n words make one gram."""
    words = text.lower().split()
    if len(words) < n:
        grams = [words]
    else:
        grams = [words[i : i + n] for i in range(len(words) - n + 1)]
    out = set()
    for gram in grams:
        h = 0
        for word in gram:
            h = (h * SHINGLE_BASE + word_hash(word)) & MASK64
        out.add(splitmix64(h))
    return sorted(out)


def reference_signature(values, k: int, perm_seed: int) -> list[int]:
    """min over x of (a_j * x + b_j) mod 2^64 for each of the k functions of
    the seeded family."""
    rng = np.random.default_rng(perm_seed)
    a = (rng.integers(0, 2**64, size=k, dtype=np.uint64) | np.uint64(1)).tolist()
    b = rng.integers(0, 2**64, size=k, dtype=np.uint64).tolist()
    return [min((aj * int(x) + bj) & MASK64 for x in values) for aj, bj in zip(a, b)]


def reference_jaccard(a, b) -> float:
    a, b = set(a.tolist()), set(b.tolist())
    return len(a & b) / len(a | b)


def estimate_jaccard(a, b) -> float:
    """Share of positions where two MinHash signature rows agree."""
    if len(a) != len(b):
        raise ValueError(f"signature length mismatch: {len(a)} vs {len(b)}")
    return float(np.mean(a == b))


def candidate_pairs(mat, bands, rows):
    pairs = set()
    for band in range(bands):
        lo, hi = band * rows, (band + 1) * rows
        buckets = {}
        for i in range(len(mat)):
            key = tuple(int(v) for v in mat[i, lo:hi])
            buckets.setdefault(key, []).append(i)
        for members in buckets.values():
            pairs.update(combinations(members, 2))
    return sorted(pairs)


def verified_pairs(mat, bands, rows, threshold, shingle_sets=None):
    out = []
    for x, y in candidate_pairs(mat, bands, rows):
        if shingle_sets is not None:
            sim = reference_jaccard(shingle_sets[x], shingle_sets[y])
        else:
            sim = estimate_jaccard(mat[x], mat[y])
        if sim >= threshold:
            out.append((x, y))
    return out


def reference_clusters(mat, bands, rows, threshold, shingle_sets=None):
    """Clusters of row indices, each sorted, in sorted order."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for x, y in verified_pairs(mat, bands, rows, threshold, shingle_sets):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    groups = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return sorted(sorted(g) for g in groups.values() if len(g) > 1)
