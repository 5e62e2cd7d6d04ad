"""Brute-force reference for near-duplicate clustering, used only as a test
oracle.

It verifies every candidate pair: each pair of documents whose signatures
agree on all rows of some band is listed, the list is sorted, each pair is
checked with the pairwise similarity functions, and the verified pairs are
merged with a union-find written here. No pair is skipped.
"""

from itertools import combinations

from corpusprep.near_dedup import estimate_jaccard, true_jaccard


def candidate_pairs(signatures, bands, rows):
    pairs = set()
    ids = sorted(signatures)
    for band in range(bands):
        lo, hi = band * rows, (band + 1) * rows
        buckets = {}
        for doc_id in ids:
            key = tuple(int(v) for v in signatures[doc_id].values[lo:hi])
            buckets.setdefault(key, []).append(doc_id)
        for members in buckets.values():
            pairs.update(combinations(members, 2))
    return sorted(pairs)


def verified_pairs(signatures, bands, rows, threshold, shingle_sets=None):
    out = []
    for x, y in candidate_pairs(signatures, bands, rows):
        if shingle_sets is not None:
            sim = true_jaccard(shingle_sets[x], shingle_sets[y])
        else:
            sim = estimate_jaccard(signatures[x], signatures[y])
        if sim >= threshold:
            out.append((x, y))
    return out


def reference_clusters(signatures, bands, rows, threshold, shingle_sets=None):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for x, y in verified_pairs(signatures, bands, rows, threshold, shingle_sets):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    groups = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return sorted(sorted(g) for g in groups.values() if len(g) > 1)
