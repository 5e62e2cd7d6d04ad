#!/usr/bin/env python3
"""Empirical LSH candidate-recall curve vs. the banding formula.

For each similarity s, plants set pairs at that true Jaccard, indexes their
MinHash signatures, and compares the measured candidate rate to the
theoretical 1 - (1 - s^rows)^bands.

Usage:
    python3 scripts/lsh_recall_curve.py --num-perm 112 --bands 14 --rows 8
"""

import argparse

import numpy as np

from corpusprep.near_dedup import LshIndex, banding_odds, minhash_signature


def pair_at_jaccard(rng, j: float, n: int = 400):
    """Two random sorted uint64 sets with |A∩B| / |A∪B| == round-off of j."""
    k = int(round(2 * n * j / (1 + j)))  # overlap size so J = k/(2n-k)
    base = rng.integers(0, 2**64, size=2 * n - k, dtype=np.uint64)
    return np.unique(base[:n]), np.unique(base[n - k:])


def candidate_pairs(index: LshIndex, mat) -> set:
    """Pairs of signature rows that share at least one LSH bucket."""
    pairs = set()
    for ids in index.buckets(mat):
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                pairs.add((ids[i], ids[j]))
    return pairs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--num-perm", type=int, default=112)
    ap.add_argument("--bands", type=int, default=14)
    ap.add_argument("--rows", type=int, default=8)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for flag, value in (("--bands", args.bands), ("--rows", args.rows),
                        ("--trials", args.trials)):
        if value < 1:
            ap.error(f"argument {flag}: {value} < 1")
    if args.bands * args.rows != args.num_perm:
        ap.error(f"--bands * --rows is {args.bands * args.rows}, not --num-perm {args.num_perm}")

    rng = np.random.default_rng(args.seed)
    _, banding = banding_odds(0.0, args.bands, args.rows)
    print(f"k={args.num_perm}, b={args.bands}, r={args.rows}, "
          f"t* = (1/b)^(1/r) = {banding:.3f}\n")
    print(f"{'jaccard':>8}  {'empirical':>9}  {'theory':>7}")
    for j in np.arange(0.3, 1.0001, 0.05):
        hits = 0
        for t in range(args.trials):
            sa, sb = pair_at_jaccard(rng, float(j))
            index = LshIndex(bands=args.bands, rows=args.rows)
            mat = minhash_signature(np.concatenate((sa, sb)), [len(sa), len(sb)],
                                    args.num_perm, perm_seed=t)
            hits += (0, 1) in candidate_pairs(index, mat)
        theory, _ = banding_odds(float(j), args.bands, args.rows)
        print(f"{j:>8.2f}  {hits / args.trials:>9.3f}  {theory:>7.3f}")


if __name__ == "__main__":
    main()
