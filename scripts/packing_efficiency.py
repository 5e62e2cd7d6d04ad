#!/usr/bin/env python3
"""Packing-efficiency sweep over sequence lengths.

Packs a synthetic log-normal-length corpus at several sequence lengths and
prints the fraction of non-pad positions, with and without document
splitting.

Usage:
    python3 scripts/packing_efficiency.py --n-docs 10000 --mean-len 400
"""

import argparse

from corpusprep.packing import MAX_SEQ_LEN, pack_greedy
from corpusprep.subword import SPECIAL_TOKENS, SubwordVocab, unescape_token

from synthetic import lognormal_token_docs, make_basic_vocab


def seq_len_arg(text: str) -> int:
    """A --seq-lens value: an int in 2..MAX_SEQ_LEN, as pack.seq_len."""
    value = int(text)
    if not 2 <= value <= MAX_SEQ_LEN:
        raise argparse.ArgumentTypeError(f"{value} outside 2..{MAX_SEQ_LEN}")
    return value


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-docs", type=int, default=10_000)
    ap.add_argument("--mean-len", type=float, default=400.0)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--seq-lens", type=seq_len_arg, nargs="+",
                    default=[512, 1024, 2048, 8192])
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    vocab = SubwordVocab(
        pieces=[unescape_token(t) for t in make_basic_vocab()],
        specials={t: i for i, t in enumerate(SPECIAL_TOKENS)},
    )
    docs = lognormal_token_docs(
        args.n_docs, vocab.size, vocab.special_ids,
        mean_len=args.mean_len, sigma=args.sigma, seed=args.seed,
    )
    total = sum(len(ids) for _, ids in docs)
    print(f"{args.n_docs} docs, {total} tokens "
          f"(log-normal, mean={args.mean_len}, sigma={args.sigma})\n")
    print(f"{'seq_len':>8}  {'split':>5}  {'windows':>8}  {'efficiency':>10}")
    for seq_len in args.seq_lens:
        for split in (True, False):
            windows, eff = pack_greedy(
                iter(docs), seq_len,
                bos_id=vocab.bos_id, eos_id=vocab.eos_id, pad_id=vocab.pad_id,
                split=split,
            )
            print(f"{seq_len:>8}  {str(split):>5}  {len(windows):>8}  {eff:>10.5f}")


if __name__ == "__main__":
    main()
