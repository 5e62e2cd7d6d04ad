#!/usr/bin/env python3
"""Convert a JSON kn-ngram-v1 model file to a kn-ngram-v2 model file.

A v1 file is one JSON object: "format": "kn-ngram-v1", "order",
"min_count", "vocab" (a list of words), "discounts" (order as a string to a
float) and "counts" (a list of [gram, count] pairs, each gram its words
joined by single spaces). Each gram's words are mapped to their vocab ids,
and the model is rebuilt from the id and count arrays through the
KneserNeyModel constructor, with the file's discounts, so it scores exactly
as the v1 file did. A gram of another length than the order, a word not in
the vocab, a count that is not an int, or a gram listed twice is refused.

Usage:
    python3 scripts/convert_kn_v1.py old_model.json model.json
"""

import argparse
import json
import sys

import numpy as np

from corpusprep.ngram_lm import KneserNeyModel


def convert(src, dst) -> None:
    with open(src, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != "kn-ngram-v1":
        raise ValueError("not a kn-ngram-v1 model file")
    order, vocab = payload["order"], payload["vocab"]
    ids = {w: i for i, w in enumerate(vocab)}
    grams, counts = [], []
    for gram, count in payload["counts"]:
        words = gram.split(" ")
        if len(words) != order:
            raise ValueError(f"gram {gram!r} has {len(words)} words, order is {order}")
        if type(count) is not int:
            raise ValueError(f"gram {gram!r} has count {count!r}")
        try:
            grams.append([ids[w] for w in words])
        except KeyError as e:
            raise ValueError(f"word {e.args[0]!r} is not in the vocab") from None
        counts.append(count)
    discounts = {int(o): d for o, d in payload["discounts"].items()}
    model = KneserNeyModel(order, vocab,
                           np.array(grams, np.int32).reshape(len(grams), order),
                           np.array(counts, np.int64), payload["min_count"], discounts)
    model.save(dst)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", help="kn-ngram-v1 JSON model file")
    ap.add_argument("output", help="kn-ngram-v2 model file to write")
    args = ap.parse_args()
    try:
        convert(args.input, args.output)
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        print(f"convert error: {args.input}: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
