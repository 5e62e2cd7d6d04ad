#!/usr/bin/env python3
"""Convert a JSON kn-ngram-v1 model file to a kn-ngram-v2 model file.

A v1 file is one JSON object: "format": "kn-ngram-v1", "order",
"min_count", "vocab" (a list of words), "discounts" (order as a string to a
float) and "counts" (a list of [gram, count] pairs, each gram its words
joined by single spaces). The model is rebuilt from these through the
KneserNeyModel constructor, with the file's discounts, so it scores exactly
as the v1 file did.

Usage:
    python3 scripts/convert_kn_v1.py old_model.json model.json
"""

import argparse
import json
import sys

from corpusprep.ngram_lm import KneserNeyModel


def convert(src, dst) -> None:
    with open(src, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != "kn-ngram-v1":
        raise ValueError("not a kn-ngram-v1 model file")
    counts = {tuple(gram.split(" ")): c for gram, c in payload["counts"]}
    if len(counts) < len(payload["counts"]):
        raise ValueError("a gram is listed twice")
    discounts = {int(o): d for o, d in payload["discounts"].items()}
    model = KneserNeyModel(payload["order"], payload["vocab"], counts,
                           payload["min_count"], discounts)
    model.save(dst)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", help="kn-ngram-v1 JSON model file")
    ap.add_argument("output", help="kn-ngram-v2 model file to write")
    args = ap.parse_args()
    try:
        convert(args.input, args.output)
    except (ValueError, KeyError, TypeError) as e:
        print(f"convert error: {args.input}: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
