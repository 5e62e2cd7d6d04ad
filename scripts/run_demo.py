#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus.

Generates a corpus with planted exact/near duplicates and noise, trains a
5-gram LM, builds a byte-fallback vocabulary, writes a pipeline config, and
runs every stage. Re-running with the same arguments is byte-identical.

Usage:
    python3 scripts/run_demo.py --out /tmp/demo --n-docs 2000
"""

import argparse
from pathlib import Path

import numpy as np
import yaml

from corpusprep.config import load_config
from corpusprep.core import Document, write_jsonl
from corpusprep.ngram_lm import train_kn_sentences
from corpusprep.pipeline import report_table, run_pipeline

from synthetic import (
    SyntheticLanguage,
    edit_words,
    make_basic_vocab,
    shuffle_words,
)


def build_corpus(n_docs: int, seed: int) -> list:
    lang = SyntheticLanguage()
    rng = np.random.default_rng(seed)
    docs = []

    def add(text, source, url=None):
        docs.append(
            Document(id=f"{source}-{len(docs):06d}", source=source, text=text, url=url)
        )

    i = 0
    while len(docs) < n_docs:
        source = "web" if i % 3 else "news"
        text = lang.document(rng, int(rng.integers(2, 9)), 12)
        kind = i % 10
        if kind == 0:
            add(text, source)
            add(text, source)  # exact duplicate
        elif kind == 1:
            add(text, source, url=f"http://ex.lv/page{i}?utm=1")
            add(lang.document(rng, 4, 12), source, url=f"https://EX.lv/page{i}/")
        elif kind == 2:
            add(text, source)
            add(edit_words(text, 0.01, rng, lang), source)  # near duplicate
        elif kind == 3:
            add(shuffle_words(text.replace("\n", " "), rng), source)  # noise
        elif kind == 4:
            add(lang.sentence(rng, 5), source)  # too short
        else:
            add(text, source)
        i += 1
    return docs[:n_docs]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--n-docs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    root = args.out
    root.mkdir(parents=True, exist_ok=True)
    lang = SyntheticLanguage()
    rng = np.random.default_rng(args.seed)

    write_jsonl(build_corpus(args.n_docs, args.seed), root / "corpus.jsonl")
    (root / "vocab.txt").write_text(
        "\n".join(make_basic_vocab(extra_words=sorted(lang.words))) + "\n",
        encoding="utf-8",
    )
    train_kn_sentences(
        [lang.sentence(rng, 12) for _ in range(600)], order=5
    ).save(root / "model.json")

    config = {
        "input": str(root / "corpus.jsonl"),
        "work_dir": str(root / "work"),
        "seed": args.seed,
        "heuristics": {"min_words": 20},
        "lm": {
            "model_path": str(root / "model.json"),
            "policy": {"kind": "percentile", "value": 90.0},
        },
        "vocab": {"path": str(root / "vocab.txt")},
        "quotas": [
            {"name": "short", "min_tokens": 0, "max_tokens": 40,
             "target_tokens": 5000},
            {"name": "mid", "min_tokens": 40, "max_tokens": 80,
             "target_tokens": 10000},
            {"name": "long", "min_tokens": 80, "max_tokens": None,
             "target_tokens": 10000},
        ],
        "pack": {"seq_len": 512, "mask": {"scheme": "span", "rate": 0.30}},
    }
    (root / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")

    report = run_pipeline(load_config(root / "config.yaml"))
    print()
    print(report_table(report.to_dict()))
    print(f"\noutputs in {root / 'work'}")


if __name__ == "__main__":
    main()
