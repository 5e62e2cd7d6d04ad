"""Shared end-to-end fixture: synthetic corpus, vocabulary, LM model, and a
pipeline config, all deterministic."""

from pathlib import Path

import numpy as np
import yaml

from corpusprep import pipeline
from corpusprep.core import Document, StageStats, write_jsonl
from corpusprep.ngram_lm import train_kn_sentences

from synthetic import (
    SyntheticLanguage,
    edit_words,
    make_basic_vocab,
    shuffle_words,
)


def build_fixture_corpus(n_docs=1000, seed=0):
    """Mixed corpus: two sources, varied lengths, planted exact/URL/near
    duplicates, shuffled noise, and short rejects."""
    lang = SyntheticLanguage()
    rng = np.random.default_rng(seed)
    docs = []

    def add(text, source, url=None):
        docs.append(
            Document(
                id=f"{source}-{len(docs):06d}", source=source, text=text, url=url
            )
        )
        return docs[-1]

    i = 0
    while len(docs) < n_docs:
        source = "web" if i % 3 else "news"
        n_sent = int(rng.integers(2, 9))
        text = lang.document(rng, n_sent, 12)
        kind = i % 10
        if kind == 0:  # exact duplicate pair
            add(text, source)
            add(text, source)
        elif kind == 1:  # URL duplicate (distinct text, same canonical URL)
            add(text, source, url=f"http://ex.lv/page{i}?utm=1")
            add(lang.document(rng, n_sent, 12), source, url=f"https://EX.lv/page{i}/")
        elif kind == 2:  # near duplicate
            add(text, source)
            add(edit_words(text, 0.01, rng, lang), source)
        elif kind == 3:  # shuffled noise (high perplexity)
            add(shuffle_words(text.replace("\n", " "), rng), source)
        elif kind == 4:  # too short
            add(lang.sentence(rng, 5), source)
        else:
            add(text, source)
        i += 1
    return docs[:n_docs]


def build_workspace(root: Path, n_docs=1000, seed=0, stages=None):
    """Write corpus/vocab/model/config under *root*; returns config path."""
    root.mkdir(parents=True, exist_ok=True)
    lang = SyntheticLanguage()

    corpus_path = root / "corpus.jsonl"
    write_jsonl(build_fixture_corpus(n_docs=n_docs, seed=seed), corpus_path)

    vocab_path = root / "vocab.txt"
    vocab_path.write_text(
        "\n".join(make_basic_vocab(extra_words=sorted(lang.words))) + "\n",
        encoding="utf-8",
    )

    rng = np.random.default_rng(seed + 1)
    model_path = root / "model.json"
    train_kn_sentences(
        [lang.sentence(rng, 12) for _ in range(600)], order=5
    ).save(model_path)

    config = {
        "input": str(corpus_path),
        "work_dir": str(root / "work"),
        "seed": 42,
        "stages": stages or [
            "filter", "dedup_exact", "dedup_near", "lm_score",
            "token_count", "sample", "pack",
        ],
        "heuristics": {"min_words": 20},
        "near_dedup": {"num_perm": 112, "bands": 14, "rows": 8, "threshold": 0.7},
        "lm": {
            "model_path": str(model_path),
            "policy": {"kind": "percentile", "value": 90.0},
        },
        "vocab": {"path": str(vocab_path)},
        "quotas": [
            {"name": "short", "min_tokens": 0, "max_tokens": 40,
             "target_tokens": 1500},
            {"name": "mid", "min_tokens": 40, "max_tokens": 80,
             "target_tokens": 3000},
            {"name": "long", "min_tokens": 80, "max_tokens": None,
             "target_tokens": 3000},
        ],
        "sample": {"mode": "quality", "overshoot": 0.01},
        "pack": {
            "seq_len": 512,
            "split": True,
            "mask": {"scheme": "span", "rate": 0.30},
        },
    }
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return config_path


def workdir_bytes(work_dir: Path) -> dict:
    """Map of relative path -> file bytes for byte-equality comparison."""
    return {
        p.relative_to(work_dir).as_posix(): p.read_bytes()
        for p in sorted(work_dir.rglob("*"))
        if p.is_file()
    }


def crash_after(monkeypatch, cfg, stage: str) -> None:
    """Make the stage that *cfg* runs after *stage* raise as it starts, so
    that run_pipeline fails leaving the work dir of a run stopped right
    after *stage* completed. run_stage looks each stage function up by name
    when it calls it."""
    following = cfg.stages[cfg.stages.index(stage) + 1]

    def fail(*args):
        raise RuntimeError(f"injected failure after stage {stage}")

    monkeypatch.setattr(pipeline, f"stage_{following}", fail)


def tally(stage, docs, verdicts=None, extra=None):
    """(kept, stats, rejects) of one StageStats.tally pass of *stage* over
    *docs* and *verdicts*: the kept documents and the .rejects records that
    run_stage hands to its writers, collected."""
    stats = StageStats(stage, extra=dict(extra or {}))
    kept, rejects = [], []
    for doc, record in stats.tally(docs, verdicts):
        if record is None:
            kept.append(doc)
        else:
            rejects.append(record)
    return kept, stats, rejects
