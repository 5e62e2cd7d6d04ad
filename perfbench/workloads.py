"""Seeded input generators for the benchmark workloads.

Each generator writes one input directory: ``corpus.jsonl``, ``vocab.txt``,
``model.json`` (when the workload scores with the LM), ``config.yaml`` and
``truth.json``. The pipeline sees everything except ``truth.json``, which
holds what the generator planted so that the output checks have an oracle.
Config paths are relative to the input directory, so ``report.json`` and
every other output are byte-comparable between two checkouts.

Text comes from a fixed Markov "language" over diacritic-bearing words; the
workload seed only drives which sentences and documents are drawn. The
language, the text and the JSONL bytes are produced here with the standard
library alone, so two versions of the program are measured on identical
inputs. Only the LM is trained with the program's own trainer, because its
file format belongs to the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import yaml

SYLLABLES = [
    "ra", "mi", "lo", "tā", "šu", "ne", "pil", "sē", "ta", "vēr",
    "zi", "ko", "lī", "dz", "ga", "ru", "die", "nā", "ce", "ļš",
    "me", "ža", "upe", "kal", "ns", "grā", "ma", "tu", "la", "sī",
]
SPECIAL_TOKENS = ("<unk>", "<pad>", "<mask>", "<s>", "</s>")
SENTENCE_LEN = 12
LM_SENTENCES = 20_000
LM_ORDER = 5

# Sizes are chosen so that one pipeline run takes a few seconds on a
# 2-core x86 box, leaving room for several repeats per measured run.
SIZES = {
    "mixed": {"n_docs": 2500},
    "templated_neardup": {"n_templates": 3, "pages_per_template": 300},
    "long_pack": {"min_words": 900_000, "seq_len": 8192},
}
TINY_SIZES = {
    "mixed": {"n_docs": 300},
    "templated_neardup": {"n_templates": 3, "pages_per_template": 12},
    "long_pack": {"min_words": 30_000, "seq_len": 256},
}

NAV_LINES = ("sākums | jaunumi | kontakti", "© visas tiesības aizsargātas")


class Language:
    """Markov chain over a fixed word list with sparse transitions."""

    def __init__(self, n_words: int = 400, branching: int = 4):
        rng = random.Random(7)
        self.words: list[str] = []
        seen = set()
        while len(self.words) < n_words:
            w = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
            if w not in seen:
                seen.add(w)
                self.words.append(w)
        self.successors = {
            w: [rng.choice(self.words) for _ in range(branching)] for w in self.words
        }

    def sentence(self, rng: random.Random, length: int = SENTENCE_LEN) -> str:
        w = rng.choice(self.words)
        out = [w]
        for _ in range(length - 1):
            w = rng.choice(self.successors[w])
            out.append(w)
        return " ".join(out)

    def document(self, rng: random.Random, n_sentences: int) -> str:
        return "\n".join(self.sentence(rng) for _ in range(n_sentences))


def _doc(doc_id: str, source: str, text: str, url=None) -> dict:
    return {"id": doc_id, "source": source, "url": url, "text": text, "meta": {}}


def _write_jsonl(path: Path, docs: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in docs:
            fh.write(json.dumps(d, ensure_ascii=False, separators=(", ", ": ")))
            fh.write("\n")


def _escape_byte(b: int) -> str:
    return chr(b) if 0x21 <= b <= 0x7E and b != 0x5C else f"\\x{b:02x}"


def _write_vocab(path: Path, words: list) -> None:
    """Byte-fallback vocabulary: specials, every byte as a word-initial and
    a continuation piece, then one whole-word entry per language word, so a
    word of the language is exactly one token."""
    lines = list(SPECIAL_TOKENS)
    lines += [_escape_byte(b) for b in range(256)]
    lines += ["##" + _escape_byte(b) for b in range(256)]
    lines += sorted(words)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _train_lm(path: Path, lang: Language, rng: random.Random) -> None:
    from corpusprep.ngram_lm import train_kn_sentences

    sentences = [lang.sentence(rng) for _ in range(LM_SENTENCES)]
    train_kn_sentences(sentences, order=LM_ORDER).save(path)


def _replace_one_word(text: str, rng: random.Random, lang: Language) -> str:
    words = text.split(" ")
    i = rng.randrange(len(words))
    lines = words[i].split("\n")  # keep a line break glued to its word
    j = rng.randrange(len(lines))
    lines[j] = rng.choice([w for w in lang.words if w != lines[j]])
    words[i] = "\n".join(lines)
    return " ".join(words)


def _mixed(rng: random.Random, lang: Language, n_docs: int):
    """Two sources with planted exact, URL and near duplicates, shuffled
    noise, short, digit-heavy and boilerplate-padded documents."""
    docs: list = []
    exact_groups: list = []
    url_groups: list = []

    def add(text, source, url=None):
        doc_id = f"{source}-{len(docs):06d}"
        docs.append(_doc(doc_id, source, text, url))
        return doc_id

    i = 0
    while len(docs) < n_docs:
        source = "web" if i % 3 else "news"
        text = lang.document(rng, rng.randint(2, 8))
        kind = i % 10
        if kind == 0:
            exact_groups.append([add(text, source), add(text, source)])
        elif kind == 1:
            url_groups.append(
                [
                    add(text, source, url=f"http://ex.lv/page{i}?utm=1"),
                    add(lang.document(rng, 4), source, url=f"https://EX.lv/page{i}/"),
                ]
            )
        elif kind == 2:
            add(text, source)
            add(_replace_one_word(text, rng, lang), source)
        elif kind == 3:
            words = text.split()
            rng.shuffle(words)
            add(" ".join(words), source)
        elif kind == 4:
            add(lang.sentence(rng, 5), source)
        elif kind == 5:
            add(" ".join(str(rng.randrange(10**6)) for _ in range(30)), source)
        elif kind == 6:
            add("\n".join([NAV_LINES[0], text, NAV_LINES[1], NAV_LINES[0]]), source)
        else:
            add(text, source, url=f"https://{source}.lv/{i}")
        i += 1
    docs = docs[:n_docs]
    kept = {d["id"] for d in docs}
    truth = {
        "exact_groups": [g for g in exact_groups + url_groups if set(g) <= kept],
    }
    config = {
        "stages": [
            "filter", "dedup_exact", "dedup_near", "lm_score",
            "token_count", "sample", "pack",
        ],
        "heuristics": {"min_words": 20},
        "lm": {"policy": {"kind": "percentile", "value": 90.0}},
        "quotas": [
            {"name": "short", "min_tokens": 0, "max_tokens": 40,
             "target_tokens": n_docs * 5},
            {"name": "mid", "min_tokens": 40, "max_tokens": 80,
             "target_tokens": n_docs * 10},
            {"name": "long", "min_tokens": 80, "max_tokens": None,
             "target_tokens": n_docs * 10},
        ],
        "pack": {"seq_len": 512, "mask": {"scheme": "span", "rate": 0.30}},
    }
    return docs, truth, config


def _templated(rng, lang, n_templates: int, pages_per_template: int):
    """Pages cut from a few ~100-word templates, each page with one word
    changed and its own URL, in shuffled order."""
    pages = []
    for t in range(n_templates):
        template = lang.sentence(rng, 4) + "\n" + lang.document(rng, 8)
        seen = {template}
        while len(seen) <= pages_per_template:
            page = _replace_one_word(template, rng, lang)
            if page not in seen:
                seen.add(page)
                pages.append((t, page))
    rng.shuffle(pages)
    docs = []
    templates = {}
    for k, (t, text) in enumerate(pages):
        source = "web" if t % 2 else "news"
        doc_id = f"tpl-{k:06d}"
        docs.append(_doc(doc_id, source, text, url=f"https://site{t}.lv/raksts/{k}"))
        templates[doc_id] = t
    truth = {"templates": templates}
    config = {
        "stages": [
            "filter", "dedup_exact", "dedup_near", "lm_score",
            "token_count", "sample", "pack",
        ],
        "heuristics": {"min_words": 20},
        "lm": {"policy": {"kind": "percentile", "value": 90.0}},
        "quotas": [
            {"name": "all", "min_tokens": 0, "max_tokens": None,
             "target_tokens": 50 * n_templates},
        ],
        "pack": {"seq_len": 512, "mask": {"scheme": "span", "rate": 0.30}},
    }
    return docs, truth, config


def _long_pack(rng, lang, min_words: int, seq_len: int):
    """Long fluent documents (20-200 sentences) packed into *seq_len*-token
    windows; quotas take about 95% of each length bucket's tokens, which
    fills at least 100 windows, so packing efficiency exceeds 0.99."""
    bounds = [("short", 0, 600), ("mid", 600, 1800), ("long", 1800, None)]
    supply = {name: 0 for name, _, _ in bounds}
    docs = []
    total = 0
    while total < min_words:
        n_sentences = rng.randint(20, 200)
        n = n_sentences * SENTENCE_LEN
        docs.append(_doc(f"long-{len(docs):06d}", "books", lang.document(rng, n_sentences)))
        # every word of the language is one vocabulary token
        for name, lo, hi in bounds:
            if n >= lo and (hi is None or n < hi):
                supply[name] += n
        total += n
    config = {
        "stages": ["token_count", "sample", "pack"],
        "quotas": [
            {"name": name, "min_tokens": lo, "max_tokens": hi,
             "target_tokens": max(1, supply[name] * 95 // 100)}
            for name, lo, hi in bounds
        ],
        "pack": {"seq_len": seq_len, "mask": {"scheme": "span", "rate": 0.30}},
    }
    return docs, {}, config


GENERATORS = {
    "mixed": _mixed,
    "templated_neardup": _templated,
    "long_pack": _long_pack,
}


def generate(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> None:
    """Write the inputs of *workload* for *seed* into *out_dir*."""
    sizes = (TINY_SIZES if tiny else SIZES)[workload]
    lang = Language()
    rng = random.Random(f"{workload}:{seed}")
    docs, truth, config = GENERATORS[workload](rng, lang, **sizes)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out_dir / "corpus.jsonl", docs)
    _write_vocab(out_dir / "vocab.txt", lang.words)
    config.update(
        {"input": "corpus.jsonl", "work_dir": "work", "seed": seed,
         "vocab": {"path": "vocab.txt"}}
    )
    if "lm_score" in config["stages"]:
        _train_lm(out_dir / "model.json", lang, random.Random(f"lm:{seed}"))
        config["lm"]["model_path"] = "model.json"
    (out_dir / "config.yaml").write_text(
        yaml.safe_dump(config, sort_keys=True, allow_unicode=True), encoding="utf-8"
    )
    (out_dir / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")
