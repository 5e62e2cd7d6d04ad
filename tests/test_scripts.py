"""Smoke tests of the programs in scripts/, each run as a subprocess at a
small size."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corpusprep.core import Document
from corpusprep.ngram_lm import KneserNeyModel, perplexities, train_kn_sentences
from kn_reference import ReferenceKN

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, returncode=0):
    """The stdout of scripts/*name* run with *args*, after checking its exit
    status; the stderr when that status is not 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc.stderr if returncode else proc.stdout


def test_lsh_recall_curve_tracks_banding_formula():
    out = run_script("lsh_recall_curve.py", "--trials", 200)
    header = out.splitlines().index(f"{'jaccard':>8}  {'empirical':>9}  {'theory':>7}")
    rows = [line.split() for line in out.splitlines()[header + 1 :]]
    assert len(rows) == 15
    for s, empirical, theory in rows:
        assert abs(float(empirical) - float(theory)) <= 0.15, (s, empirical, theory)
        assert abs(float(theory) - (1 - (1 - float(s) ** 8) ** 14)) < 1e-3


@pytest.mark.parametrize("args, error", [
    (["--bands", 0], "argument --bands: 0 < 1"),
    (["--rows", -1], "argument --rows: -1 < 1"),
    (["--trials", 0], "argument --trials: 0 < 1"),
    (["--bands", 7], "--bands * --rows is 56, not --num-perm 112"),
])
def test_lsh_recall_curve_refuses_inconsistent_banding(args, error):
    err = run_script("lsh_recall_curve.py", *args, returncode=2)
    assert [line for line in err.splitlines() if "error" in line] == [
        f"lsh_recall_curve.py: error: {error}"]


def test_run_demo_reruns_byte_identical(tmp_path):
    out = tmp_path / "demo"

    def snapshot():
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    first_stdout = run_script("run_demo.py", "--out", out, "--n-docs", 200)
    first = snapshot()
    assert "work/packed.bin" in first
    second_stdout = run_script("run_demo.py", "--out", out, "--n-docs", 200)
    assert snapshot() == first
    assert second_stdout == first_stdout


def test_packing_efficiency_runs():
    out = run_script("packing_efficiency.py", "--n-docs", 200, "--seq-lens", 512, 1024)
    assert "efficiency" in out


@pytest.mark.parametrize("seq_len", [1, 65536])
def test_packing_efficiency_refuses_seq_len_outside_u16(seq_len):
    err = run_script("packing_efficiency.py", "--n-docs", 10, "--seq-lens", seq_len,
                     returncode=2)
    assert f"argument --seq-lens: {seq_len} outside 2..65535" in err


def test_convert_kn_v1_scores_as_the_trained_model(tmp_path, lang):
    rng = np.random.default_rng(5)
    sentences = [lang.sentence(rng, 10) for _ in range(150)]
    trained = train_kn_sentences(sentences, order=4)
    ref = ReferenceKN(sentences, order=4)  # the grams, counted apart from the model
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({
        "format": "kn-ngram-v1", "order": 4, "min_count": 2, "vocab": ref.vocab,
        "discounts": {str(o): d for o, d in trained.discounts.items()},
        "counts": sorted([" ".join(g), c] for g, c in ref.counts[4].items()),
    }, ensure_ascii=False), encoding="utf-8")
    v2 = tmp_path / "model.json"
    run_script("convert_kn_v1.py", v1, v2)
    converted = KneserNeyModel.load(v2)
    held_out = [lang.sentence(rng, 10) for _ in range(20)] + ["zz " + sentences[0]]
    docs = [Document(id=str(i), source="s", text=s) for i, s in enumerate(sentences + held_out)]
    assert perplexities(converted, docs) == perplexities(trained, docs)
    trained.save(tmp_path / "trained.json")
    assert v2.read_bytes() == (tmp_path / "trained.json").read_bytes()


@pytest.mark.parametrize("counts, error", [
    ([["<s> a", 1], ["a", 1]], "gram 'a' has 1 words, order is 2"),
    ([["<s> a", 1], ["a b", 1]], "word 'b' is not in the vocab"),
    ([["<s> a", 1], ["a </s>", 1.5]], "gram 'a </s>' has count 1.5"),
    ([["<s> a", 1], ["a </s>", 0]], "gram 'a </s>' has count 0"),
    ([["<s> a", 1], ["a </s>", 2**63]], "OverflowError"),
    ([["<s> a", 1], ["<s> a", 2]], "gram '<s> a' is listed twice"),
])
def test_convert_kn_v1_refuses_bad_grams_with_one_line(tmp_path, counts, error):
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({
        "format": "kn-ngram-v1", "order": 2, "min_count": 1,
        "vocab": ["<unk>", "<s>", "</s>", "a"], "discounts": {"1": 0.5, "2": 0.5},
        "counts": counts,
    }), encoding="utf-8")
    err = run_script("convert_kn_v1.py", v1, tmp_path / "model.json", returncode=1)
    assert error in err and err.count("\n") == 1
    assert not (tmp_path / "model.json").exists()
