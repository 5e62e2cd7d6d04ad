"""End-to-end acceptance suite.

Each test checks one headline quantitative claim about the pipeline with an
explicit tolerance and (where stated) a runtime budget, and prints the
measured value so `pytest -v -s` reads as a scorecard.
"""

import math
import shutil
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from corpusprep.config import load_config
from corpusprep.core import Document
from corpusprep.exact_dedup import dedup_exact
from corpusprep.near_dedup import (
    find_duplicate_clusters,
    minhash_signature,
    shingles,
    true_jaccard,
)
from corpusprep.ngram_lm import (
    BOS,
    EOS,
    PerplexityPolicy,
    filter_by_perplexity,
    sentence_tokens,
    train_kn_sentences,
)
from corpusprep.packing import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    MaskConfig,
    apply_masking,
    pack_greedy,
    window_rng,
)
from corpusprep.pipeline import run_pipeline
from corpusprep.sampler import BucketQuota, assign_bucket, sample_to_quota
from corpusprep.subword import SubwordVocab, load_vocab

from kn_probe import map_word, prob
from kn_reference import ReferenceKN
from near_dedup_reference import estimate_jaccard
from pipeline_fixture import build_workspace, crash_after, tally, workdir_bytes
from synthetic import (
    SyntheticLanguage,
    lognormal_token_docs,
    make_basic_vocab,
    make_near_duplicate_corpus,
    shuffle_words,
)


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


class TestNearDedupOracle:
    def test_recall_and_spurious_rate_against_brute_force(self):
        """Clusters found by banded MinHash match a brute-force exact-Jaccard
        oracle: recall >= 0.95 for pairs at true J >= 0.8, and at most 5% of
        co-clustered pairs have true J <= 0.5. Budget: 60 s."""
        t0 = time.monotonic()
        docs, _ = make_near_duplicate_corpus(n_docs=500)
        docs = sorted(docs, key=lambda d: d.id)
        ids = [d.id for d in docs]
        values, sizes = shingles([d.text for d in docs])
        sig = minhash_signature(values, sizes, k=112, perm_seed=1)
        sh = dict(zip(ids, np.split(values, np.cumsum(sizes)[:-1])))

        clusters = find_duplicate_clusters(sig, bands=14, rows=8, threshold=0.7)
        co_clustered = {
            (ids[x], ids[y]) for c in clusters for x, y in combinations(c, 2)
        }

        high, caught, spurious = 0, 0, 0
        for a, b in combinations(sorted(sh), 2):
            j = true_jaccard(sh[a], sh[b])
            if j >= 0.8:
                high += 1
                caught += (a, b) in co_clustered
        for a, b in co_clustered:
            spurious += true_jaccard(sh[a], sh[b]) <= 0.5

        recall = caught / high
        spurious_rate = spurious / max(1, len(co_clustered))
        elapsed = time.monotonic() - t0
        report(
            f"near-dedup oracle: recall={recall:.3f} (>=0.95) on {high} "
            f"high-J pairs, spurious_rate={spurious_rate:.3f} (<=0.05), "
            f"{elapsed:.1f}s (<60s)"
        )
        assert recall >= 0.95
        assert spurious_rate <= 0.05
        assert elapsed < 60.0


class TestMinHashUnbiasedness:
    def test_estimation_error_over_1000_pairs(self):
        """Per-pair |estimate - true J| <= 3/sqrt(112) and mean error <= 0.05
        over 1000 random set pairs. Budget: 30 s."""
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        bound = 3.0 / np.sqrt(112)
        errors = []
        for i in range(1000):
            n = int(rng.integers(50, 500))
            base = rng.integers(0, 2**64, size=2 * n, dtype=np.uint64)
            overlap = int(rng.integers(0, n + 1))
            sa = np.unique(base[:n])
            sb = np.unique(base[n - overlap : 2 * n - overlap])
            sig = minhash_signature(np.concatenate((sa, sb)), [len(sa), len(sb)], k=112,
                                    perm_seed=i)
            est = estimate_jaccard(sig[0], sig[1])
            err = abs(est - true_jaccard(sa, sb))
            assert err <= bound, f"pair {i}: error {err:.4f} > {bound:.4f}"
            errors.append(err)
        mean_err = float(np.mean(errors))
        elapsed = time.monotonic() - t0
        report(
            f"minhash: max|err|={max(errors):.4f} (<= {bound:.4f}), "
            f"mean|err|={mean_err:.4f} (<=0.05), {elapsed:.1f}s (<30s)"
        )
        assert mean_err <= 0.05
        assert elapsed < 30.0


class TestKneserNeyOracle:
    def test_per_token_logprob_matches_reference(self):
        """Per-token log-probabilities agree with an independently written
        Kneser-Ney implementation within 1e-6 relative on a <=10k-token toy
        corpus, and 100 sampled contexts each sum to 1 +/- 1e-9."""
        lang = SyntheticLanguage(n_words=60)
        rng = np.random.default_rng(5)
        train = [lang.sentence(rng, 10) for _ in range(800)]  # 8000 tokens
        held_out = [lang.sentence(rng, 10) for _ in range(50)]

        model = train_kn_sentences(train, order=5)
        ref = ReferenceKN(train, order=5, min_count=2)
        assert model.vocab == ref.vocab

        n_checked = 0
        worst = 0.0
        for sent in held_out:
            words = sentence_tokens(sent)
            ref_lps = ref.logprob_tokens(words)
            ctx = (BOS,) * (model.order - 1)
            mapped = [map_word(model, w) for w in words] + [EOS]
            for w, lp_ref in zip(mapped, ref_lps, strict=True):
                lp = math.log(prob(model, w, ctx))
                worst = max(worst, abs(lp - lp_ref) / abs(lp_ref))
                n_checked += 1
                ctx = (ctx + (w,))[1:]
        assert n_checked <= 10_000
        assert worst <= 1e-6

        ctx_rng = np.random.default_rng(6)
        vocab = model.vocab
        worst_sum = 0.0
        for _ in range(100):
            ctx = tuple(
                vocab[int(i)]
                for i in ctx_rng.integers(0, len(vocab), int(ctx_rng.integers(0, 5)))
            )
            total = sum(prob(model, w, ctx) for w in vocab)
            worst_sum = max(worst_sum, abs(total - 1.0))
        report(
            f"kn oracle: {n_checked} tokens, worst rel err={worst:.2e} "
            f"(<=1e-6); worst |sum-1|={worst_sum:.2e} (<=1e-9) over 100 contexts"
        )
        assert worst_sum <= 1e-9


class TestPerplexitySeparation:
    def test_median_filter_keeps_fluent_documents(self):
        """percentile(50) filtering on 50 fluent + 50 shuffled docs keeps at
        least 45 of the fluent ones."""
        lang = SyntheticLanguage()
        rng = np.random.default_rng(9)
        model = train_kn_sentences(
            [lang.sentence(rng, 12) for _ in range(1000)], order=5
        )
        docs = []
        for i in range(50):
            text = lang.document(rng, 4, 12)
            docs.append(Document(id=f"fluent-{i:03d}", source="s", text=text))
            docs.append(
                Document(
                    id=f"shuffled-{i:03d}",
                    source="s",
                    text=shuffle_words(text.replace("\n", " "), rng),
                )
            )
        verdicts, _ = filter_by_perplexity(
            docs, model, PerplexityPolicy(kind="percentile", value=50.0)
        )
        kept, *_ = tally("lm_score", docs, verdicts)
        fluent_kept = sum(1 for d in kept if d.id.startswith("fluent-"))
        report(f"perplexity separation: {fluent_kept}/50 fluent kept (>=45)")
        assert fluent_kept >= 45


class TestQuotaAccuracy:
    def test_megatoken_targets_within_two_percent(self):
        """Realized per-bucket token sums land within +/-2% of 1.0M/1.0M/0.5M
        targets given at least 1.1x supply. Budget: 60 s."""
        t0 = time.monotonic()
        quotas = [
            BucketQuota("short", 0, 1024, 1_000_000),
            BucketQuota("mid", 1024, 4096, 1_000_000),
            BucketQuota("long", 4096, None, 500_000),
        ]
        rng = np.random.default_rng(17)
        lengths = {"short": (64, 1024), "mid": (1024, 4096), "long": (4096, 12000)}
        docs = []
        supply = Counter()
        for q in quotas:
            lo, hi = lengths[q.name]
            while supply[q.name] < 1.15 * q.target_tokens:
                tc = int(rng.integers(lo, hi))
                doc = Document(
                    id=f"{q.name}-{len(docs):06d}", source="s", text="x"
                )
                doc.token_count = tc
                assert assign_bucket(tc, quotas) == q.name
                docs.append(doc)
                supply[q.name] += tc
        order = rng.permutation(len(docs))
        docs = [docs[int(i)] for i in order]

        kept, stats, _ = tally(
            "sample", docs, *sample_to_quota(docs, quotas, seed=3, mode="uniform")
        )
        realized = Counter()
        for d in kept:
            realized[assign_bucket(d.token_count, quotas)] += d.token_count
        elapsed = time.monotonic() - t0
        for q in quotas:
            rel = realized[q.name] / q.target_tokens - 1.0
            report(
                f"quota {q.name}: target={q.target_tokens} "
                f"realized={realized[q.name]} ({rel:+.3%}, |.|<=2%)"
            )
            assert abs(rel) <= 0.02, q.name
        report(f"quota sampling: {elapsed:.1f}s (<60s)")
        assert elapsed < 60.0


@pytest.fixture(scope="module")
def packing_vocab() -> SubwordVocab:
    from corpusprep.subword import SPECIAL_TOKENS, unescape_token

    tokens = make_basic_vocab()
    pieces = [unescape_token(t) for t in tokens]
    specials = {t: i for i, t in enumerate(SPECIAL_TOKENS)}
    return SubwordVocab(pieces=pieces, specials=specials)


class TestPackingEfficiency:
    @pytest.mark.parametrize("seq_len", [512, 1024, 8192])
    def test_efficiency_and_conservation(self, packing_vocab, seq_len):
        """Greedy packing with splitting wastes <1% of positions on a 10k-doc
        log-normal corpus, and the packed token multiset equals the input
        multiset exactly (plus one bos/eos per document)."""
        vocab = packing_vocab
        docs = lognormal_token_docs(10_000, vocab.size, vocab.special_ids)
        windows, efficiency = pack_greedy(
            iter(docs),
            seq_len,
            bos_id=vocab.bos_id,
            eos_id=vocab.eos_id,
            pad_id=vocab.pad_id,
        )
        report(f"packing seq_len={seq_len}: efficiency={efficiency:.5f} (>0.99)")
        assert efficiency > 0.99

        packed = Counter()
        for w in windows:
            packed.update(w.tokens.tolist())
        packed.pop(vocab.pad_id, None)
        assert packed.pop(vocab.bos_id) == len(docs)
        assert packed.pop(vocab.eos_id) == len(docs)
        original = Counter()
        for _, ids in docs:
            original.update(ids)
        assert packed == original


class TestMaskingRates:
    @pytest.mark.parametrize("rate", [0.30, 0.20, 0.15])
    def test_empirical_rate_actions_and_special_exclusion(
        self, packing_vocab, rate
    ):
        """Across >=1e6 maskable tokens the masked fraction is within
        +/-0.005 of the configured rate, actions split 0.80/0.10/0.10 within
        +/-0.01, and no pad/special position is ever masked."""
        vocab = packing_vocab
        docs = lognormal_token_docs(
            3_000, vocab.size, vocab.special_ids, seed=int(rate * 100)
        )
        windows, _ = pack_greedy(
            iter(docs),
            512,
            bos_id=vocab.bos_id,
            eos_id=vocab.eos_id,
            pad_id=vocab.pad_id,
        )
        cfg = MaskConfig(scheme="span", rate=rate)
        maskable = masked = 0
        actions = Counter()
        for i, w in enumerate(windows):
            _, plan = apply_masking(
                w,
                cfg,
                mask_id=vocab.mask_id,
                special_ids=vocab.special_ids,
                vocab_size=vocab.size,
                rng=window_rng(0, i),
            )
            for s, e, _ in w.boundaries:
                maskable += sum(
                    1
                    for t in w.tokens[s:e].tolist()
                    if t not in vocab.special_ids
                )
            masked += len(plan.positions)
            actions.update(plan.actions)
            in_bounds = set()
            for s, e, _ in w.boundaries:
                in_bounds.update(range(s, e))
            for pos, orig in zip(plan.positions, plan.originals):
                assert pos in in_bounds  # never a pad position
                assert orig not in vocab.special_ids
        assert maskable >= 1_000_000
        empirical = masked / maskable
        splits = {a: actions[a] / masked for a in (ACTION_MASK, ACTION_RANDOM,
                                                   ACTION_KEEP)}
        report(
            f"masking rate={rate}: empirical={empirical:.4f} (+/-0.005), "
            f"actions={splits[ACTION_MASK]:.3f}/{splits[ACTION_RANDOM]:.3f}/"
            f"{splits[ACTION_KEEP]:.3f} over {maskable} tokens"
        )
        assert abs(empirical - rate) <= 0.005
        assert abs(splits[ACTION_MASK] - 0.80) <= 0.01
        assert abs(splits[ACTION_RANDOM] - 0.10) <= 0.01
        assert abs(splits[ACTION_KEEP] - 0.10) <= 0.01


@pytest.fixture(scope="module")
def big_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_10k")
    return load_config(build_workspace(root, n_docs=10_000))


class TestDeterminism:
    def test_rerun_and_resume_byte_identical(self, big_fixture, monkeypatch):
        """Two full runs on a 10k-doc corpus with the same config and seed
        produce byte-identical work dirs; resume-after-failure equals the
        uninterrupted run byte-wise."""
        from corpusprep.pipeline import StageFailure

        cfg = big_fixture
        work = Path(cfg.work_dir)

        run_pipeline(cfg)
        first = workdir_bytes(work)

        shutil.rmtree(work)
        run_pipeline(cfg)
        assert workdir_bytes(work) == first

        shutil.rmtree(work)
        with monkeypatch.context() as m, pytest.raises(StageFailure, match="injected"):
            crash_after(m, cfg, "lm_score")
            run_pipeline(cfg)
        run_pipeline(cfg, resume=True)
        assert workdir_bytes(work) == first
        report(
            f"determinism: {len(first)} files byte-identical across rerun "
            "and resume-after-failure"
        )


class TestExactDedup:
    def test_planted_duplicates_removed_without_false_positives(self):
        """Every planted exact text/URL duplicate is removed, no distinct
        document is removed, and a second pass removes nothing."""
        lang = SyntheticLanguage()
        rng = np.random.default_rng(23)
        docs, planted = [], set()
        for i in range(400):
            text = lang.document(rng, 3, 12)
            url = f"https://ex.lv/a{i}"
            docs.append(Document(id=f"d-{i:04d}", source="s", text=text, url=url))
            if i % 4 == 0:  # same text, different id/url
                dup = f"d-{i:04d}-text-dup"
                docs.append(
                    Document(id=dup, source="s", text=text, url=f"https://ex.lv/b{i}")
                )
                planted.add(dup)
            if i % 4 == 1:  # same canonical URL, different text
                dup = f"d-{i:04d}-url-dup"
                docs.append(
                    Document(
                        id=dup,
                        source="s",
                        text=lang.document(rng, 3, 12),
                        url=f"HTTP://EX.lv/a{i}/?utm=1",
                    )
                )
                planted.add(dup)
        kept, *_ = tally("dedup_exact", docs, dedup_exact(docs))
        kept_ids = {d.id for d in kept}
        removed = {d.id for d in docs} - kept_ids
        assert removed == planted  # 100% removed, zero false removals
        again, stats, _ = tally("dedup_exact", kept, dedup_exact(kept))
        assert [d.id for d in again] == [d.id for d in kept]
        assert stats.rejected_docs == 0
        report(
            f"exact dedup: {len(planted)}/{len(planted)} planted duplicates "
            f"removed, 0 false removals, idempotent"
        )


class TestReportConservation:
    def test_zero_tolerance_reconciliation(self, big_fixture, tmp_path):
        """Per-source word totals reconcile exactly with stage rejections on
        both the 10k-doc fixture and a small independent one."""
        big = run_pipeline(big_fixture, resume=True)
        big.check_conservation()
        small_cfg = load_config(build_workspace(tmp_path, n_docs=300, seed=4))
        small = run_pipeline(small_cfg)
        small.check_conservation()
        for rep in (big, small):
            first, last = rep.stages[0], rep.stages[-1]
            assert first.words_in == sum(
                s.words_in for s in first.per_source.values()
            )
            assert last.words_out == sum(
                s.words_out for s in last.per_source.values()
            )
        report("report conservation: exact integer reconciliation on 2 fixtures")
