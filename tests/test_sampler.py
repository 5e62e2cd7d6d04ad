import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpusprep.core import Document
from corpusprep.ngram_lm import PPL_META_KEY
from corpusprep.sampler import (
    BucketQuota,
    assign_bucket,
    sample_to_quota,
    validate_quotas,
)

from pipeline_fixture import tally


def quotas(short=500_000, mid=1_000_000, long=1_000_000):
    return [
        BucketQuota("short", 0, 1024, short),
        BucketQuota("mid", 1024, 4096, mid),
        BucketQuota("long", 4096, None, long),
    ]


def doc(i, tokens, ppl=None):
    d = Document(id=f"d{i:06d}", source="s", text="x")
    d.token_count = tokens
    if ppl is not None:
        d.meta[PPL_META_KEY] = f"{ppl:.8e}"
    return d


def sample(docs, q, **kwargs):
    """(kept, stats) of sample_to_quota over *docs*, counted as
    pipeline.run_stage counts the sample stage."""
    return tally("sample", docs, *sample_to_quota(docs, q, **kwargs))[:2]


class TestAssignBucket:
    def test_boundaries(self):
        q = quotas()
        assert assign_bucket(4096, q) == "long"
        assert assign_bucket(1024, q) == "mid"
        assert assign_bucket(1023, q) == "short"
        assert assign_bucket(0, q) == "short"

    def test_validation_catches_gaps_and_overlaps(self):
        bad = [
            BucketQuota("a", 0, 1000, 10),
            BucketQuota("b", 1100, None, 10),
        ]
        assert any("gap" in e for e in validate_quotas(bad))
        bad2 = [BucketQuota("a", 0, 1000, 10), BucketQuota("b", 500, None, 10)]
        assert validate_quotas(bad2)
        assert validate_quotas(quotas()) == []

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)], ids=["a_b_c", "a_c_b"])
    def test_empty_interval_rejected_in_any_order(self, order):
        """assign_bucket never returns an empty bucket, so its target could
        never be met: refused alone, wherever it is listed."""
        buckets = [
            BucketQuota("a", 0, 10, 5),
            BucketQuota("b", 10, 10, 5),
            BucketQuota("c", 10, None, 5),
        ]
        listed = [buckets[i] for i in order]
        assert validate_quotas(listed) == [
            f"quotas[{order.index(1)}]: empty interval [10, 10)"
        ]


class TestSampleToQuota:
    def _synthetic_supply(self, seed=0, n=6000):
        rng = np.random.default_rng(seed)
        docs = []
        for i in range(n):
            bucket = i % 3
            if bucket == 0:
                t = int(rng.integers(50, 1024))
            elif bucket == 1:
                t = int(rng.integers(1024, 4096))
            else:
                t = int(rng.integers(4096, 16384))
            docs.append(doc(i, t, ppl=float(rng.uniform(10, 1000))))
        return docs

    def test_realized_within_two_percent(self):
        q = quotas()
        docs = self._synthetic_supply()
        supply = {b.name: 0 for b in q}
        for d in docs:
            supply[assign_bucket(d.token_count, q)] += d.token_count
        for b in q:
            assert supply[b.name] >= 1.1 * b.target_tokens  # test premise
        kept, stats = sample(docs, q, seed=1)
        for b in q:
            realized = stats.extra[f"bucket_{b.name}_realized"]
            assert abs(realized - b.target_tokens) <= 0.02 * b.target_tokens

    def test_empty_bucket_warns(self):
        q = quotas()
        docs = [doc(i, 100) for i in range(3)]  # nothing in mid/long
        kept, stats = sample(docs, q)
        assert any("mid" in w for w in stats.extra.get("warnings", []))
        assert stats.extra["bucket_long_realized"] == 0

    def test_target_beyond_supply_takes_everything(self):
        q = [BucketQuota("all", 0, None, 10_000_000)]
        docs = [doc(i, 100) for i in range(10)]
        kept, stats = sample(docs, q)
        assert len(kept) == 10
        assert stats.extra["bucket_all_realized"] == 1000

    def test_quality_order_prefers_low_perplexity(self):
        q = [BucketQuota("all", 0, None, 300)]
        docs = [doc(1, 100, ppl=500.0), doc(2, 100, ppl=5.0), doc(3, 100, ppl=50.0),
                doc(4, 100, ppl=999.0)]
        kept, _ = sample(docs, q)
        assert {d.id for d in kept} == {"d000001", "d000002", "d000003"}

    def test_no_duplicates_and_bucket_membership(self):
        q = quotas(short=5000, mid=5000, long=5000)
        docs = self._synthetic_supply(n=300)
        kept, _ = sample(docs, q, seed=2)
        ids = [d.id for d in kept]
        assert len(ids) == len(set(ids))
        for d in kept:
            b = assign_bucket(d.token_count, q)
            quota = {x.name: x for x in q}[b]
            assert quota.min_tokens <= d.token_count
            assert quota.max_tokens is None or d.token_count < quota.max_tokens

    def test_deterministic_both_modes(self):
        docs = self._synthetic_supply(n=500)
        q = quotas(short=20_000, mid=40_000, long=40_000)
        for mode in ("quality", "uniform"):
            a, _ = sample(list(docs), q, seed=9, mode=mode)
            b, _ = sample(list(docs), q, seed=9, mode=mode)
            assert [d.id for d in a] == [d.id for d in b]

    def test_missing_token_count_rejected(self):
        d = Document(id="x", source="s", text="x")
        with pytest.raises(ValueError):
            sample_to_quota([d], quotas())

    @pytest.mark.parametrize("value", ["abc", "nan", "NaN"])
    def test_perplexity_not_a_number_rejected_naming_the_document(self, value):
        docs = [doc(0, 100, ppl=5.0), doc(1, 100)]
        docs[1].meta[PPL_META_KEY] = value
        with pytest.raises(ValueError) as exc:
            sample_to_quota(docs, [BucketQuota("all", 0, None, 150)])
        assert str(exc.value) == (
            f"document 'd000001' has meta.perplexity {value!r}, not a number")

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_quota_accuracy_property(self, seed):
        rng = np.random.default_rng(seed)
        target = 50_000
        q = [BucketQuota("all", 0, None, target)]
        docs = []
        total = 0
        i = 0
        while total < int(1.1 * target) + 2000:
            t = int(rng.integers(20, 2000))
            docs.append(doc(i, t, ppl=float(rng.uniform(1, 100))))
            total += t
            i += 1
        _, stats = sample(docs, q, seed=seed)
        realized = stats.extra["bucket_all_realized"]
        assert abs(realized - target) <= 0.02 * target

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6000)),
                 min_size=1, max_size=30),
        st.sampled_from(["quality", "uniform"]),
    )
    def test_realized_is_tokens_kept_when_ids_repeat(self, picks, mode):
        q = quotas(short=1500, mid=3000, long=6000)
        docs = [doc(i, tokens) for i, tokens in picks]  # four ids, repeated
        verdicts, extra = sample_to_quota(docs, q, mode=mode)
        for b in q:
            kept = sum(
                d.token_count
                for d, v in zip(docs, verdicts)
                if v is None and assign_bucket(d.token_count, q) == b.name
            )
            assert extra[f"bucket_{b.name}_realized"] == kept, b.name
