import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corpusprep import core, near_dedup
from corpusprep.core import Document
from corpusprep.near_dedup import (
    NearDupConfig,
    UnionFind,
    dedup_near,
    find_duplicate_clusters,
    minhash_signature,
    shingles,
    true_jaccard,
)

from near_dedup_reference import (
    candidate_pairs,
    estimate_jaccard,
    reference_clusters,
    reference_shingles,
    reference_signature,
    verified_pairs,
)
from pipeline_fixture import tally

K = 112
SEED = 1


def shingle_set(hashes):
    return np.unique(np.array(list(hashes), dtype=np.uint64))


def sign(sets, k=K, seed=SEED):
    """The MinHash matrix of a list of uint64 arrays, one row each."""
    values = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
    return minhash_signature(values, [len(s) for s in sets], k, seed)


def sig_of_hashes(hashes, k=K, seed=SEED):
    return sign([shingle_set(hashes)], k, seed)[0]


def shingles_of(text, n=5):
    """The shingles of one text."""
    values, sizes = shingles([text], n)
    assert sizes.tolist() == [len(values)]
    return values


def split_sets(values, sizes):
    return np.split(values, np.cumsum(sizes)[:-1]) if len(sizes) else []


# separators str.split() breaks on, beyond the ASCII ones
UNICODE_SPACES = [" ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u1680", "\u2003",
                  "\u2028", "\u2029", "\u202f", "\u3000"]
CASE_VARIANTS = ["Rīga", "RĪGA", "rīga", "ŠĶĒRSLIS", "šķērslis", "Straße", "STRASSE",
                 "İstanbul", "İ", "ΣΟΦΙΑ", "σοφια"]


@st.composite
def texts(draw):
    """Texts of a few words, often repeated or case variants of each other,
    joined by runs of Unicode whitespace."""
    word = st.one_of(st.sampled_from(CASE_VARIANTS), st.text(min_size=1, max_size=6))
    words = draw(st.lists(word, max_size=12))
    seps = draw(st.lists(st.text(st.sampled_from(UNICODE_SPACES), min_size=1, max_size=3),
                         min_size=len(words) + 1, max_size=len(words) + 1))
    return seps[0] + "".join(w + sep for w, sep in zip(words, seps[1:]))


class TestShingles:
    def test_window_count(self):
        s = shingles_of("a b c d e f", 5)
        assert len(s) == 2

    def test_short_text_single_shingle(self):
        assert len(shingles_of("tikai trīs vārdi", 5)) == 1
        assert len(shingles_of("", 5)) == 1

    def test_determinism_and_case(self):
        assert np.array_equal(shingles_of("A B C D E F"), shingles_of("a b c d e f"))

    @settings(deadline=None, max_examples=300)
    @given(text=st.one_of(texts(), st.text()), n=st.integers(1, 6))
    @example(text="", n=5)
    @example(text="viens", n=5)
    @example(text="viens divi trīs četri", n=5)
    @example(text="viens divi trīs četri pieci", n=5)
    @example(text="Viens VIENS viens\u3000viens\xa0vIeNs viens", n=3)
    def test_equals_reference(self, text, n):
        s = shingles_of(text, n)
        assert s.dtype == np.uint64
        assert s.tolist() == reference_shingles(text, n)

    @settings(deadline=None, max_examples=200)
    @given(
        text=st.lists(st.sampled_from(["Σ", "σ", "ς", "İ", "i\u0307", "ΑΣ", "ὈΔΥΣΣΕΎΣ", "Ā", "ā",
                                       "Vārds", "\u0301", "'", ".", " ", "\x85", "\xa0",
                                       "\u2028", "\n"]), max_size=30).map("".join),
        n=st.integers(1, 3),
    )
    @example(text="ΑΣ\x85ΑΣ\xa0ΑΣ.\x85Σ İΣ\u0301 x", n=1)
    def test_each_word_lowercased_alone_equals_reference(self, text, n):
        """shingles lowercases each word on its own, the reference the
        whole text: they agree on final sigma, on dotted capital I and
        around U+0085 and U+00A0."""
        assert shingles_of(text, n).tolist() == reference_shingles(text, n)

    def test_str_rejected(self):
        # a str is a sequence too, of one-character texts
        with pytest.raises(TypeError):
            shingles("a b c d e f", 5)

    @settings(deadline=None, max_examples=200)
    @given(
        corpus=st.lists(st.one_of(texts(), st.sampled_from(["", "viens", "a b a b a b a b"])),
                        max_size=8),
        n=st.integers(1, 6),
        chunk=st.sampled_from([None, 1, 2, 3, 5]),
    )
    @example(corpus=[], n=5, chunk=None)
    @example(corpus=["", "", ""], n=1, chunk=None)
    @example(corpus=["", "viens divi", "\x1cİ\x85İ\xa0 İ\u3000İ", "a b a b a b a b", ""],
             n=2, chunk=None)
    def test_corpus_equals_reference_per_text(self, corpus, n, chunk):
        # small chunks put chunk boundaries between every few texts
        with mock.patch.object(near_dedup, "SHINGLE_CHUNK", chunk or near_dedup.SHINGLE_CHUNK):
            values, sizes = shingles(corpus, n)
        assert values.dtype == np.uint64 and sizes.dtype == np.int64
        assert len(sizes) == len(corpus) and sizes.sum() == len(values)
        for s, text in zip(split_sets(values, sizes), corpus):
            assert s.tolist() == reference_shingles(text, n)

    def test_memo_stores_long_words_within_memo_long_chars(self, monkeypatch):
        """Within one call, a word of MEMO_WORD_CHARS characters is hashed
        once, and so is a longer one while the long words stored hold at
        most MEMO_LONG_CHARS characters; another is hashed at each
        occurrence. No hash outlives the call."""
        hashed, word_hash = [], near_dedup._word_hash
        monkeypatch.setattr(near_dedup, "_word_hash",
                            lambda word: hashed.append(word) or word_hash(word))
        n = core.MEMO_WORD_CHARS
        monkeypatch.setattr(core, "MEMO_LONG_CHARS", n + 1)
        short, stored, longer = "ī" * n, "ī" * (n + 1), "ā" * (n + 1)
        text = " ".join([short, stored, longer] * 3)
        for _ in range(2):
            assert shingles_of(text, 2).tolist() == reference_shingles(text, 2)
        assert sorted(hashed) == sorted([short] * 2 + [stored] * 2 + [longer] * 6)

    @settings(deadline=None, max_examples=200)
    @given(
        corpus=st.lists(st.one_of(texts(), st.sampled_from(["", "viens", "a b a b a b a b"])),
                        max_size=8),
        n=st.integers(1, 6),
    )
    def test_memo_bounds_change_no_shingle(self, corpus, n):
        values, sizes = shingles(corpus, n)
        with mock.patch.multiple(core, MEMO_WORDS=0, MEMO_WORD_CHARS=0, MEMO_LONG_CHARS=0):
            unmemoized = shingles(corpus, n)
        assert np.array_equal(values, unmemoized[0])
        assert np.array_equal(sizes, unmemoized[1])
        for s, text in zip(split_sets(values, sizes), corpus):
            assert s.tolist() == reference_shingles(text, n)


class TestTrueJaccard:
    def test_counts_shared_and_distinct_shingles(self):
        a, b = shingle_set([1, 2, 3, 4]), shingle_set([3, 4, 5])
        assert true_jaccard(a, b) == 2 / 5
        assert true_jaccard(a, a) == 1.0
        assert true_jaccard(shingle_set([]), shingle_set([])) == 1.0


class TestMinHash:
    def test_identical_sets_identical_signatures(self):
        a = sig_of_hashes(range(100))
        b = sig_of_hashes(range(100))
        assert np.array_equal(a, b)

    def test_singleton_is_permuted_value(self):
        singleton = sig_of_hashes([12345])
        pair = sig_of_hashes([12345, 99999])
        # min over {x} equals h_i(x); adding elements can only lower minima
        assert (pair <= singleton).all()

    def test_sizes_must_sum_to_the_values(self):
        with pytest.raises(ValueError, match="sum to 2, not 3"):
            minhash_signature(np.arange(3, dtype=np.uint64), [1, 1], K, SEED)

    def test_mismatched_signatures_rejected(self):
        a = sig_of_hashes(range(10))
        b = sig_of_hashes(range(10), k=56)
        with pytest.raises(ValueError):
            estimate_jaccard(a, b)
        mat = sign([shingle_set(range(10))] * 2, 56)
        with pytest.raises(ValueError):
            find_duplicate_clusters(mat, 14, 8)

    def test_self_similarity_is_one(self):
        a = sig_of_hashes(range(50))
        assert estimate_jaccard(a, a) == 1.0

    def test_disjoint_sets_near_zero(self):
        rng = np.random.default_rng(0)
        a = sig_of_hashes(rng.integers(0, 2**63, 500, dtype=np.uint64).tolist())
        b = sig_of_hashes(
            rng.integers(2**63, 2**64, 500, dtype=np.uint64, endpoint=False).tolist()
        )
        assert estimate_jaccard(a, b) <= 0.05

    def test_estimates_concentrate_around_true_jaccard(self):
        # planted J = 0.7: binomial(112, .7) tail gives ≥99% mass in
        # [0.55, 0.85]; with 20 seeds all should land inside
        rng = np.random.default_rng(42)
        for _ in range(20):
            shared = rng.integers(0, 2**64, 700, dtype=np.uint64).tolist()
            only_a = rng.integers(0, 2**64, 150, dtype=np.uint64).tolist()
            only_b = rng.integers(0, 2**64, 150, dtype=np.uint64).tolist()
            # |A∩B|=700, |A∪B|=1000 -> J=0.7
            est = estimate_jaccard(
                sig_of_hashes(shared + only_a), sig_of_hashes(shared + only_b)
            )
            assert 0.55 <= est <= 0.85

    def test_unbiasedness_monte_carlo(self):
        rng = np.random.default_rng(7)
        errors = []
        for _ in range(300):
            n_shared = int(rng.integers(50, 500))
            n_a = int(rng.integers(10, 300))
            n_b = int(rng.integers(10, 300))
            shared = rng.integers(0, 2**64, n_shared, dtype=np.uint64).tolist()
            a = shared + rng.integers(0, 2**64, n_a, dtype=np.uint64).tolist()
            b = shared + rng.integers(0, 2**64, n_b, dtype=np.uint64).tolist()
            true_j = n_shared / (n_shared + n_a + n_b)
            est = estimate_jaccard(sig_of_hashes(a), sig_of_hashes(b))
            errors.append(abs(est - true_j))
        assert np.mean(errors) <= 3.0 / math.sqrt(K)


class TestSignatureMatrix:
    @settings(deadline=None, max_examples=120)
    @given(
        sets=st.lists(
            st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
            max_size=8,
        ),
        k=st.sampled_from([1, 3, 16]),
        perm_seed=st.integers(0, 2**32 - 1),
        rows_per_chunk=st.sampled_from([None, 1, 2, 3, 7]),
    )
    def test_rows_equal_per_document_minimum(self, sets, k, perm_seed, rows_per_chunk):
        # small chunk budgets put chunk boundaries inside and between sets
        budget = near_dedup.SIGN_CHUNK_BYTES if rows_per_chunk is None else 8 * k * rows_per_chunk
        arrays = [np.array(s, dtype=np.uint64) for s in sets]
        with mock.patch.object(near_dedup, "SIGN_CHUNK_BYTES", budget):
            mat = sign(arrays, k, perm_seed)
        assert mat.shape == (len(sets), k) and mat.dtype == np.uint64
        for row, s in zip(mat, sets):
            assert row.tolist() == reference_signature(s, k, perm_seed)


class TestBandingOdds:
    @given(st.integers(1, 30), st.integers(1, 30))
    def test_odds_at_the_ends_and_at_the_banding_threshold(self, bands, rows):
        assert near_dedup.banding_odds(0.0, bands, rows)[0] == 0.0
        assert near_dedup.banding_odds(1.0, bands, rows)[0] == 1.0
        # at (1/b)^(1/r), t^r = 1/b: the odds are 1 - (1 - 1/b)^b, in [1 - 1/e, 1]
        _, banding = near_dedup.banding_odds(0.0, bands, rows)
        odds, _ = near_dedup.banding_odds(banding, bands, rows)
        assert 1 - 1 / math.e - 1e-9 <= odds <= 1 + 1e-9


class TestUnionFind:
    def test_transitive_chain(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.clusters() == [["a", "b", "c"]]

    def test_disjoint(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("x", "y")
        assert uf.clusters() == [["a", "b"], ["x", "y"]]


class TestClustering:
    def _signatures(self, texts):
        return minhash_signature(*shingles(texts), K, SEED)

    def test_identical_docs_cluster(self, lang):
        rng = np.random.default_rng(0)
        text = lang.document(rng, 10, 15)
        sigs = self._signatures([text, text])
        assert find_duplicate_clusters(sigs, 14, 8) == [[0, 1]]

    def test_unrelated_docs_no_clusters(self, lang):
        rng = np.random.default_rng(1)
        sigs = self._signatures([lang.document(rng, 10, 15) for _ in range(100)])
        assert find_duplicate_clusters(sigs, 14, 8) == []

    def test_chain_merges_transitively(self):
        rng = np.random.default_rng(2)
        pool = rng.integers(0, 2**64, 3000, dtype=np.uint64).tolist()
        # A~B and B~C share 90%, A~C shares ~81%
        a = pool[0:1000]
        b = pool[100:1100]
        c = pool[200:1200]
        sigs = sign([shingle_set(x) for x in (a, b, c)])
        assert find_duplicate_clusters(sigs, 14, 8, threshold=0.7) == [[0, 1, 2]]

    def test_lsh_candidate_recall_at_08(self):
        # empirical banding recall at s=0.8 within 0.03 of 1-(1-s^r)^b
        rng = np.random.default_rng(3)
        bands, rows = 14, 8
        expected = 1.0 - (1.0 - 0.8**rows) ** bands
        hits = 0
        trials = 400
        for _ in range(trials):
            shared = rng.integers(0, 2**64, 800, dtype=np.uint64).tolist()
            a = shared + rng.integers(0, 2**64, 100, dtype=np.uint64).tolist()
            b = shared + rng.integers(0, 2**64, 100, dtype=np.uint64).tolist()
            sa, sb = sig_of_hashes(a), sig_of_hashes(b)
            for band in range(bands):
                lo, hi = band * rows, (band + 1) * rows
                if np.array_equal(sa[lo:hi], sb[lo:hi]):
                    hits += 1
                    break
        assert hits / trials >= expected - 0.03


def planted_sets(seed, n_chains, chain_len, shift, size, n_near_miss):
    """Shingle sets of chains whose neighbours share size - shift of size
    elements, so that A~B and B~C can hold while A≁C, plus near misses:
    chain members with a third of their elements replaced, which share
    buckets with a chain without belonging to it. Returns one sorted uint64
    array per set."""
    rng = np.random.default_rng(seed)

    def fresh(n):
        return rng.integers(0, 2**64, n, dtype=np.uint64).tolist()

    sets = []
    for c in range(n_chains):
        pool = fresh(size + shift * (chain_len - 1))
        for j in range(chain_len):
            sets.append(pool[j * shift : j * shift + size])
    n_chained = len(sets)
    keep = size * 2 // 3
    for m in range(n_near_miss):
        base = sets[int(rng.integers(n_chained))]
        sets.append(base[:keep] + fresh(size - keep))
    return [shingle_set(v) for v in sets]


class TestClustersMatchReference:
    """Per-bucket verification skips only pairs that are already connected,
    so its clusters equal those of verifying every candidate pair."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_chains=st.integers(1, 3),
        chain_len=st.integers(1, 6),
        shift=st.integers(1, 6),
        size=st.integers(12, 40),
        n_near_miss=st.integers(0, 4),
        layout=st.sampled_from([(8, 2), (4, 4), (16, 1), (14, 8)]),
        threshold=st.sampled_from([0.5, 0.7, 0.8]),
    )
    def test_equals_brute_force(
        self, seed, n_chains, chain_len, shift, size, n_near_miss, layout, threshold
    ):
        bands, rows = layout
        sets = planted_sets(seed, n_chains, chain_len, shift, size, n_near_miss)
        sigs = sign(sets, bands * rows)
        for exact in (None, sets):
            assert find_duplicate_clusters(
                sigs, bands, rows, threshold, exact
            ) == reference_clusters(sigs, bands, rows, threshold, exact)

    def test_planted_corpus_has_chains_and_mixed_buckets(self):
        # the shapes the property test relies on: a verified chain whose
        # ends fail verification, and a bucket spanning several components
        bands, rows, threshold = 8, 2, 0.7
        sets = planted_sets(0, 3, 6, 4, 40, 4)
        sigs = sign(sets, bands * rows)
        clusters = find_duplicate_clusters(sigs, bands, rows, threshold, sets)
        assert clusters == reference_clusters(sigs, bands, rows, threshold, sets)
        component = list(range(len(sets)))
        for cluster in clusters:
            for i in cluster:
                component[i] = cluster[0]
        verified = set(verified_pairs(sigs, bands, rows, threshold, sets))
        unverified = set(candidate_pairs(sigs, bands, rows)) - verified
        assert any(
            (x, y) in verified and (y, z) in verified and component[x] == component[z]
            for x, z in unverified
            for y in range(len(sets))
        )
        assert any(
            component[x] != component[z] for x, z in unverified
        ), "no candidate pair spans two components"


def replace_one_word(text, rng, lang):
    lines = [line.split() for line in text.split("\n")]
    line = lines[int(rng.integers(len(lines)))]
    line[int(rng.integers(len(line)))] = lang.words[int(rng.integers(len(lang.words)))]
    return "\n".join(" ".join(words) for words in lines)


class TestTemplatedPages:
    def test_verified_pairs_grow_linearly(self, lang, monkeypatch):
        # 2,000 pages, each one word away from one of two templates: every
        # page shares buckets with hundreds of others, but each needs only a
        # few verifications before it joins its template's cluster
        rng = np.random.default_rng(0)
        cfg = NearDupConfig()
        templates = [lang.document(rng, 8, 13) for _ in range(2)]
        pages = [replace_one_word(template, rng, lang) for template in templates
                 for _ in range(1000)]
        sigs = minhash_signature(*shingles(pages), cfg.num_perm, cfg.perm_seed)
        verified = calls = 0
        hits = near_dedup._signature_hits

        def counting_hits(mat, x, cands, threshold):
            nonlocal verified, calls
            verified += len(cands)
            calls += 1
            return hits(mat, x, cands, threshold)

        monkeypatch.setattr(near_dedup, "_signature_hits", counting_hits)
        clusters = find_duplicate_clusters(sigs, cfg.bands, cfg.rows, cfg.threshold)
        assert clusters == [list(range(1000)), list(range(1000, 2000))]
        assert verified <= cfg.bands * len(pages)
        # the pages verify against their bucket's first member: at most one
        # array pass per bucket, not one per page
        assert calls <= len(near_dedup.LshIndex(cfg.bands, cfg.rows).buckets(sigs))

    @staticmethod
    def link(members, similar_pairs, uf=None):
        """The ``similar`` calls of _link_bucket over *members*, a pair being
        similar when it is in *similar_pairs*, as (x, candidates) lists."""
        calls = []

        def similar(x, cands):
            calls.append((x, list(cands)))
            return [(min(x, c), max(x, c)) in similar_pairs for c in cands]

        near_dedup._link_bucket(members, UnionFind() if uf is None else uf, similar)
        return calls

    def test_bucket_verified_by_its_first_member_costs_one_call(self):
        members = [2, 3, 5, 8, 13]
        calls = self.link(members, {(2, m) for m in members})
        assert calls == [(2, [3, 5, 8, 13])]

    def test_two_interleaved_clusters_cost_one_call_per_member_but_the_last(self):
        # evens and odds: 0 links the evens, 1 the odds, and each later
        # member verifies only the later members of the other cluster
        members = list(range(10))
        pairs = {(a, b) for a in members for b in members if a < b and (b - a) % 2 == 0}
        calls = self.link(members, pairs)
        assert [x for x, _ in calls] == members[:-1]
        assert calls[:3] == [(0, members[1:]), (1, [2, 3, 4, 5, 6, 7, 8, 9]), (2, [3, 5, 7, 9])]

    @pytest.mark.parametrize("pairs", [set(), {(4, 9)}])
    def test_two_member_bucket_costs_one_call(self, pairs):
        assert self.link([4, 9], pairs) == [(4, [9])]

    def test_connected_bucket_costs_no_call(self):
        uf = UnionFind()
        uf.union(4, 9)
        assert self.link([4, 9], set(), uf) == []

    @settings(deadline=None, max_examples=200)
    @given(
        pairs=st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9))),
        buckets=st.lists(
            st.lists(st.integers(0, 9), min_size=2, max_size=10, unique=True).map(sorted),
            max_size=5,
        ),
    )
    def test_no_pair_verified_twice_in_a_bucket(self, pairs, buckets):
        """No pair is verified twice, a bucket of n members costs at most
        n - 1 calls, and the components equal those of every pair
        verified."""
        similar_pairs = {(min(a, b), max(a, b)) for a, b in pairs}
        uf, reference = UnionFind(), UnionFind()
        for members in buckets:
            calls = self.link(members, similar_pairs, uf)
            assert len(calls) <= len(members) - 1
            verified = [frozenset((x, c)) for x, cands in calls for c in cands]
            assert len(verified) == len(set(verified))
            assert all(len(pair) == 2 and pair <= set(members) for pair in verified)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if (a, b) in similar_pairs:
                        reference.union(a, b)
        assert uf.clusters() == reference.clusters()


def near(docs, cfg):
    """(kept, stats) of dedup_near over *docs*, counted as
    pipeline.run_stage counts the dedup_near stage."""
    verdicts, n_clusters = dedup_near(docs, cfg)
    return tally("dedup_near", docs, verdicts, {"clusters": n_clusters})[:2]


class TestDedupNear:
    def test_keep_longest(self, lang):
        rng = np.random.default_rng(5)
        text = lang.document(rng, 10, 15)
        long = Document(id="long", source="s", text=text + "\n" + lang.sentence(rng, 10))
        short = Document(id="short", source="s", text=text)
        docs = [short, long]
        kept, stats = near(docs, NearDupConfig())
        assert [d.id for d in kept] == ["long"]
        assert stats.rejected == {"near_dup": 1}

    def test_tie_breaks_to_smallest_id(self, lang):
        rng = np.random.default_rng(6)
        text = lang.document(rng, 10, 15)
        docs = [Document(id=i, source="s", text=text) for i in ("b", "a", "c")]
        kept, _ = near(docs, NearDupConfig())
        assert [d.id for d in kept] == ["a"]

    def test_singletons_all_kept(self, lang):
        rng = np.random.default_rng(7)
        docs = [
            Document(id=f"d{i}", source="s", text=lang.document(rng, 10, 15))
            for i in range(50)
        ]
        kept, stats = near(docs, NearDupConfig())
        assert len(kept) == 50
        assert stats.rejected_docs == 0

    def test_empty_corpus(self):
        kept, stats = near([], NearDupConfig())
        assert kept == [] and stats.extra["clusters"] == 0

    def test_exact_verify_mode(self, lang):
        rng = np.random.default_rng(8)
        text = lang.document(rng, 10, 15)
        docs = [Document(id=i, source="s", text=text) for i in ("a", "b")]
        kept, _ = near(docs, NearDupConfig(exact_verify=True))
        assert [d.id for d in kept] == ["a"]

    def test_determinism(self, lang):
        rng = np.random.default_rng(9)
        base = [lang.document(rng, 8, 15) for _ in range(30)]
        docs = [Document(id=f"d{i}", source="s", text=t) for i, t in enumerate(base * 2)]
        kept1, _ = near(list(docs), NearDupConfig())
        kept2, _ = near(list(docs), NearDupConfig())
        assert [d.id for d in kept1] == [d.id for d in kept2]


class TestDedupNearMatchesReference:
    @settings(deadline=None, max_examples=60)
    @given(
        bases=st.lists(texts(), min_size=1, max_size=4),
        picks=st.lists(st.tuples(st.integers(0, 3), st.one_of(st.just(""), texts())),
                       max_size=10),
        n=st.integers(1, 6),
        layout=st.sampled_from([(8, 2), (4, 4), (14, 8)]),
        threshold=st.sampled_from([0.5, 0.7]),
    )
    @example(bases=["a"], picks=[], n=5, layout=(14, 8), threshold=0.7)
    @example(bases=["", "İ İ\x85İ"], picks=[(0, ""), (1, ""), (0, ""), (1, "x")], n=2,
             layout=(8, 2), threshold=0.5)
    def test_clusters_equal_reference_in_both_verify_modes(
        self, bases, picks, n, layout, threshold
    ):
        # each text is a base text, maybe with words appended, so that
        # texts are often duplicates or near duplicates of each other
        corpus = [bases[i % len(bases)] + " " + extra for i, extra in picks]
        docs = [Document(id=f"d{i}", source="s", text=t) for i, t in enumerate(corpus)]
        bands, rows = layout
        k = bands * rows
        sets = [np.array(reference_shingles(t, n), dtype=np.uint64) for t in corpus]
        mat = np.array([reference_signature(s, k, SEED) for s in sets], dtype=np.uint64)
        mat = mat.reshape(len(sets), k)
        for exact in (False, True):
            cfg = NearDupConfig(num_perm=k, bands=bands, rows=rows, shingle_n=n,
                                threshold=threshold, perm_seed=SEED, exact_verify=exact)
            verdicts, n_clusters = dedup_near(docs, cfg)
            # each cluster is its keeper and the documents naming it
            clusters: dict = {}
            for doc, verdict in zip(docs, verdicts):
                if verdict is not None:
                    keeper = verdict[1].removeprefix("kept=")
                    clusters.setdefault(keeper, {keeper}).add(doc.id)
            want = reference_clusters(mat, bands, rows, threshold, sets if exact else None)
            assert sorted(sorted(c) for c in clusters.values()) == sorted(
                sorted(docs[i].id for i in cluster) for cluster in want
            )
            assert n_clusters == len(want)
