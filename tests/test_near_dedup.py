import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpusprep import near_dedup
from corpusprep.core import Document
from corpusprep.near_dedup import (
    NearDupConfig,
    ShingleSet,
    UnionFind,
    dedup_near,
    estimate_jaccard,
    find_duplicate_clusters,
    minhash_signature,
    shingles,
    true_jaccard,
)

from near_dedup_reference import candidate_pairs, reference_clusters, verified_pairs

K = 112
SEED = 1


def sig_of_hashes(hashes, k=K, seed=SEED):
    return minhash_signature(ShingleSet(frozenset(hashes), 5), k, seed)


class TestShingles:
    def test_window_count(self):
        s = shingles("a b c d e f", 5)
        assert len(s.shingles) == 2

    def test_short_text_single_shingle(self):
        assert len(shingles("tikai trīs vārdi", 5).shingles) == 1

    def test_determinism_and_case(self):
        assert shingles("A B C D E F").shingles == shingles("a b c d e f").shingles


class TestMinHash:
    def test_identical_sets_identical_signatures(self):
        a = sig_of_hashes(range(100))
        b = sig_of_hashes(range(100))
        assert np.array_equal(a.values, b.values)

    def test_singleton_is_permuted_value(self):
        singleton = sig_of_hashes([12345])
        pair = sig_of_hashes([12345, 99999])
        # min over {x} equals h_i(x); adding elements can only lower minima
        assert (pair.values <= singleton.values).all()

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            minhash_signature(ShingleSet(frozenset(), 5), K, SEED)

    def test_mismatched_signatures_rejected(self):
        a = sig_of_hashes(range(10))
        b = sig_of_hashes(range(10), k=56)
        with pytest.raises(ValueError):
            estimate_jaccard(a, b)
        c = sig_of_hashes(range(10), seed=2)
        with pytest.raises(ValueError):
            estimate_jaccard(a, c)

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
        return {
            i: minhash_signature(shingles(t), K, SEED) for i, t in texts.items()
        }

    def test_identical_docs_cluster(self, lang):
        rng = np.random.default_rng(0)
        text = lang.document(rng, 10, 15)
        sigs = self._signatures({"a": text, "b": text})
        assert find_duplicate_clusters(sigs, 14, 8) == [["a", "b"]]

    def test_unrelated_docs_no_clusters(self, lang):
        rng = np.random.default_rng(1)
        sigs = self._signatures(
            {f"d{i}": lang.document(rng, 10, 15) for i in range(100)}
        )
        assert find_duplicate_clusters(sigs, 14, 8) == []

    def test_chain_merges_transitively(self):
        rng = np.random.default_rng(2)
        pool = rng.integers(0, 2**64, 3000, dtype=np.uint64).tolist()
        # A~B and B~C share 90%, A~C shares ~81%
        a = pool[0:1000]
        b = pool[100:1100]
        c = pool[200:1200]
        sigs = {
            "A": sig_of_hashes(a),
            "B": sig_of_hashes(b),
            "C": sig_of_hashes(c),
        }
        assert find_duplicate_clusters(sigs, 14, 8, threshold=0.7) == [["A", "B", "C"]]

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
                if np.array_equal(sa.values[lo:hi], sb.values[lo:hi]):
                    hits += 1
                    break
        assert hits / trials >= expected - 0.03


def planted_sets(seed, n_chains, chain_len, shift, size, n_near_miss):
    """Shingle sets of chains whose neighbours share size - shift of size
    elements, so that A~B and B~C can hold while A≁C, plus near misses:
    chain members with a third of their elements replaced, which share
    buckets with a chain without belonging to it."""
    rng = np.random.default_rng(seed)

    def fresh(n):
        return rng.integers(0, 2**64, n, dtype=np.uint64).tolist()

    sets = {}
    for c in range(n_chains):
        pool = fresh(size + shift * (chain_len - 1))
        for j in range(chain_len):
            sets[f"c{c}-{j}"] = pool[j * shift : j * shift + size]
    chain_ids = sorted(sets)
    keep = size * 2 // 3
    for m in range(n_near_miss):
        base = sets[chain_ids[int(rng.integers(len(chain_ids)))]]
        sets[f"m{m}"] = base[:keep] + fresh(size - keep)
    return {i: ShingleSet(frozenset(v), 5) for i, v in sets.items()}


def signatures_of(sets, k):
    return {i: minhash_signature(s, k, SEED) for i, s in sets.items()}


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
        sigs = signatures_of(sets, bands * rows)
        for exact in (None, sets):
            assert find_duplicate_clusters(
                sigs, bands, rows, threshold, exact
            ) == reference_clusters(sigs, bands, rows, threshold, exact)

    def test_planted_corpus_has_chains_and_mixed_buckets(self):
        # the shapes the property test relies on: a verified chain whose
        # ends fail verification, and a bucket spanning several components
        bands, rows, threshold = 8, 2, 0.7
        sets = planted_sets(0, 3, 6, 4, 40, 4)
        sigs = signatures_of(sets, bands * rows)
        clusters = find_duplicate_clusters(sigs, bands, rows, threshold, sets)
        assert clusters == reference_clusters(sigs, bands, rows, threshold, sets)
        component = {i: i for i in sets}
        for cluster in clusters:
            for i in cluster:
                component[i] = cluster[0]
        verified = set(verified_pairs(sigs, bands, rows, threshold, sets))
        unverified = set(candidate_pairs(sigs, bands, rows)) - verified
        assert any(
            (x, y) in verified and (y, z) in verified and component[x] == component[z]
            for x, z in unverified
            for y in sets
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
        pages = {
            f"t{t}-{p:04d}": replace_one_word(template, rng, lang)
            for t, template in enumerate(templates)
            for p in range(1000)
        }
        sigs = {i: minhash_signature(shingles(x), cfg.num_perm, cfg.perm_seed)
                for i, x in pages.items()}
        verified = 0
        hits = near_dedup._signature_hits

        def counting_hits(mat, x, cands, threshold):
            nonlocal verified
            verified += len(cands)
            return hits(mat, x, cands, threshold)

        monkeypatch.setattr(near_dedup, "_signature_hits", counting_hits)
        clusters = find_duplicate_clusters(sigs, cfg.bands, cfg.rows, cfg.threshold)
        assert clusters == [
            sorted(i for i in pages if i.startswith(f"t{t}-")) for t in range(2)
        ]
        assert verified <= cfg.bands * len(pages)


class TestDedupNear:
    def test_keep_longest(self, lang):
        rng = np.random.default_rng(5)
        text = lang.document(rng, 10, 15)
        long = Document(id="long", source="s", text=text + "\n" + lang.sentence(rng, 10))
        short = Document(id="short", source="s", text=text)
        kept, stats = dedup_near([short, long], NearDupConfig())
        assert [d.id for d in kept] == ["long"]
        assert stats.rejected == {"near_dup": 1}

    def test_tie_breaks_to_smallest_id(self, lang):
        rng = np.random.default_rng(6)
        text = lang.document(rng, 10, 15)
        docs = [Document(id=i, source="s", text=text) for i in ("b", "a", "c")]
        kept, _ = dedup_near(docs, NearDupConfig())
        assert [d.id for d in kept] == ["a"]

    def test_singletons_all_kept(self, lang):
        rng = np.random.default_rng(7)
        docs = [
            Document(id=f"d{i}", source="s", text=lang.document(rng, 10, 15))
            for i in range(50)
        ]
        kept, stats = dedup_near(docs, NearDupConfig())
        assert len(kept) == 50
        assert stats.rejected_docs == 0

    def test_exact_verify_mode(self, lang):
        rng = np.random.default_rng(8)
        text = lang.document(rng, 10, 15)
        docs = [Document(id=i, source="s", text=text) for i in ("a", "b")]
        kept, _ = dedup_near(docs, NearDupConfig(exact_verify=True))
        assert [d.id for d in kept] == ["a"]

    def test_determinism(self, lang):
        rng = np.random.default_rng(9)
        base = [lang.document(rng, 8, 15) for _ in range(30)]
        docs = [Document(id=f"d{i}", source="s", text=t) for i, t in enumerate(base * 2)]
        kept1, _ = dedup_near(list(docs), NearDupConfig())
        kept2, _ = dedup_near(list(docs), NearDupConfig())
        assert [d.id for d in kept1] == [d.id for d in kept2]
