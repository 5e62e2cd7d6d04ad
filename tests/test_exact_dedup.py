import hashlib

from hypothesis import given, strategies as st

from corpusprep.core import Document, normalize_text
from corpusprep.exact_dedup import canonical_url, dedup_exact, text_digest
from corpusprep.quality import strip_boilerplate

from pipeline_fixture import tally


def doc(i, text, url=None, source="s"):
    return Document(id=i, source=source, text=text, url=url)


class TestExactKey:
    def test_whitespace_variants_collide(self):
        assert text_digest("viens\tdivi") == text_digest("viens divi")

    def test_url_canonicalization(self):
        assert canonical_url("http://a.lv/x?utm=1") == canonical_url("https://A.lv/x/")

    def test_url_urlsplit_refuses_is_keyed_by_its_text(self):
        assert canonical_url(" http://[::1/X ") == "http://[::1/x"
        assert canonical_url("https://[bad]/p") == "https://[bad]/p"

    @given(st.one_of(st.text(), st.lists(st.sampled_from(
        ["a", "ā", "a\u0304", " ", "\t", "\n", "\r", "\u2028", "x" * 81]), max_size=30
    ).map("".join)))
    def test_filter_texts_are_normalized(self, text):
        """filter writes strip_boilerplate(normalize_text(t)), which
        normalize_text leaves as it is, so a run whose filter came first
        digests its texts without normalizing them again."""
        filtered = strip_boilerplate(normalize_text(text))
        assert normalize_text(filtered) == filtered

    def test_frozen_digest(self):
        # frozen once from blake2b-128 of the normalized text
        expected = hashlib.blake2b("viens divi".encode(), digest_size=16).hexdigest()
        assert text_digest("viens  divi ").hex() == expected


class TestDedupExact:
    def test_keep_first(self):
        docs = [doc("1", "A teksts"), doc("2", "A teksts"), doc("3", "B teksts")]
        kept, stats, rejects = tally("dedup_exact", docs, dedup_exact(docs))
        assert [d.id for d in kept] == ["1", "3"]
        assert stats.rejected == {"exact_text": 1}
        assert rejects[0]["id"] == "2"

    def test_all_distinct_identity(self):
        docs = [doc(str(i), f"teksts numur {i}") for i in range(5)]
        kept, stats, _ = tally("dedup_exact", docs, dedup_exact(docs))
        assert [d.id for d in kept] == [d.id for d in docs]
        assert stats.rejected_docs == 0

    def test_url_dedup_after_text(self):
        docs = [
            doc("1", "viens saturs", url="http://a.lv/x?utm=1"),
            doc("2", "cits saturs", url="https://A.lv/x/"),
        ]
        kept, stats, _ = tally("dedup_exact", docs, dedup_exact(docs))
        assert [d.id for d in kept] == ["1"]
        assert stats.rejected == {"exact_url": 1}

    def test_malformed_urls_pass_and_repeats_are_url_duplicates(self):
        docs = [
            doc("1", "viens saturs", url="http://[::1/x"),
            doc("2", "cits saturs", url="https://[bad]/p"),
            doc("3", "trešais saturs", url="HTTPS://[bad]/p "),
            doc("4", "ceturtais saturs", url="https://bad/p"),
        ]
        assert dedup_exact(docs) == [None, None, "exact_url", None]

    def test_planted_duplicates_all_removed(self):
        docs = [doc(f"u{i}", f"unikāls teksts {i}") for i in range(1000)]
        planted = [doc(f"p{i}", f"unikāls teksts {i % 50}") for i in range(500)]
        docs += planted
        kept, stats, _ = tally("dedup_exact", docs, dedup_exact(docs))
        assert stats.rejected == {"exact_text": 500}
        assert len(kept) == 1000

    def test_idempotent(self):
        docs = [doc(str(i), f"t {i % 4}") for i in range(10)]
        once, *_ = tally("dedup_exact", docs, dedup_exact(docs))
        twice, stats, _ = tally("dedup_exact", once, dedup_exact(once))
        assert [d.id for d in twice] == [d.id for d in once]
        assert stats.rejected_docs == 0

    @given(st.lists(st.sampled_from(["a b", "c d", "e f", "g h"]), max_size=20))
    def test_output_is_subsequence_and_unique(self, texts):
        docs = [doc(str(i), t) for i, t in enumerate(texts)]
        kept, *_ = tally("dedup_exact", docs, dedup_exact(docs))
        ids = [d.id for d in kept]
        assert ids == sorted(ids, key=int)  # subsequence of input order
        hashes = [text_digest(d.text) for d in kept]
        assert len(set(hashes)) == len(hashes)
