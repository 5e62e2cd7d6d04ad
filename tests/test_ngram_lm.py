import hashlib
import json
import math
import random
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corpusprep import ngram_lm
from corpusprep.core import Document
from corpusprep.ngram_lm import (
    BOS,
    EOS,
    UNK,
    KneserNeyModel,
    PerplexityPolicy,
    filter_by_perplexity,
    percentile_cutoff,
    perplexities,
    train_kn_sentences,
)
from kn_probe import encode, map_word, prob
from kn_recursive_reference import RecursiveKN
from kn_reference import ReferenceKN
from pipeline_fixture import tally
from synthetic import SyntheticLanguage, shuffle_words


def score(model, text):
    """The verdict of one document of *text*."""
    return perplexities(model, [Document(id="d", source="s", text=text)])[0]


def make_training_sentences(n=400, seed=0, lang=None):
    lang = lang or SyntheticLanguage()
    rng = np.random.default_rng(seed)
    return [lang.sentence(rng, 12) for _ in range(n)]


class TestTraining:
    def test_hand_computed_bigram(self):
        # corpus "a b" x3, order 2: D2=D1=0.5 (degenerate counts-of-counts),
        # vocab {<unk>,<s>,</s>,a,b}, continuation counts all 1 over total 3:
        #   p_uni(b) = (1-0.5)/3 + 0.5*(3/3)*(1/5) = 4/15
        #   p(b|a)  = (3-0.5)/3 + 0.5*(1/3)*(4/15) = 79/90
        m = train_kn_sentences(["a b", "a b", "a b"], order=2)
        assert prob(m, "b", ("a",)) == pytest.approx(79 / 90, rel=1e-12)

    def test_unseen_in_vocab_word_has_positive_prob(self):
        m = train_kn_sentences(["a b c", "a b c", "d d"], order=3)
        assert prob(m, "d", ("a", "b")) > 0.0

    def test_context_distribution_sums_to_one(self):
        m = train_kn_sentences(["a b c", "a b d", "b c a", "a b c"], order=3)
        for ctx in [("a", "b"), ("b", "c"), (BOS, BOS), ("zz", "a"), ("c", "d")]:
            total = sum(prob(m, w, ctx) for w in m.vocab)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_token_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_kn_sentences(["", "   "], order=2)

    def test_rare_words_map_to_unk(self):
        m = train_kn_sentences(["a a b", "a a c"], order=2, min_count=2)
        assert "b" not in m.vocab_index
        assert map_word(m, "b") == UNK


class TestOracleEquivalence:
    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_logprobs_match_reference(self, order):
        sentences = make_training_sentences(n=120, seed=3)
        model = train_kn_sentences(sentences, order=order)
        ref = ReferenceKN(sentences, order=order)
        assert model.vocab == ref.vocab
        rng = np.random.default_rng(1)
        lang = SyntheticLanguage()
        test_sents = [lang.sentence(rng, 10) for _ in range(20)]
        for sent in test_sents:
            words = sent.lower().split()
            got = score(model, " ".join(words))
            got_lp, got_n = got.log_prob, got.n_scored_tokens
            ref_lps = ref.logprob_tokens(words)
            assert got_n == len(ref_lps)
            assert got_lp == pytest.approx(sum(ref_lps), rel=1e-9)

    def test_per_token_match_within_1e6_relative(self):
        sentences = make_training_sentences(n=150, seed=5)
        model = train_kn_sentences(sentences, order=5)
        ref = ReferenceKN(sentences, order=5)
        rng = np.random.default_rng(2)
        lang = SyntheticLanguage()
        for _ in range(10):
            words = lang.sentence(rng, 12).lower().split()
            ctx = (BOS,) * 4
            for w in [map_word(model, w) for w in words] + [EOS]:
                got = math.log(prob(model, w, ctx))
                want = math.log(ref.prob(w, ctx))
                assert got == pytest.approx(want, rel=1e-6)
                ctx = (ctx + (w,))[1:]


class TestPerplexity:
    def test_uniform_model_perplexity_equals_vocab_size(self):
        # order-1 model with no counts at all: only the uniform floor
        vocab = [UNK, BOS, EOS, "a", "b"]
        m = KneserNeyModel(1, vocab, *encode(vocab, {}, 1), min_count=2)
        v = score(m, "a b a b")
        assert v.perplexity == pytest.approx(5.0, rel=1e-12)

    def test_training_doc_beats_shuffled(self):
        sentences = make_training_sentences(n=500, seed=7)
        model = train_kn_sentences(sentences, order=5)
        fluent = "\n".join(sentences[:40])
        rng = np.random.default_rng(0)
        shuffled = shuffle_words(fluent.replace("\n", " "), rng)
        p_fluent = score(model, fluent)
        p_shuffled = score(model, shuffled)
        assert p_fluent.perplexity < p_shuffled.perplexity

    def test_empty_doc_verdict(self):
        m = train_kn_sentences(["a b", "a b"], order=2)
        v = score(m, "")
        assert v.n_scored_tokens == 0
        assert v.perplexity == math.inf

    def test_perplexity_at_least_one(self):
        m = train_kn_sentences(["a b", "a b"], order=2)
        v = score(m, "a b")
        assert v.perplexity >= 1.0
        assert v.perplexity == pytest.approx(
            math.exp(-v.log_prob / v.n_scored_tokens)
        )


class TestSerialization:
    def test_round_trip_scores_identically(self, tmp_path):
        sentences = make_training_sentences(n=100, seed=9)
        model = train_kn_sentences(sentences, order=5)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = KneserNeyModel.load(path)
        assert loaded.vocab == model.vocab
        assert loaded.discounts == model.discounts
        assert score(loaded, sentences[0]).log_prob == score(model, sentences[0]).log_prob

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"order": 5}')
        with pytest.raises(ValueError):
            KneserNeyModel.load(path)

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_save_load_save_byte_identical(self, tmp_path, order):
        model = train_kn_sentences(golden_corpus(), order=order)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        model.save(first)
        KneserNeyModel.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()

    def test_failed_save_leaves_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        train_kn_sentences(golden_corpus(), order=3).save(path)
        before = path.read_bytes()

        def partial_write(fh, array, **kwargs):
            fh.write(b"\x93NUMPY")
            raise OSError("disk full")

        monkeypatch.setattr(np.lib.format, "write_array", partial_write)
        with pytest.raises(OSError, match="disk full"):
            train_kn_sentences(golden_corpus(), order=1).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("order, sha256", [
        (1, "6bb92d3608444e893e4e7fb306423ddfb55aedab3e69da4df225323de42921b1"),
        (3, "55d65c2df30132a6aaee5efcb2add82e94036473f8ada7479bd540120f6963e4"),
        (5, "fe375435abec45024d8570d147d0cc88653019ea79d2555dc870fe3b37ffc290"),
    ])
    def test_trainer_output_bytes_pinned(self, tmp_path, order, sha256):
        # digests of the kn-ngram-v2 files the trainer wrote when the format
        # was introduced; each held the model of the kn-ngram-v1 file the
        # recursive scorer's trainer wrote
        path = tmp_path / "m.json"
        train_kn_sentences(golden_corpus(), order=order).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def golden_corpus():
    rng = random.Random(1234)
    words = "viens divi trīs četri pieci seši septiņi astoņi deviņi desmit Rīga".split()
    lines = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 9)))
             for _ in range(80)]
    return lines + ["reti vārdi vienreiz", "", "   "]


def add_gram(ids, count):
    """A mutation of the model arrays that lists one more gram."""
    return lambda a: a.update(grams=np.vstack([a["grams"], np.array([ids], np.int32)]),
                              counts=np.append(a["counts"], np.int64(count)))


def set_array(name, value):
    return lambda a: a.update({name: value})


class TestMalformedModelFile:
    VOCAB = [UNK, BOS, EOS, "a", "b"]

    def _write(self, tmp_path, mutate):
        arrays = {
            "format": np.array("kn-ngram-v2"),
            "order": np.array(3, np.int64),
            "min_count": np.array(2, np.int64),
            "discounts": np.array([0.5, 0.5, 0.5]),
            "vocab": np.frombuffer("\n".join(self.VOCAB).encode(), np.uint8),
            # <s> <s> a, <s> a b, a b </s>
            "grams": np.array([[1, 1, 3], [1, 3, 4], [3, 4, 2]], np.int32),
            "counts": np.array([2, 2, 1], np.int64),
        }
        mutate(arrays)
        path = tmp_path / "model.json"
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return path

    def _refused(self, path):
        """The message of the ValueError that loading *path* raises, after
        checking that it names the file on one line."""
        with pytest.raises(ValueError) as info:
            KneserNeyModel.load(path)
        message = str(info.value)
        assert str(path) in message and "\n" not in message
        return message

    def test_well_formed_file_loads(self, tmp_path):
        model = KneserNeyModel.load(self._write(tmp_path, lambda a: None))
        assert prob(model, "b", (BOS, "a")) > prob(model, "a", (BOS, "a"))
        assert model.discounts == {1: 0.5, 2: 0.5, 3: 0.5}

    @pytest.mark.parametrize("mutate, needle", [
        (lambda a: a.update(grams=a["grams"][:, :2]), "2 words, order is 3"),
        (lambda a: a.update(grams=np.hstack([a["grams"], a["grams"][:, :1]])),
         "4 words, order is 3"),
        (lambda a: a.update(grams=a["grams"].ravel()), "grams is int32 of shape (9,)"),
        (lambda a: a.update(grams=a["grams"].astype(np.int64)), "grams is int64"),
        (lambda a: a.update(counts=a["counts"][:2]),
         "counts is int64 of shape (2,), not int64 of shape (3,)"),
        (add_gram([3, 4, 5], 1), "word id 5 is outside the vocab [0, 5)"),
        (add_gram([3, -1, 4], 1), "word id -1 is outside the vocab [0, 5)"),
        (add_gram([3, 4, 3], 0), "count 0"),
        (add_gram([3, 4, 3], -2), "count -2"),
        (lambda a: a.update(counts=a["counts"].astype(np.float64)), "counts is float64"),
        (lambda a: a.update(counts=a["counts"].astype(str)), "counts is <U21"),
        (lambda a: a.update(counts=a["counts"].astype(bool)), "counts is bool"),
        (lambda a: a.update(counts=a["counts"].astype(">i8")), "counts is >i8"),
        (set_array("vocab", np.frombuffer(f"{BOS}\n{EOS}\na\nb\nc".encode(), np.uint8)),
         f"lacks {UNK}"),
        (set_array("vocab", np.frombuffer(f"{UNK}\nx\n{EOS}\na\nb".encode(), np.uint8)),
         f"lacks {BOS}"),
        (set_array("vocab", np.frombuffer(f"{UNK}\n{BOS}\nx\na\nb".encode(), np.uint8)),
         f"lacks {EOS}"),
        (set_array("vocab", np.frombuffer(b"<unk>\n<s>\n</s>\na\n\xff", np.uint8)),
         "can't decode byte 0xff"),
        (set_array("vocab", np.array(list(b"<unk>"), np.int64)), "vocab is int64"),
        (set_array("discounts", np.array([0.5, 0.5])),
         "discounts is float64 of shape (2,), not float64 of shape (3,)"),
        (set_array("discounts", np.array([-0.5, 0.5, 0.5])),
         "discount of order 1 is -0.5, not in (0, 1)"),
        (set_array("discounts", np.array([0.5, 1.0, 0.5])), "discount of order 2 is 1.0"),
        (set_array("discounts", np.array([0.5, 0.5, np.nan])), "discount of order 3 is nan"),
        (set_array("order", np.array(0, np.int64)), "order 0"),
        (set_array("order", np.array(3.0)), "order is float64"),
        (set_array("order", np.array([3], np.int64)), "order is int64 of shape (1,)"),
        (set_array("min_count", np.array(2, np.int32)), "min_count is int32"),
        (add_gram([1, 3, 4], 1), f"gram '{BOS} a b' is listed twice"),
        (set_array("vocab", np.frombuffer(f"{UNK}\n{BOS}\n{EOS}\na\nb\na".encode(),
                                          np.uint8)),
         "vocab word 'a' is listed twice"),
        (lambda a: [add_gram([3, 4, 3], 2**62)(a), add_gram([4, 3, 4], 2**62)(a)],
         "past 2**63 - 1"),
        (set_array("min_count", np.array(0, np.int64)), "min_count 0 < 1"),
        (set_array("min_count", np.array(-3, np.int64)), "min_count -3 < 1"),
    ])
    def test_rejected_with_one_line(self, tmp_path, mutate, needle):
        assert needle in self._refused(self._write(tmp_path, mutate))

    @pytest.mark.parametrize("mutate, needle", [
        (set_array("counts", np.array([2, 2, 1], dtype=object)),
         "Object arrays cannot be loaded"),
        (lambda a: a.update(grams=a.pop("grams")), "arrays ['format.npy', "),
        (lambda a: a.update(extra=np.zeros(1)), "extra.npy"),
        (lambda a: a.pop("min_count"), "arrays ['format.npy', "),
        (set_array("format", np.array("kn-ngram-v3")), "format 'kn-ngram-v3'"),
        (set_array("format", np.frombuffer(b"kn-ngram-v2", np.uint8)), "format ["),
    ])
    def test_not_a_v2_archive_rejected(self, tmp_path, mutate, needle):
        message = self._refused(self._write(tmp_path, mutate))
        assert message.startswith(f"{tmp_path / 'model.json'}: not a kn-ngram-v2 model file (")
        assert needle in message

    def test_every_truncation_rejected_with_one_line(self, tmp_path):
        path = tmp_path / "cut.json"
        train_kn_sentences(["a b c", "a b", "c a b a"], order=3, min_count=1).save(path)
        data = path.read_bytes()
        for size in range(len(data)):
            path.write_bytes(data[:size])
            message = self._refused(path)
            assert message.startswith(f"{path}: not a kn-ngram-v2 model file ("), size

    def test_non_array_member_rejected(self, tmp_path):
        path = self._write(tmp_path, lambda a: None)
        names = [f"{name}.npy" for name in ngram_lm.FIELDS]
        with zipfile.ZipFile(path, "w") as zf:
            for name in names:
                zf.writestr(name, b"not an npy array")
        assert "the magic string is not correct" in self._refused(path)

    @pytest.mark.parametrize("content", [
        b"not json at all", b"\xff\xfe{}", b"", b"PK\x03\x04 not a zip",
    ])
    def test_not_json_or_not_utf8_rejected_with_one_line(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        assert self._refused(path).startswith(f"{path}: not a kn-ngram-v2 model file (")

    def test_bare_npy_array_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        with open(path, "wb") as fh:
            np.save(fh, np.arange(3))
        assert self._refused(path) == f"{path}: not a kn-ngram-v2 model file (arrays [])"

    def test_v1_json_model_names_the_way_out(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format": "kn-ngram-v1", "order": 2, "min_count": 2,
            "vocab": [UNK, BOS, EOS, "a"], "discounts": {"1": 0.5, "2": 0.5},
            "counts": [[f"{BOS} a", 1], ["a </s>", 1]],
        }), encoding="utf-8")
        # a v1 file is refused as any other file that is not npz
        assert self._refused(path) == f"{path}: not a kn-ngram-v2 model file (not an npz archive)"

    @pytest.mark.parametrize("content, why", [
        (b"not a model", "not an npz archive"),
        (b"[1, 2]", "not an npz archive"),
        (b'{"format": "kn-ngram-v1"}', "not an npz archive"),
    ])
    def test_v1_hint_only_for_a_file_opening_a_json_object(self, tmp_path, content, why):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        assert self._refused(path) == f"{path}: not a kn-ngram-v2 model file ({why})"
        with pytest.raises(ngram_lm.ModelError):
            ngram_lm.load_model(path)


CORPUS_WORDS = ["a", "b", "c", "d", "e", "f"]
OOV = "zz"


def assert_sentences_match(model, oracle, sentences):
    """Each sentence, a list of words, scored as a document of its own,
    all in one perplexities call, has the recursion's (log_prob, tokens).
    A document of an empty sentence scores no token, so the recursion's
    score of the end symbol alone is checked through the probe."""
    docs = [Document(id=str(i), source="s", text=" ".join(s)) for i, s in enumerate(sentences)]
    for sent, got in zip(sentences, perplexities(model, docs), strict=True):
        if sent:
            assert (got.log_prob, got.n_scored_tokens) == oracle.sentence_logprob(sent), sent
        else:
            assert (got.log_prob, got.n_scored_tokens) == (0.0, 0)
            end = prob(model, EOS, (BOS,) * (model.order - 1))
            assert (math.log(end), 1) == oracle.sentence_logprob(sent)


class TestCompiledMatchesRecursion:
    """The trie scorer against the recursive one, compared with ==."""

    @staticmethod
    def _assert_same(model, oracle, contexts, sentences):
        words = model.vocab + [OOV]
        for ctx in contexts:
            for w in words:
                assert prob(model, w, ctx) == oracle.prob(w, ctx), (w, ctx)
        assert_sentences_match(model, oracle, sentences)

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(1, 5),
        min_count=st.integers(1, 2),
        sentences=st.lists(
            st.lists(st.sampled_from(CORPUS_WORDS), min_size=1, max_size=8),
            min_size=1, max_size=12,
        ),
        data=st.data(),
    )
    def test_random_corpora(self, order, min_count, sentences, data):
        text = [" ".join(s) for s in sentences]
        model = train_kn_sentences(text, order=order, min_count=min_count)
        ref = ReferenceKN(text, order=order, min_count=min_count)
        assert model.vocab == ref.vocab
        oracle = RecursiveKN(order, ref.vocab, ref.counts[order], min_count)
        assert model.discounts == oracle.discounts

        # every context of the training corpus, so every order interpolates
        contexts = []
        for s in sentences:
            seq = [BOS] * (order - 1) + [map_word(model, w) for w in s]
            contexts += [tuple(seq[i:i + order - 1]) for i in range(len(s))]
        symbols = CORPUS_WORDS + [OOV, UNK, BOS, EOS]
        contexts += data.draw(st.lists(
            st.lists(st.sampled_from(symbols), max_size=order + 1).map(tuple),
            min_size=5, max_size=20,
        ))  # shorter than order-1, full length and longer, OOV words included
        contexts += [(OOV, "a"), ("a", OOV), (OOV,) * 4, ()]
        extra = data.draw(st.lists(
            st.lists(st.sampled_from(CORPUS_WORDS + [OOV, "Z"]), max_size=6),
            max_size=5,
        ))
        self._assert_same(model, oracle, contexts, sentences + extra)

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(1, 4),
        top=st.dictionaries(
            st.lists(st.sampled_from(["a", "b", "c", UNK, BOS, EOS]),
                     min_size=4, max_size=4).map(tuple),
            st.integers(1, 4), max_size=30,
        ),
        data=st.data(),
    )
    def test_arbitrary_gram_sets(self, order, top, data):
        # grams that no corpus produces: contexts that are no gram's suffix
        # anywhere, not only the start-symbol runs of a trained model
        vocab = [UNK, BOS, EOS, "a", "b", "c"]
        top = {g[:order]: c for g, c in top.items()}
        model = KneserNeyModel(order, vocab, *encode(vocab, top, order), min_count=1)
        oracle = RecursiveKN(order, vocab, top, min_count=1)
        assert model.discounts == oracle.discounts
        contexts = [g[:-1] for g in top] + [g[1:] for g in top] + data.draw(
            st.lists(st.lists(st.sampled_from(vocab + [OOV]), max_size=order)
                     .map(tuple), max_size=10))
        sentences = [list(g) for g in top] + [["a", OOV, "c", "b"]]
        self._assert_same(model, oracle, contexts, sentences)

    def test_vocab_past_int64_gram_ids(self):
        vocab = [UNK, BOS, EOS] + [f"w{i:04d}" for i in range(7000)]
        order = 5
        assert (len(vocab) + 1) ** order > 2**63
        rng = random.Random(3)
        sentences = [[rng.choice(vocab[-20:] + vocab[3:8]) for _ in range(6)]
                     for _ in range(40)]
        top = {}
        for s in sentences:
            seq = [BOS] * (order - 1) + s + [EOS]
            for i in range(len(seq) - order + 1):
                gram = tuple(seq[i:i + order])
                top[gram] = top.get(gram, 0) + 1
        model = KneserNeyModel(order, vocab, *encode(vocab, top, order), min_count=1)
        oracle = RecursiveKN(order, vocab, top, min_count=1)
        contexts = [g[:-1] for g in top] + [g[1:] for g in top]
        contexts += [(OOV, "w6999"), ("w6999", OOV, "w0001", UNK), ()]
        for ctx in contexts:
            for w in vocab[:10] + vocab[-25:] + [OOV]:
                assert prob(model, w, ctx) == oracle.prob(w, ctx), (w, ctx)
        assert_sentences_match(model, oracle, sentences + [["w6999", OOV, "w0000"]])


class TestDocumentMatchesRecursion:
    """perplexities() scores the sentences of many documents in one
    vectorized pass per chunk; each document's sums must equal the
    recursion's, taken sentence by sentence, compared with ==, wherever the
    chunks are closed."""

    LINES = st.one_of(
        st.lists(st.sampled_from(CORPUS_WORDS + [OOV, "A", "Zz"]), max_size=6)
        .map(" ".join),
        st.sampled_from(["", "   ", "\t", "e"]),  # blank lines, a one-word sentence
    )

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(1, 5),
        min_count=st.integers(1, 2),
        sentences=st.lists(
            st.lists(st.sampled_from(CORPUS_WORDS), min_size=1, max_size=8),
            min_size=1, max_size=12,
        ),
        docs=st.lists(st.lists(LINES, max_size=8).map("\n".join), max_size=6),
        chunk=st.sampled_from([1, 2, 3, 7, ngram_lm.SCORE_CHUNK]),
    )
    @example(order=5, min_count=2, sentences=[["a", "b", "c"], ["a", "b"], ["d"]],
             docs=["\n".join(["a b c", "", "zz a", "   ", "b", "A B zz c", "d"])],
             chunk=ngram_lm.SCORE_CHUNK)
    @example(order=3, min_count=1, sentences=[["a", "b"]],
             docs=["", "a b\n\n\nb a", "ZZ\n \nA", "", "\n\n"], chunk=3)
    def test_perplexity_equals_sum_of_sentences(self, order, min_count, sentences,
                                                docs, chunk):
        text = [" ".join(s) for s in sentences]
        model = train_kn_sentences(text, order=order, min_count=min_count)
        ref = ReferenceKN(text, order=order, min_count=min_count)
        oracle = RecursiveKN(order, ref.vocab, ref.counts[order], min_count)
        with mock.patch.object(ngram_lm, "SCORE_CHUNK", chunk):
            got = perplexities(
                model, [Document(id=str(i), source="s", text=d) for i, d in enumerate(docs)]
            )
        assert [v.doc_id for v in got] == [str(i) for i in range(len(docs))]
        for doc, v in zip(docs, got):
            lp, n = 0.0, 0
            for line in doc.split("\n"):
                words = line.lower().split()
                if words:
                    slp, sn = oracle.sentence_logprob(words)
                    lp += slp
                    n += sn
            assert v.log_prob == lp and v.n_scored_tokens == n
            if n:
                assert v.perplexity == math.exp(-lp / n)
            else:
                assert v.perplexity == math.inf and v.n_scored_tokens == 0

    @pytest.mark.parametrize("chunk", [50, ngram_lm.SCORE_CHUNK])
    def test_each_scoring_call_bounded_by_one_chunk(self, chunk):
        """No _token_probs call gets more than SCORE_CHUNK positions plus
        one document's, so scoring memory stays flat as the corpus grows;
        the verdicts equal those of scoring each document alone."""
        lang = SyntheticLanguage()
        model = train_kn_sentences(make_training_sentences(n=200, seed=2, lang=lang), order=4)
        rng = np.random.default_rng(8)
        docs = [Document(id=f"d{i}", source="s",
                         text=lang.document(rng, int(rng.integers(1, 9)), 12))
                for i in range(40 if chunk == 50 else 600)]
        docs[3] = Document(id="d3", source="s", text="")
        positions = []
        original = KneserNeyModel._token_probs

        def recording(self, tok):
            positions.append(len(tok))
            return original(self, tok)

        with mock.patch.object(ngram_lm, "SCORE_CHUNK", chunk), \
                mock.patch.object(KneserNeyModel, "_token_probs", recording):
            got = perplexities(model, docs)
        alone = [perplexities(model, [d])[0] for d in docs]
        assert got == alone
        largest = max(v.n_scored_tokens + (model.order - 1) * len(d.text.split("\n"))
                      for v, d in zip(alone, docs))
        assert sum(positions) > 2 * chunk and len(positions) > 2
        assert max(positions) < chunk + largest


class TestWholeTextLowercase:
    """perplexities lowercases a document once, not line by line. Only a
    final sigma makes str.lower read context, and that context stops at a
    line break, so the scored ids must be those of per-line lowercasing."""

    MODEL_WORDS = ["σς", "ας", "σα", "i̇a", "i̇", "ia", "σ"]
    TEXT = st.lists(st.sampled_from(["Σ", "σ", "ς", "İ", "I", "i", "a", "A", "\u0307",
                                     "'", ".", " ", "\t", "\n", "\n\n"]),
                    max_size=40).map("".join)

    @settings(max_examples=200, deadline=None)
    @given(docs=st.lists(TEXT, min_size=1, max_size=4))
    @example(docs=["ΑΣ\nΣΑ", "aΣ\n\nΣ", "İ\nİa Σ", "Σ\n", "\naΣ'\n.Σ"])
    def test_scored_ids_equal_per_line_lowercasing(self, docs):
        for text in docs:
            assert text.lower().split("\n") == [line.lower() for line in text.split("\n")]
        model = train_kn_sentences(self.MODEL_WORDS, order=3, min_count=1)
        scored = []
        original = KneserNeyModel._token_probs

        def recording(self, tok):
            scored.extend(tok.tolist())
            return original(self, tok)

        with mock.patch.object(KneserNeyModel, "_token_probs", recording):
            perplexities(model, [Document(id=str(i), source="s", text=t)
                                 for i, t in enumerate(docs)])
        want = []
        for text in docs:
            for line in text.split("\n"):
                words = line.lower().split()
                if words:
                    want += [model._bos] * (model.order - 1)
                    want += [model.vocab_index.get(w, model._unk) for w in words]
                    want.append(model._eos)
        assert scored == want


def lm_filter(docs, model, policy):
    """(kept, stats) of filter_by_perplexity over *docs*, counted as
    pipeline.run_stage counts the lm_score stage."""
    verdicts, cutoff = filter_by_perplexity(docs, model, policy)
    return tally("lm_score", docs, verdicts, {"cutoff": repr(cutoff)})[:2]


class TestFilter:
    def _docs_and_model(self):
        lang = SyntheticLanguage()
        sentences = make_training_sentences(n=600, seed=11, lang=lang)
        model = train_kn_sentences(sentences, order=5)
        rng = np.random.default_rng(4)
        fluent = [
            Document(id=f"f{i:03d}", source="s", text=lang.document(rng, 4, 12))
            for i in range(50)
        ]
        noisy = [
            Document(id=f"n{i:03d}", source="s",
                     text=shuffle_words(lang.document(rng, 4, 12).replace("\n", " "), rng))
            for i in range(50)
        ]
        return fluent, noisy, model

    def test_infinite_threshold_is_identity(self):
        fluent, noisy, model = self._docs_and_model()
        docs = fluent + noisy
        kept, stats = lm_filter(docs, model, PerplexityPolicy("absolute", math.inf))
        assert len(kept) == 100
        assert stats.rejected_docs == 0

    def test_percentile_zero_keeps_only_minimum(self):
        fluent, noisy, model = self._docs_and_model()
        docs = fluent[:10]
        kept, _ = lm_filter(docs, model, PerplexityPolicy("percentile", 0))
        ppl = {v.doc_id: v.perplexity for v in perplexities(model, docs)}
        best = min(ppl.values())
        assert all(ppl[d.id] == best for d in kept)
        assert len(kept) >= 1

    def test_separates_fluent_from_shuffled(self):
        fluent, noisy, model = self._docs_and_model()
        docs = fluent + noisy
        kept, stats = lm_filter(docs, model, PerplexityPolicy("percentile", 50))
        kept_fluent = sum(1 for d in kept if d.id.startswith("f"))
        assert kept_fluent >= 45

    def test_raising_threshold_is_monotone(self):
        fluent, noisy, model = self._docs_and_model()
        docs = fluent[:20] + noisy[:20]
        kept_low, _ = lm_filter(docs, model, PerplexityPolicy("absolute", 50.0))
        kept_high, _ = lm_filter(docs, model, PerplexityPolicy("absolute", 500.0))
        assert {d.id for d in kept_low} <= {d.id for d in kept_high}

    def test_percentile_with_no_scorable_doc_gives_nan_cutoff(self):
        _, _, model = self._docs_and_model()
        for docs in ([], [Document(id="e", source="s", text=""),
                          Document(id="w", source="s", text=" \n ")]):
            verdicts, cutoff = filter_by_perplexity(
                docs, model, PerplexityPolicy("percentile", 50))
            assert verdicts == ["empty"] * len(docs)
            assert math.isnan(cutoff) and repr(cutoff) == "nan"
        with pytest.raises(ValueError):
            percentile_cutoff([], 50)

    def test_percentile_cutoff_boundaries(self):
        vals = [float(i) for i in range(1, 101)]
        assert percentile_cutoff(vals, 0) == 1.0
        assert percentile_cutoff(vals, 50) == 50.0
        assert percentile_cutoff(vals, 100) == 100.0
