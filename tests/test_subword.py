from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from corpusprep import core, pipeline, subword
from corpusprep.core import Document
from corpusprep.subword import (
    SPECIAL_TOKENS,
    SubwordVocab,
    VocabError,
    escape_token,
    load_vocab,
    token_ids,
    tokenize,
    unescape_token,
)
from subword_reference import detokenize, tokenize as reference_tokenize
from synthetic import make_basic_vocab


def write_vocab(vocab, path):
    """Write *vocab* in the vocabulary file format, one escaped piece a line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for piece in vocab.pieces:
            fh.write(escape_token(piece) + "\n")


class TestVocabFile:
    def test_loads_with_expected_size(self, tmp_path):
        tokens = make_basic_vocab(["rīga"], size=32768)
        path = tmp_path / "v.txt"
        path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        v = load_vocab(path, expected_size=32768)
        assert v.size == 32768

    def test_duplicate_entry_names_line(self, tmp_path):
        path = tmp_path / "v.txt"
        tokens = make_basic_vocab()
        tokens.append(tokens[10])
        path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        with pytest.raises(VocabError, match=rf":{len(tokens)}:"):
            load_vocab(path)

    def test_missing_special_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        tokens = [t for t in make_basic_vocab() if t != "<mask>"]
        path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        with pytest.raises(VocabError, match="<mask>"):
            load_vocab(path)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("\n".join(make_basic_vocab()) + "\n", encoding="utf-8")
        with pytest.raises(VocabError, match="size"):
            load_vocab(path, expected_size=99999)

    def test_more_than_u16_ids_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("\n".join(make_basic_vocab(size=65536)) + "\n", encoding="utf-8")
        assert load_vocab(path).size == 65536
        path.write_text("\n".join(make_basic_vocab(size=65537)) + "\n", encoding="utf-8")
        with pytest.raises(VocabError, match="65537 tokens > 65536"):
            load_vocab(path)

    def test_save_load_byte_identical(self, tmp_path, small_vocab):
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        write_vocab(small_vocab, p1)
        write_vocab(load_vocab(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_escape_round_trip(self):
        for token in [b"abc", b"r\xc4\xabga", b"\x00\x01", b"a\\b", b"##x", b"\xff"]:
            assert unescape_token(escape_token(token)) == token


class TestTokenize:
    def test_whole_word_single_token(self, small_vocab, lang):
        word = lang.words[0]
        ids = tokenize(word, small_vocab)
        assert len(ids) == 1
        assert small_vocab.pieces[ids[0]] == word.encode("utf-8")

    def test_empty_string(self, small_vocab):
        assert list(tokenize("", small_vocab)) == []

    def test_longest_match_greedy(self, tmp_path):
        tokens = make_basic_vocab(["abc", "ab"])
        path = tmp_path / "v.txt"
        path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        v = load_vocab(path)
        ids = tokenize("abc", v)
        assert [v.pieces[i] for i in ids] == [b"abc"]

    def test_frozen_golden_sequence(self, small_vocab):
        # frozen from the first run of the greedy matcher on this fixture:
        # "ab" has no whole entry, so two byte pieces; specials+256+##256
        ids = tokenize("ab", small_vocab)
        a_id = small_vocab.initial[b"a"]
        b_cont_id = small_vocab.continuation[b"b"]
        assert list(ids) == [a_id, b_cont_id]

    def test_unmatched_byte_becomes_unk(self, tmp_path):
        tokens = [t for t in make_basic_vocab() if t not in ("q", "##q")]
        path = tmp_path / "v.txt"
        path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        v = load_vocab(path)
        ids = tokenize("q", v)
        assert list(ids) == [v.unk_id]

    def test_byte_recovery_on_unk_free_text(self, small_vocab, lang):
        text = " ".join(lang.words[:20]) + " un vēl kaut-kas 123"
        ids = tokenize(text, small_vocab)
        assert small_vocab.unk_id not in ids
        assert detokenize(ids, small_vocab) == text.encode("utf-8")

    @given(st.lists(st.text(alphabet="abcāšž#\\", min_size=1, max_size=8), min_size=1, max_size=10))
    def test_byte_recovery_property(self, small_vocab, words):
        text = " ".join(words)
        ids = tokenize(text, small_vocab)
        assert detokenize(ids, small_vocab) == text.encode("utf-8")

    @given(st.text(alphabet="abc āš", max_size=40), st.integers(0, 39))
    def test_subadditivity_on_splits(self, small_vocab, text, cut):
        parts = text.split()
        if len(parts) < 2:
            return
        k = cut % (len(parts) - 1) + 1
        a, b = " ".join(parts[:k]), " ".join(parts[k:])
        whole = len(tokenize(a + " " + b, small_vocab))
        assert len(tokenize(a, small_vocab)) + len(tokenize(b, small_vocab)) == whole


def _gappy_vocab() -> SubwordVocab:
    """Byte-fallback vocabulary with multi-byte word-initial and continuation
    pieces, and bytes that have no piece: "q" at word start, 0xAB (second
    byte of "ī") as a continuation, and 0xE2 (lead byte of "€") anywhere."""
    dropped = {"q", "##\\xab", "\\xe2", "##\\xe2"}
    tokens = [t for t in make_basic_vocab() if t not in dropped]
    tokens += ["ab", "abc", "rī", "rīga", "##bc", "##ga", "##ī", "##īg", "##\\xab\\x80"]
    pieces = [unescape_token(t) for t in tokens]
    return SubwordVocab(
        pieces=pieces,
        specials={name: pieces.index(name.encode()) for name in SPECIAL_TOKENS},
    )


_WARM_VOCAB = _gappy_vocab()

# Words the vocabulary knows, their case variants, bytes it lacks and
# arbitrary characters, joined by ASCII and Unicode whitespace
_TOKENIZER_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            ["a", "b", "c", "q", "ab", "abc", "AB", "Abc", "rīga", "RĪGA", "ī",
             "Ī", "€", "ā", "##", " ", "\t", "\n", "\x85", "\u2003", "\xa0",
             "\u3000", "\x1c"]
        ),
        st.characters(),
    ),
    max_size=40,
).map("".join)


class TestTokenizeMatchesReference:
    """The memoized tokenizer against the per-occurrence segmentation kept in
    tests/subword_reference.py, compared with ==."""

    def test_vocab_covers_unk_and_continuations(self):
        v = _gappy_vocab()
        ids = reference_tokenize("qa abc rīga ī €", v)
        assert v.unk_id in ids
        assert any(v.pieces[i].startswith(b"##") for i in ids)

    @given(_TOKENIZER_TEXT)
    @example("ab \ud800 q\udfffab")
    @example("ab AB Ab rīga RĪGA ab")
    def test_fresh_vocab(self, text):
        v = _gappy_vocab()
        assert list(tokenize(text, v)) == reference_tokenize(text, v)

    @given(_TOKENIZER_TEXT)
    @example("ab \ud800 q\udfffab")
    def test_warm_memo(self, text):
        tokenize(text, _WARM_VOCAB)
        assert list(tokenize(text, _WARM_VOCAB)) == reference_tokenize(text, _WARM_VOCAB)

    @given(_TOKENIZER_TEXT)
    @example("ab \ud800 q\udfffab")
    def test_full_memo(self, text):
        v = _gappy_vocab()
        with mock.patch.object(core, "MEMO_WORDS", 2):
            tokenize("ab qab", v)
            assert list(tokenize(text, v)) == reference_tokenize(text, v)
            assert list(tokenize(text, v)) == reference_tokenize(text, v)
        assert len(v._word_ids) == 2

    @pytest.mark.parametrize("bound", [0, 1, 2, None], ids=["0", "1", "2", "default"])
    @given(texts=st.lists(_TOKENIZER_TEXT, min_size=1, max_size=4),
           chars=st.sampled_from([0, 1, 2, None]), long_chars=st.sampled_from([0, 1, 3, None]))
    def test_any_memo_bound(self, bound, texts, chars, long_chars):
        """Any bound on the words stored and on the characters of long ones."""
        v = _gappy_vocab()
        bound = core.MEMO_WORDS if bound is None else bound
        chars = core.MEMO_WORD_CHARS if chars is None else chars
        long_chars = core.MEMO_LONG_CHARS if long_chars is None else long_chars
        with mock.patch.multiple(core, MEMO_WORDS=bound, MEMO_WORD_CHARS=chars,
                                 MEMO_LONG_CHARS=long_chars):
            for text in texts:
                assert list(tokenize(text, v)) == reference_tokenize(text, v)
                assert len(v._word_ids) <= bound
                assert sum(len(w) for w in v._word_ids if len(w) > chars) <= long_chars

    def test_memo_stores_long_words_within_memo_long_chars(self):
        """A word of MEMO_WORD_CHARS characters, whatever its bytes, is
        stored; longer ones while they hold at most MEMO_LONG_CHARS
        characters in all, and after that shorter words still are."""
        v = _gappy_vocab()
        n = core.MEMO_WORD_CHARS
        short = [("ab" * n)[:n], "ī" * n, "€" * n]
        longer = [word + "q" for word in short]
        text = " ".join(longer + short + ["ab"])
        with mock.patch.object(core, "MEMO_LONG_CHARS", 2 * (n + 1)):
            for _ in range(2):  # segmented, then read from the memo or segmented again
                assert list(tokenize(text, v)) == reference_tokenize(text, v)
        assert sorted(v._word_ids) == sorted(longer[:2] + short + ["ab"])

    def test_repeated_long_word_segmented_once(self, monkeypatch):
        segmented, segment = [], subword._segment
        monkeypatch.setattr(subword, "_segment",
                            lambda word, vocab: segmented.append(word) or segment(word, vocab))
        v = _gappy_vocab()
        word = "ab" * 2000
        text = " ".join([word, "q"] * 3)
        assert list(tokenize(text, v)) == reference_tokenize(text, v)
        assert sorted(segmented) == sorted(["q", word])

    def test_lone_surrogate_is_its_surrogatepass_bytes(self):
        v = _gappy_vocab()
        for _ in range(2):  # segmented, then read from the memo
            ids = list(tokenize("a\ud800 \udfff", v))
            assert ids == reference_tokenize("a\ud800 \udfff", v)
            assert v.unk_id not in ids
            assert detokenize(ids, v) == "a\ud800 \udfff".encode("utf-8", "surrogatepass")

    def test_memo_filled_by_tokenize_not_load(self, small_vocab_path):
        v = load_vocab(small_vocab_path)
        assert v._word_ids == {}
        tokenize("ab ab ba", v)
        assert sorted(v._word_ids) == ["ab", "ba"]


def token_count(doc, vocab):
    """The token count the token_count stage sets on *doc* once its verdict
    is read."""
    verdicts, _ = pipeline.stage_token_count([doc], None, pipeline.Loaded(vocab=vocab))
    list(verdicts)
    return doc.token_count


class TestTokenCount:
    def test_empty_doc(self, small_vocab):
        doc = Document(id="d", source="s", text="")
        assert token_count(doc, small_vocab) == 0
        assert doc.token_count == 0

    def test_single_in_vocab_word(self, small_vocab, lang):
        doc = Document(id="d", source="s", text=lang.words[3])
        assert token_count(doc, small_vocab) == 1

    def test_consistent_with_tokenize(self, small_vocab, lang):
        text = " ".join(lang.words[:7])
        doc = Document(id="d", source="s", text=text)
        assert token_count(doc, small_vocab) == len(tokenize(text, small_vocab))


class TestTokenIds:
    """subword.token_ids tokenizes once per (document, vocabulary object)
    and keeps the ids on the document, in memory only."""

    @pytest.fixture
    def tokenized(self, monkeypatch):
        texts = []
        real = subword.tokenize

        def counting(text, vocab, **kwargs):
            texts.append(text)
            return real(text, vocab, **kwargs)

        monkeypatch.setattr(subword, "tokenize", counting)
        return texts

    def test_tokenizes_once_per_doc_and_vocab(self, tokenized, small_vocab, lang):
        text = " ".join(lang.words[:9]) + " qqq"
        doc = Document(id="d", source="s", text=text)
        ids = token_ids(doc, small_vocab)
        assert ids.dtype == np.uint16
        assert ids.tolist() == list(tokenize(text, small_vocab))
        tokenized.clear()
        assert token_ids(doc, small_vocab) is ids
        assert token_count(doc, small_vocab) == len(ids)
        assert tokenized == []

    @pytest.mark.parametrize("text", ["", "ab", "ab ba qqq ab rīga"])
    def test_ids_are_a_writable_contiguous_uint16_array(self, small_vocab, text):
        ids = token_ids(Document(id="d", source="s", text=text), small_vocab)
        assert ids.dtype == np.uint16
        assert ids.flags.writeable and ids.flags.c_contiguous
        assert ids.tolist() == reference_tokenize(text, small_vocab)

    def test_another_vocab_object_tokenizes_again(
        self, tokenized, small_vocab, small_vocab_path
    ):
        doc = Document(id="d", source="s", text="ab ba")
        token_ids(doc, small_vocab)
        other = load_vocab(small_vocab_path)
        assert token_ids(doc, other).tolist() == token_ids(doc, small_vocab).tolist()
        assert tokenized == ["ab ba"] * 3
        assert doc.token_ids[0] is small_vocab

    def test_a_new_text_drops_the_ids(self, tokenized, small_vocab):
        doc = Document(id="d", source="s", text="ab")
        ids = token_ids(doc, small_vocab)
        doc.set_normalized_text("ab")
        assert doc.token_ids[1] is ids
        doc.set_normalized_text("ba")
        assert doc.token_ids is None
        assert token_ids(doc, small_vocab).tolist() == list(tokenize("ba", small_vocab))
        assert tokenized == ["ab", "ba"]

    def test_eq_repr_and_json_ignore_the_ids(self, small_vocab):
        doc = Document(id="d", source="s", text="ab ba", meta={"k": "v"})
        bare = Document(id="d", source="s", text="ab ba", meta={"k": "v"})
        line, text = doc.json_prefix() + doc.json_tail(), repr(doc)
        token_ids(doc, small_vocab)
        assert doc.token_ids is not None
        assert doc == bare
        assert repr(doc) == text
        assert doc.json_prefix() + doc.json_tail() == line
