import dataclasses
import tracemalloc
from unittest import mock

from hypothesis import example, given, strategies as st

from corpusprep import pipeline, quality
from corpusprep.config import PipelineConfig
from corpusprep.core import Document, normalize_text
from corpusprep.quality import (
    LATVIAN_DIACRITICS,
    HeuristicConfig,
    char_ratios,
    strip_boilerplate,
)

LATVIAN_PARAGRAPH = (
    "Rīga ir Latvijas galvaspilsēta un lielākā pilsēta visās Baltijas valstīs. "
    "Pilsēta atrodas Daugavas krastos netālu no tās ietekas Rīgas jūras līcī. "
    "Vecrīga ir iekļauta UNESCO pasaules mantojuma sarakstā kopš 1997. gada."
)


def doc(text, **kw):
    return Document(id=kw.pop("id", "d"), source=kw.pop("source", "s"), text=text, **kw)


def apply_heuristics(d, cfg):
    """The verdict on *d*, with its character ratios counted as the filter
    stage counts them."""
    return quality.apply_heuristics(d, cfg, char_ratios([d.text])[0])


class TestStripBoilerplate:
    def test_repeated_short_line_kept_once(self):
        text = "\n".join(["Cookie notice"] * 5 + ["saturs šeit"])
        out = strip_boilerplate(text)
        assert out.split("\n").count("Cookie notice") == 1
        assert "saturs šeit" in out
        assert len(out.split()) == 4

    def test_no_repeats_identity(self):
        text = "pirmā rinda\notrā rinda"
        assert strip_boilerplate(text) == text

    def test_long_lines_never_dropped(self):
        line = "gara rinda " * 10  # > 80 chars
        out = strip_boilerplate(f"{line}\n{line}")
        assert out.count(line.rstrip()) == 2

    def test_golden_cleaned_fixture(self):
        page = "Sākums | Ziņas | Kontakti\nŠodienas galvenā ziņa par laikapstākļiem.\nSākums | Ziņas | Kontakti\nOtrs rindkopas teikums seko šeit.\nSākums | Ziņas | Kontakti"
        expected = "Sākums | Ziņas | Kontakti\nŠodienas galvenā ziņa par laikapstākļiem.\nOtrs rindkopas teikums seko šeit."
        assert strip_boilerplate(page) == expected

    @given(st.lists(st.sampled_from(["a", "bb", "rinda viena", "cita"]), max_size=30))
    def test_idempotent(self, lines):
        once = strip_boilerplate("\n".join(lines))
        assert strip_boilerplate(once) == once


class TestApplyHeuristics:
    def test_too_short(self):
        cfg = HeuristicConfig(min_words=10)
        assert apply_heuristics(doc("tikai trīs vārdi"), cfg) == "too_short"

    def test_digit_ratio(self):
        cfg = HeuristicConfig(min_words=1, max_digit_ratio=0.3, min_alpha_ratio=0.0,
                              min_latvian_char_ratio=0.0)
        d = doc("123 456 789 012 555")
        assert apply_heuristics(d, cfg) == "digit_ratio"

    def test_alpha_checked_before_digit(self):
        # all-digit text violates both; alpha ratio comes first in order
        cfg = HeuristicConfig(min_words=1, max_digit_ratio=0.3, min_alpha_ratio=0.6,
                              min_latvian_char_ratio=0.0)
        assert apply_heuristics(doc("123 456 789"), cfg) == "alpha_ratio"

    def test_fluent_latvian_kept_with_defaults(self):
        # hand-count: 38 words, overwhelmingly alphabetic, diacritics well
        # above 0.5% of letters, no repeated lines
        assert apply_heuristics(doc(LATVIAN_PARAGRAPH), HeuristicConfig()) is None

    def test_latvian_ratio_rejects_english(self):
        text = " ".join(["plain english text without any marks"] * 5)
        assert apply_heuristics(doc(text), HeuristicConfig()) == "latvian_ratio"

    def test_deterministic(self):
        d = doc(LATVIAN_PARAGRAPH)
        cfg = HeuristicConfig()
        assert apply_heuristics(d, cfg) == apply_heuristics(d, cfg)

    @given(
        st.text(alphabet="abā1 \n", min_size=0, max_size=120),
        st.integers(0, 5),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_loosening_never_rejects_kept(self, text, dmin, da, dd):
        base = HeuristicConfig(min_words=5, max_words=50, min_alpha_ratio=0.5,
                               max_digit_ratio=0.4, min_latvian_char_ratio=0.01,
                               max_repeated_line_ratio=0.5)
        loose = dataclasses.replace(
            base,
            min_words=max(0, base.min_words - dmin),
            max_words=base.max_words + dmin,
            min_alpha_ratio=base.min_alpha_ratio * (1 - da),
            max_digit_ratio=min(1.0, base.max_digit_ratio + dd * (1 - base.max_digit_ratio)),
            min_latvian_char_ratio=base.min_latvian_char_ratio * (1 - da),
            max_repeated_line_ratio=min(1.0, base.max_repeated_line_ratio + dd),
        )
        d = doc(text)
        if apply_heuristics(d, base) is None:
            assert apply_heuristics(d, loose) is None


def char_ratios_per_character(text):
    """The per-character loop that char_ratios replaces, kept as its oracle."""
    non_ws = alpha = digit = latvian = 0
    for ch in text:
        if ch.isspace():
            continue
        non_ws += 1
        if ch.isalpha():
            alpha += 1
            if ch.lower() in LATVIAN_DIACRITICS:
                latvian += 1
        elif ch.isdigit():
            digit += 1
    if non_ws == 0:
        return 0.0, 0.0, 0.0
    latvian_ratio = latvian / alpha if alpha else 0.0
    return alpha / non_ws, digit / non_ws, latvian_ratio


def heuristic_ratios(texts):
    """The character ratios that heuristic_verdicts hands apply_heuristics
    for each text; min_words=0 lets texts of no words reach the count."""
    seen = []
    original = quality.apply_heuristics

    def recording(d, cfg, ratios):
        seen.append(ratios)
        return original(d, cfg, ratios)

    with mock.patch.object(quality, "apply_heuristics", recording):
        list(quality.heuristic_verdicts([doc(t) for t in texts], HeuristicConfig(min_words=0)))
    return seen


class TestCharRatios:
    # isdigit() but not a decimal digit (\d): superscripts, circled digits;
    # numeric but neither alpha nor digit: vulgar fractions, roman numerals
    TRICKY = "²³¹①½⅓ⅫĀČĒĢĪĶĻŅŠŪŽāčēģīķļņšūžǅß\u00a0\u2003\t\n٣"
    ASTRAL = ["😀", "𝟗", "𝐀"]

    @given(st.text(max_size=200))
    def test_equals_per_character_loop(self, text):
        assert char_ratios([text]) == [char_ratios_per_character(text)]

    @given(st.text(alphabet=TRICKY + "ab1 ", max_size=200))
    def test_equals_per_character_loop_on_tricky_characters(self, text):
        assert char_ratios([text]) == [char_ratios_per_character(text)]

    # code points on both sides of the class table's bound, the surrogates
    # (which a str may hold alone) and the rest of Unicode
    BOUND = len(quality._CLASS_TABLE)
    CODE_POINTS = st.one_of(
        st.integers(BOUND - 64, BOUND + 63),
        st.integers(0xD800, 0xDFFF),
        st.integers(0, 0x10FFFF),
    ).map(chr)

    @given(
        texts=st.lists(
            st.one_of(
                st.text(alphabet=TRICKY + "ab1 ", max_size=30),
                st.text(max_size=30),
                st.lists(CODE_POINTS, max_size=30).map("".join),
                st.sampled_from(["", " ", "\n", "\u2003", *ASTRAL]),
            ),
            max_size=12,
        ),
        chunk=st.sampled_from([1, 2, 5, 40, quality.RATIO_CHUNK]),
    )
    @example(texts=["", "😀", "𝟗 a", " ", "", TRICKY, "Āb 1"], chunk=2)
    @example(texts=["\u07ff\u0800", chr(0xD83D) + chr(0xDE00) + " ž", "\u3000ア"], chunk=1)
    def test_corpus_pass_equals_per_character_loop(self, texts, chunk):
        with mock.patch.object(quality, "RATIO_CHUNK", chunk):
            got = heuristic_ratios(texts)
        assert got == [char_ratios_per_character(t) for t in texts]

    def test_uppercase_latvian_and_unicode_digits(self):
        alpha, digit, latvian = char_ratios(["ĀČ ab ²½"])[0]
        assert (alpha, digit, latvian) == (4 / 6, 1 / 6, 2 / 4)

    def test_each_counting_pass_bounded_by_one_chunk(self):
        """No chunk holds more than RATIO_CHUNK characters plus one text's,
        and none is sized by the largest code point: a text of one emoji
        costs no table of a million entries."""
        texts = [LATVIAN_PARAGRAPH * (i % 7) + "😀" for i in range(4000)]
        sizes = []
        original = quality._class_counts

        def recording(chunk):
            sizes.append(sum(map(len, chunk)))
            return original(chunk)

        with mock.patch.object(quality, "_class_counts", recording):
            got = heuristic_ratios(texts)
        assert got == [char_ratios_per_character(t) for t in texts]
        assert len(sizes) > 2
        assert max(sizes) < quality.RATIO_CHUNK + max(map(len, texts))
        tracemalloc.start()
        try:
            heuristic_ratios(["\U0010ffff", "😀"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestFilterWordCount:
    @given(st.lists(st.sampled_from(
        ["vārds", "a", "1", "\u0301", "e\u0301", " ", "  ", "\t", "\n", "\r\n", "\r",
         "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u2029", "\u3000",
         "\x0b\x0c", "x" * 81]), max_size=40).map("".join))
    @example("a\x1cb\x85c\xa0d\u2028e\r\nf  \u0301g\n\n\na\x1cb")
    def test_word_count_equals_split(self, text):
        """filter counts its texts' words by their separators; each equals
        the split of the text it writes, whatever whitespace the raw text
        held. A text is set when its verdict is read."""
        filtered = strip_boilerplate(normalize_text(text))
        # the second document keeps its text object, its text already filtered
        docs = [doc(text, id="a"), doc(filtered, id="b")]
        verdicts, _ = pipeline.stage_filter(docs, PipelineConfig(), None)
        list(verdicts)
        assert docs[1].text is filtered
        for d in docs:
            assert d.text == filtered
            assert d.word_count == len(d.text.split())


class TestLengthRuleFirst:
    def test_long_document_reaches_no_ratio_count(self):
        """The filter stage applies the length rule before it counts any
        character: a document over max_words is never counted, is rejected
        too_long, and every verdict equals apply_heuristics' on ratios
        counted for every document."""
        cfg = PipelineConfig(heuristics=HeuristicConfig(min_words=3, max_words=40))
        long_text = " ".join(["garš"] * 41)
        docs = [
            doc(LATVIAN_PARAGRAPH[:200], id="a"),
            doc(long_text, id="long"),
            doc("tikai divi", id="short"),
            doc("123 456 789 abc", id="digits"),
            doc(LATVIAN_PARAGRAPH[:120], id="b"),
        ]
        counted = []
        original = quality._class_counts

        def recording(chunk):
            counted.extend(chunk)
            return original(chunk)

        with mock.patch.object(quality, "_class_counts", recording):
            verdicts, extra = pipeline.stage_filter(docs, cfg, None)
            verdicts = list(verdicts)
        assert long_text not in counted and "tikai divi" not in counted
        assert len(counted) == 3
        assert [d.id for d in docs] == ["a", "long", "short", "digits", "b"]
        assert verdicts == [apply_heuristics(d, cfg.heuristics) for d in docs]
        assert verdicts[1:3] == ["too_long", "too_short"] and extra is None
