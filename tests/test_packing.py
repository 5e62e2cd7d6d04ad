import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corpusprep import core, packing, pipeline
from corpusprep.config import PackConfig, PipelineConfig
from corpusprep.core import Document, draw_below, draw_key, draw_subsets, draw_uniform, draw_words
from corpusprep.packing import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    DEFAULT_GEOM_P,
    DEFAULT_MAX_SPAN,
    MaskConfig,
    MaskPlan,
    PackedSequence,
    _spans,
    apply_masking,
    pack_greedy,
    read_packed,
    truncated_geometric_pmf,
    write_packed,
)
from corpusprep.subword import SPECIAL_TOKENS, SubwordVocab, unescape_token
from packing_reference import pack_greedy as reference_pack_greedy
from synthetic import lognormal_token_docs, make_basic_vocab

BOS, EOS, PAD, MASK = 3, 4, 1, 2
SPECIALS = frozenset({0, 1, 2, 3, 4})
VOCAB = 1000


def toy_docs(lengths, start=100):
    return [
        (f"doc{i}", list(range(start, start + n))) for i, n in enumerate(lengths)
    ]


class TestPackGreedy:
    def test_exact_fit_single_window(self):
        docs = toy_docs([510])  # +bos/eos = 512
        wins, eff = pack_greedy(docs, 512, BOS, EOS, PAD)
        assert len(wins) == 1
        assert eff == 1.0
        assert wins[0].pad_count == 0

    def test_two_half_docs_per_window(self):
        docs = toy_docs([254, 254])
        wins, eff = pack_greedy(docs, 512, BOS, EOS, PAD)
        assert len(wins) == 1
        assert eff == 1.0
        assert wins[0].boundaries == [(0, 256, "doc0"), (256, 512, "doc1")]

    def test_split_streams_across_windows(self):
        docs = toy_docs([300, 300])
        wins, eff = pack_greedy(docs, 512, BOS, EOS, PAD, split=True)
        assert len(wins) == 2
        # doc1 continues in window 2; padding only in final window
        assert wins[0].pad_count == 0
        assert wins[1].pad_count == 512 * 2 - (302 + 302)

    def test_no_split_mode_pads(self):
        docs = toy_docs([300, 300])
        wins, _ = pack_greedy(docs, 512, BOS, EOS, PAD, split=False)
        assert len(wins) == 2
        assert all(len(w.boundaries) == 1 for w in wins)

    def test_overlong_doc_chunked(self):
        docs = toy_docs([2000])
        wins, _ = pack_greedy(docs, 512, BOS, EOS, PAD, split=False)
        assert len(wins) == 4
        ids = [t for w in wins for t in w.tokens.tolist()]
        assert ids.count(PAD) == 4 * 512 - 2002

    def test_token_multiset_conserved(self):
        docs = lognormal_token_docs(300, VOCAB, SPECIALS, mean_len=120, seed=5)
        wins, _ = pack_greedy(docs, 512, BOS, EOS, PAD)
        got = Counter()
        for w in wins:
            body = w.tokens[: 512 - w.pad_count].tolist()
            got.update(t for t in body if t not in (BOS, EOS, PAD))
        want = Counter(t for _, ids in docs for t in ids)
        assert got == want

    def test_boundaries_cover_non_pad_exactly(self):
        docs = lognormal_token_docs(100, VOCAB, SPECIALS, mean_len=90, seed=6)
        wins, _ = pack_greedy(docs, 256, BOS, EOS, PAD)
        for w in wins:
            covered = sorted(
                i for s, e, _ in w.boundaries for i in range(s, e)
            )
            assert covered == list(range(256 - w.pad_count))

    def test_efficiency_above_99_percent(self):
        docs = lognormal_token_docs(2000, VOCAB, SPECIALS, mean_len=400, seed=7)
        for seq_len in (512, 1024):
            wins, eff = pack_greedy(docs, seq_len, BOS, EOS, PAD)
            assert eff > 0.99

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=60), st.sampled_from([64, 128, 512]))
    def test_conservation_property(self, lengths, seq_len):
        docs = toy_docs(lengths)
        wins, eff = pack_greedy(docs, seq_len, BOS, EOS, PAD)
        non_pad = sum(seq_len - w.pad_count for w in wins)
        assert non_pad == sum(lengths) + 2 * len(lengths)
        assert 0 < eff <= 1.0

    @settings(deadline=None, max_examples=120)
    @example((64, []), True, False, 0)
    @given(
        st.sampled_from([2, 3, 64, 512]).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(0, 3 * n), max_size=12)
            )
        ),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def test_matches_reference(self, seq_len_and_lengths, split, as_array, seed):
        """The array packer against the list packer kept in
        tests/packing_reference.py, compared with ==."""
        seq_len, lengths = seq_len_and_lengths
        rng = np.random.default_rng(seed)
        docs = [
            (f"d{i}", rng.integers(0, 2**16, size=n, dtype=np.uint16))
            for i, n in enumerate(lengths)
        ]
        if not as_array:
            docs = [(doc_id, ids.tolist()) for doc_id, ids in docs]
        got, got_eff = pack_greedy(iter(docs), seq_len, BOS, EOS, PAD, split=split)
        want, want_eff = reference_pack_greedy(docs, seq_len, BOS, EOS, PAD, split=split)
        assert got_eff == want_eff
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tokens.dtype == np.uint16
            assert g.tokens.tolist() == w.tokens.tolist()
            assert g.boundaries == w.boundaries
            assert g.pad_count == w.pad_count


def many_spans(
    count, segment_length, rate, geom_p=DEFAULT_GEOM_P, max_span=DEFAULT_MAX_SPAN, *, seed
):
    """The spans of *count* segments of *segment_length* maskable
    positions, each the first segment of one of windows 0..count-1 of the
    run seeded *seed*: a list of (start, length) pairs per segment."""
    keys = np.array([draw_key(seed, i) for i in range(count)], dtype=np.uint64)
    n = np.full(count, segment_length, dtype=np.int64)
    segments, starts, lengths = _spans(
        keys, np.zeros(count, dtype=np.int64), n, (rate * n).astype(np.int64),
        geom_p, max_span,
    )
    out = [[] for _ in range(count)]
    for seg, start, length in zip(segments.tolist(), starts.tolist(), lengths.tolist()):
        out[seg].append((start, length))
    return out


def sample_spans(
    segment_length, rate, geom_p=DEFAULT_GEOM_P, max_span=DEFAULT_MAX_SPAN, *, seed
):
    """The spans of one segment, the first of window 0 of run *seed*."""
    return many_spans(1, segment_length, rate, geom_p, max_span, seed=seed)[0]


_RATES = st.one_of(st.floats(0.01, 0.95), st.just(0.95), st.just(1.0))


class TestSampleSpans:
    def test_tiny_rate_empty(self):
        assert sample_spans(100, 0.005, seed=0) == []

    def test_full_rate_single_position(self):
        assert sample_spans(1, 1.0, max_span=1, seed=0) == [(0, 1)]

    def test_spans_non_overlapping_within_bounds(self):
        spans = sample_spans(500, 0.3, seed=1)
        occupied = set()
        for start, length in spans:
            assert start >= 0 and start + length <= 500
            cells = set(range(start, start + length))
            assert not cells & occupied
            occupied |= cells

    def test_coverage_hits_target_exactly(self):
        for seed, (L, rate) in enumerate([(512, 0.3), (1000, 0.15), (257, 0.2)]):
            spans = sample_spans(L, rate, seed=seed)
            assert sum(ln for _, ln in spans) == int(rate * L)

    def test_rate_and_span_length_statistics(self):
        # analytic truncated-geometric mean as the oracle
        pmf = truncated_geometric_pmf(0.2, 10)
        expected_mean = float(np.sum(np.arange(1, 11) * pmf))
        total = covered = 0
        lengths = []
        L = 1000
        for spans in many_spans(1000, L, 0.3, geom_p=0.2, max_span=10, seed=3):
            total += L
            covered += sum(ln for _, ln in spans)
            lengths.extend(ln for _, ln in spans)
        assert total >= 10**6
        assert abs(covered / total - 0.3) <= 0.005
        assert abs(np.mean(lengths) - expected_mean) <= 0.02 * expected_mean

    def test_span_lengths_follow_truncated_geometric(self):
        pmf = truncated_geometric_pmf(0.2, 10)
        counts = np.zeros(10)
        for spans in many_spans(2_000, 1000, 0.3, geom_p=0.2, max_span=10, seed=11):
            for _, ln in spans:
                counts[ln - 1] += 1
        total_variation = 0.5 * np.abs(counts / counts.sum() - pmf).sum()
        assert total_variation <= 0.02

    def test_coverage_balanced_across_segment(self):
        # the clamped span must not favour one end of the segment
        L, rate = 80, 0.15
        covered = np.zeros(L)
        for spans in many_spans(40_000, L, rate, seed=12):
            for start, ln in spans:
                covered[start : start + ln] += 1
        halves = covered.reshape(2, -1).sum(axis=1) / (40_000 * L / 2)
        assert abs(halves[0] - halves[1]) <= 0.004

    def test_single_position_starts_pass_chi_square(self):
        # With max_span=1 the starts are a uniformly random k-subset of
        # range(L). Each position is then covered with probability k/L per
        # segment, and Pearson's statistic over the per-position counts,
        # scaled by (L-1)/(L-k) for drawing without replacement, is
        # chi-square with L-1 degrees of freedom.
        L, rate, segments = 40, 0.25, 20_000
        k = int(rate * L)
        covered = np.zeros(L)
        for spans in many_spans(segments, L, rate, max_span=1, seed=13):
            assert len(spans) == k
            for start, _ in spans:
                covered[start] += 1
        expected = segments * k / L
        statistic = ((covered - expected) ** 2 / expected).sum() * (L - 1) / (L - k)
        assert statistic < 72.05  # the 0.999 quantile of chi-square(39)

    def test_clamped_span_index_passes_chi_square(self, monkeypatch):
        # Every drawn length is 4, so a target of 21 takes five spans of 4
        # and the clamped one of 1, which must land at each of the 6
        # places equally often: chi-square with 5 degrees of freedom.
        monkeypatch.setattr(packing, "truncated_geometric_pmf",
                            lambda p, max_span: np.array([0.0, 0.0, 0.0, 1.0]))
        segments = 12_000
        places = np.zeros(6)
        for spans in many_spans(segments, 84, 0.25, max_span=4, seed=14):
            lengths = [ln for _, ln in spans]
            assert sorted(lengths) == [1, 4, 4, 4, 4, 4]
            places[lengths.index(1)] += 1
        expected = segments / 6
        assert ((places - expected) ** 2 / expected).sum() < 20.52  # 0.999 quantile

    def test_segments_left_short_draw_again(self, monkeypatch):
        # a segment whose budget of lengths falls short of its target
        # draws more in round 1, and still covers exactly its target
        real, rounds = core.draw_uniform, set()

        def recorded(keys, counters):
            rounds.update((counters >> np.uint64(32) & np.uint64(0xFFFFFF)).tolist())
            return real(keys, counters)

        monkeypatch.setattr(core, "draw_uniform", recorded)
        L, rate, max_span = 60, 0.5, 30
        for spans in many_spans(20_000, L, rate, 0.05, max_span, seed=15):
            assert sum(ln for _, ln in spans) == int(rate * L)
            assert all(1 <= ln <= max_span for _, ln in spans)
        assert rounds == {0, 1}

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(0, 120),
        _RATES,
        st.floats(0.05, 0.95),
        st.integers(1, 12),
        st.integers(0, 2**32),
    )
    def test_span_invariants(self, length, rate, geom_p, max_span, seed):
        spans = sample_spans(length, rate, geom_p, max_span, seed=seed)
        assert sum(ln for _, ln in spans) == int(rate * length)
        assert all(1 <= ln <= max_span for _, ln in spans)
        ends = [0] + [s + ln for s, ln in spans]
        assert all(end <= s for end, (s, _) in zip(ends, spans))
        assert ends[-1] <= length

    def test_deterministic_given_seed(self):
        assert sample_spans(300, 0.25, seed=9) == sample_spans(300, 0.25, seed=9)


def splitmix(key, counter):
    """SplitMix64's finalizer over key + (counter + 1) * gamma, in Python
    ints: the oracle of core.draw_words."""
    mask = (1 << 64) - 1
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def u64(values):
    return np.array(values, dtype=np.uint64)


class TestDraws:
    """core's counter-based draws: known answers, which hold for every
    numpy version, and their laws."""

    def test_known_answers(self):
        # SplitMix64's first outputs from seed 0
        words = draw_words(u64([0] * 5), u64(range(5)))
        assert words.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
                                  0xF88BB8A8724C81EC, 0x1B39896A51A8749B]
        assert draw_key(0, 0) == 0x0E7494F907A55052
        key = draw_key(3701, 5)
        assert key == 0xDB7141D54367F9D6
        counters = [0, 1, 1 << 32, (1 << 64) - 1]
        assert draw_words(u64([key] * 4), u64(counters)).tolist() == [
            0xE1BFE969A9F62D7A, 0x2A8E96FFB11C9727, 0x5906CEFB0540F99A, 0x42AC75391C2705FA]
        assert draw_uniform(u64([0] * 3), u64(range(3))).tolist() == [
            (0xE220A8397B1DCDAF >> 11) * 2.0**-53, (0x6E789E6AA1B965F4 >> 11) * 2.0**-53,
            (0x06C45D188009454F >> 11) * 2.0**-53]
        values, used = draw_below(u64([0] * 8), u64(range(8)), u64(10))
        assert values.tolist() == [8, 4, 0, 9, 1, 3, 1, 7]
        assert used.tolist() == list(range(8))
        # at bound 3 * 2**30 a quarter of the words are rejected; counters
        # 2, 3, 5, 8, 9 and 11 are drawn again in round 1
        values, used = draw_below(u64([0] * 12), u64(range(12)), u64(3 << 30))
        assert values.tolist() == [2845343274, 1390048975, 1936869104, 376792772,
                                   342566671, 1779308141, 560067598, 2485325419,
                                   2909726665, 2482323408, 1277112741, 89298014]
        assert (used >> np.uint64(32)).tolist() == [0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1]

    def test_masking_known_answer(self):
        wins, _ = pack_greedy([("d", list(range(100, 130)))], 32, BOS, EOS, PAD)
        masked, plan = apply_masking(wins, MaskConfig(), MASK, SPECIALS, VOCAB, 3701, 0)
        # 30 ids, 9 masked: spans of 4 and 5, actions 0 = mask, 1 = random
        assert plan.positions.tolist() == [8, 9, 10, 11, 22, 23, 24, 25, 26]
        assert plan.actions.tolist() == [0, 0, 0, 0, 0, 2, 0, 1, 1]
        assert masked[0][plan.positions].tolist() == [2, 2, 2, 2, 2, 122, 2, 497, 510]

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                    min_size=1, max_size=20),
           st.integers(1, 2**32))
    def test_words_and_bounded_integers_match_python_ints(self, addresses, bound):
        keys, counters = u64([a for a, _ in addresses]), u64([c for _, c in addresses])
        assert draw_words(keys, counters).tolist() == [splitmix(k, c) for k, c in addresses]
        values, used = draw_below(keys, counters, u64(bound))
        for (key, counter), value, last in zip(addresses, values.tolist(), used.tolist()):
            while True:  # Lemire's rejection, one round at a time
                product = (splitmix(key, counter) >> 32) * bound
                if product & 0xFFFFFFFF >= (1 << 32) % bound:
                    break
                counter = (counter + (1 << 32)) & ((1 << 64) - 1)
            assert (value, last) == (product >> 32, counter)

    @pytest.mark.parametrize("bound, cells, quantile", [
        # 0.999 quantiles of chi-square(cells - 1); above 2**30, values are
        # binned by their top bits, the last cell of 2**32 - 1 one short
        (3, 3, 13.82),
        (10, 10, 27.88),
        (2**32 - 1, 16, 37.70),
        # rejects a quarter of the words
        (3 << 30, 3, 13.82),
    ])
    def test_bounded_integers_pass_chi_square(self, bound, cells, quantile):
        draws = 60_000
        values, _ = draw_below(u64([draw_key(7, bound)]), u64(range(draws)), u64(bound))
        assert values.max() < bound
        counts = np.bincount((values * u64(cells) // u64(bound)).astype(np.int64), minlength=cells)
        expected = draws / cells
        assert ((counts - expected) ** 2 / expected).sum() < quantile

    @pytest.mark.parametrize("k", [2, 3])
    def test_subsets_of_five_pass_chi_square(self, k):
        # drawn directly (k = 2) or as the complement of a 2-subset (k = 3);
        # each of the 10 subsets equally likely: chi-square(9)
        groups = 20_000
        chosen = draw_subsets(u64([draw_key(8, k)] * groups), u64(range(groups)) << u64(16),
                              np.full(groups, 5), np.full(groups, k))
        assert len(chosen) == k * groups
        within = (chosen - np.repeat(np.arange(groups) * 5, k)).reshape(groups, k)
        assert (np.diff(within, axis=1) > 0).all()
        counts = Counter(map(tuple, within.tolist()))
        assert len(counts) == 10
        expected = groups / 10
        assert sum((c - expected) ** 2 / expected for c in counts.values()) < 27.88

    def test_empty_and_full_subsets(self):
        chosen = draw_subsets(u64([1, 2, 3, 4]), u64([0, 0, 0, 0]),
                              np.array([0, 4, 4, 3]), np.array([0, 0, 4, 1]))
        # group starts 0, 0, 4, 8: nothing, nothing, all of 4..7, one of 8..10
        assert chosen[:4].tolist() == [4, 5, 6, 7]
        assert len(chosen) == 5 and 8 <= chosen[4] <= 10


class TestApplyMasking:
    def _window(self, seed=0, seq_len=512):
        docs = lognormal_token_docs(40, VOCAB, SPECIALS, mean_len=150, seed=seed)
        wins, _ = pack_greedy(docs, seq_len, BOS, EOS, PAD)
        return wins[0]

    def test_span_positions_are_the_sampled_spans(self):
        # one document of ordinary ids: its maskable positions are 1..300
        wins, _ = pack_greedy([("d", list(range(100, 400)))], 512, BOS, EOS, PAD)
        cfg = MaskConfig(scheme="span", rate=0.3)
        _, plan = apply_masking(wins, cfg, MASK, SPECIALS, VOCAB, 5, 0)
        spans = sample_spans(300, cfg.rate, cfg.geom_p, cfg.max_span, seed=5)
        assert plan.positions.tolist() == [1 + s + j for s, ln in spans for j in range(ln)]

    def test_zero_positions_identity(self):
        w = self._window()
        cfg = MaskConfig(scheme="token", rate=0.0001)
        masked, plan = apply_masking([w], cfg, MASK, SPECIALS, VOCAB, 0, 0)
        assert len(plan.positions) == 0 and plan.counts.tolist() == [0]
        assert np.array_equal(masked[0], w.tokens)

    def test_all_mask_action_config(self):
        w = self._window()
        cfg = MaskConfig(scheme="token", rate=0.999, p_mask=1.0, p_random=0.0)
        masked, plan = apply_masking([w], cfg, MASK, SPECIALS, VOCAB, 0, 0)
        for pos in plan.positions:
            assert masked[0][pos] == MASK

    def test_specials_and_padding_never_masked(self):
        w = self._window()
        for scheme in ("span", "token"):
            cfg = MaskConfig(scheme=scheme, rate=0.4)
            _, plan = apply_masking([w], cfg, MASK, SPECIALS, VOCAB, 1, 0)
            for pos in plan.positions:
                assert int(w.tokens[pos]) not in SPECIALS
                assert pos < len(w.tokens) - w.pad_count

    def test_unk_inside_documents_never_masked(self):
        # the tokenizer emits <unk> (a special id) inside documents
        unk = 0
        docs = []
        for i in range(12):
            ids = list(range(100 + i, 140 + i))
            ids[7] = ids[19] = ids[30] = unk
            docs.append((f"doc{i}", ids))
        wins, _ = pack_greedy(docs, 128, BOS, EOS, PAD)
        for scheme in ("span", "token"):
            cfg = MaskConfig(scheme=scheme, rate=0.5)
            for seed in range(50):
                _, plan = apply_masking(wins, cfg, MASK, SPECIALS, VOCAB, seed, 0)
                ends = np.cumsum(plan.counts)
                for w, n, end in zip(wins, plan.counts, ends):
                    assert unk in w.tokens.tolist()
                    positions = plan.positions[end - n:end]
                    assert not SPECIALS & {int(w.tokens[p]) for p in positions}

    def test_random_ids_are_exactly_the_non_special_ids(self):
        specials = frozenset({0, 3, 7, 8, 20})  # not one contiguous run
        docs = [(f"d{i}", [1, 2, 4, 5, 6] * 20) for i in range(4)]
        wins, _ = pack_greedy(docs, 128, bos_id=3, eos_id=7, pad_id=0)
        cfg = MaskConfig(scheme="token", rate=0.5, p_mask=0.0, p_random=1.0)
        drawn = Counter()
        for seed in range(20):
            masked, plan = apply_masking(wins, cfg, 8, specials, 25, seed, 0)
            window = np.repeat(np.arange(len(wins)), plan.counts)
            drawn.update(masked[window, plan.positions].tolist())
        assert set(drawn) == set(range(25)) - specials

    def test_only_specials_or_zero_targets_mask_nothing(self):
        # a vocabulary of the five specials alone: no id can be drawn, and
        # no position is maskable
        docs = [(f"d{i}", [0, 1, 2, 3, 4] * (i + 1)) for i in range(6)]
        wins, _ = pack_greedy(docs, 16, BOS, EOS, PAD)
        # segments of 1..3 ordinary ids, whose target floor(0.3 * n) is 0
        short = [(f"s{i}", [100 + i] * (1 + i % 3)) for i in range(9)]
        short_wins, _ = pack_greedy(short, 16, BOS, EOS, PAD)
        for scheme in ("span", "token"):
            cfg = MaskConfig(scheme=scheme, rate=0.3)
            for windows, vocab_size in ((wins, 5), (short_wins, VOCAB)):
                masked, plan = apply_masking(windows, cfg, MASK, SPECIALS, vocab_size, 3, 0)
                assert len(plan.positions) == 0
                assert plan.counts.tolist() == [0] * len(windows)
                assert masked.tolist() == [w.tokens.tolist() for w in windows]

    def test_spans_stay_within_document_segments(self):
        w = self._window(seed=2)
        cfg = MaskConfig(scheme="span", rate=0.3)
        _, plan = apply_masking([w], cfg, MASK, SPECIALS, VOCAB, 2, 0)
        segments = [(s, e) for s, e, _ in w.boundaries]
        runs = []
        for pos in plan.positions:
            if runs and runs[-1][1] == pos:
                runs[-1] = (runs[-1][0], pos + 1)
            else:
                runs.append((pos, pos + 1))
        for start, end in runs:
            assert any(s <= start and end <= e for s, e in segments)

    def test_action_split_statistics(self):
        docs = lognormal_token_docs(800, VOCAB, SPECIALS, mean_len=300, seed=4)
        wins, _ = pack_greedy(docs, 512, BOS, EOS, PAD)
        _, plan = apply_masking(
            wins, MaskConfig(scheme="token", rate=0.15), MASK, SPECIALS, VOCAB, 77, 0
        )
        counts = Counter(plan.actions.tolist())
        n_positions = len(plan.positions)
        assert n_positions > 20_000
        assert abs(counts[ACTION_MASK] / n_positions - 0.8) <= 0.01
        assert abs(counts[ACTION_RANDOM] / n_positions - 0.1) <= 0.01
        assert abs(counts[ACTION_KEEP] / n_positions - 0.1) <= 0.01

    def test_deterministic_given_window_seed(self):
        w = self._window(seed=5)
        cfg = MaskConfig()
        m1, p1 = apply_masking([w], cfg, MASK, SPECIALS, VOCAB, 1, 0)
        m2, p2 = apply_masking([w], cfg, MASK, SPECIALS, VOCAB, 1, 0)
        assert np.array_equal(m1, m2)
        assert np.array_equal(p1.positions, p2.positions)
        assert np.array_equal(p1.actions, p2.actions)


class TestMaskingInvariants:
    """Properties of every mask plan, whatever the draws."""

    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(
            st.lists(st.integers(0, 40), min_size=0, max_size=60),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([8, 16, 33, 64]),
        st.booleans(),
        st.sampled_from(["span", "token"]),
        _RATES,
        st.sampled_from([(0.8, 0.1), (1.0, 0.0), (0.0, 1.0), (0.3, 0.3)]),
        st.integers(0, 2**32),
    )
    def test_plan_invariants(self, docs, seq_len, split, scheme, rate, action_p, seed):
        # ids 0..40 include the specials, so segments hold special tokens
        # inside as well as at their edges
        wins, _ = pack_greedy(
            [(f"d{i}", ids) for i, ids in enumerate(docs)],
            seq_len, BOS, EOS, PAD, split=split,
        )
        cfg = MaskConfig(
            scheme=scheme, rate=rate, p_mask=action_p[0], p_random=action_p[1]
        )
        before_all = [w.tokens.copy() for w in wins]
        rows, plan = apply_masking(wins, cfg, MASK, SPECIALS, 41, seed, 0)
        assert rows.dtype == np.uint16 and rows.shape == (len(wins), seq_len)
        assert len(plan.actions) == len(plan.originals) == len(plan.positions)
        assert sum(plan.counts) == len(plan.positions)
        ends = np.cumsum(plan.counts).tolist()
        for w, before, masked, n, end in zip(wins, before_all, rows, plan.counts, ends):
            assert np.array_equal(w.tokens, before)
            tokens = before.tolist()
            positions = plan.positions[end - n:end].tolist()
            assert positions == sorted(set(positions))
            for s, e, _ in w.boundaries:
                n_maskable = sum(t not in SPECIALS for t in tokens[s:e])
                in_segment = [p for p in positions if s <= p < e]
                assert len(in_segment) == int(rate * n_maskable)
            originals = plan.originals[end - n:end].tolist()
            assert originals == [tokens[p] for p in positions]
            for p, action, orig in zip(positions, plan.actions[end - n:end], originals):
                if action == ACTION_MASK:
                    assert masked[p] == MASK
                elif action == ACTION_RANDOM:
                    assert 0 <= masked[p] < 41 and int(masked[p]) not in SPECIALS
                else:
                    assert action == ACTION_KEEP and masked[p] == orig
            unplanned = sorted(set(range(seq_len)) - set(positions))
            assert masked[unplanned].tolist() == before[unplanned].tolist()


@pytest.fixture(scope="module")
def packing_vocab() -> SubwordVocab:
    pieces = [unescape_token(t) for t in make_basic_vocab()]
    return SubwordVocab(pieces=pieces, specials={t: i for i, t in enumerate(SPECIAL_TOKENS)})


class TestChunkedMasking:
    """A window's masking depends on the seed, its number, its tokens and
    boundaries and the mask config, never on the windows masked with it."""

    @settings(deadline=None, max_examples=60)
    @example([[0] * 30, [50] * 2, list(range(5, 45))], 16, True, "span", 1.0, 0)
    @example([[0, 60, 0, 61] * 9, [70]], 33, False, "token", 0.05, 1)
    @given(
        st.lists(st.lists(st.integers(0, 80), max_size=90), min_size=1, max_size=8),
        st.sampled_from([8, 16, 33, 64, 128]),
        st.booleans(),
        st.sampled_from(["span", "token"]),
        _RATES,
        st.integers(0, 2**32),
    )
    def test_mask_chunk_does_not_change_the_output(
        self, tmp_path_factory, packing_vocab, docs, seq_len, split, scheme, rate, seed
    ):
        # ids below 5 are specials, <unk> (0) among them; short segments
        # and low rates give segments whose target is 0
        vocab = packing_vocab
        cfg = PipelineConfig(seed=seed, pack=PackConfig(
            seq_len=seq_len, split=split, mask=MaskConfig(scheme=scheme, rate=rate)))
        out = tmp_path_factory.mktemp("chunks")
        real, calls, written = packing.apply_masking, [], []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        for limit in (1, 1 << 40):
            docs_in = [Document(id=f"d{i}", source="s", text="",
                                token_ids=(vocab, np.array(ids, dtype=np.uint16)))
                       for i, ids in enumerate(docs)]
            calls.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(pipeline, "MASK_CHUNK", limit)
                m.setattr(packing, "apply_masking", counted)
                report = pipeline.pack_docs(docs_in, cfg, out / f"{limit}.bin", vocab)
            # one window per call, then all windows in one
            assert calls == ([1] * report["windows"] if limit == 1 else [report["windows"]])
            written.append(((out / f"{limit}.bin").read_bytes(),
                            (out / f"{limit}.meta.jsonl").read_bytes()))
        assert written[0] == written[1]

    def test_window_alone_is_its_slice_of_a_chunk(self):
        docs = lognormal_token_docs(120, VOCAB, SPECIALS, mean_len=150, seed=21)
        wins, _ = pack_greedy(docs, 256, BOS, EOS, PAD)
        for scheme in ("span", "token"):
            cfg = MaskConfig(scheme=scheme)
            rows, plan = apply_masking(wins, cfg, MASK, SPECIALS, VOCAB, 9, 0)
            ends = np.cumsum(plan.counts)
            for i in (0, 1, len(wins) // 2, len(wins) - 1):
                alone_rows, alone = apply_masking(wins[i:i + 1], cfg, MASK, SPECIALS, VOCAB, 9, i)
                part = slice(ends[i] - plan.counts[i], ends[i])
                assert alone_rows.tolist() == rows[i:i + 1].tolist()
                assert alone.counts.tolist() == [plan.counts[i]]
                for name in ("positions", "actions", "originals"):
                    assert getattr(alone, name).tolist() == getattr(plan, name)[part].tolist()
            # the window's number is part of its draws
            other, _ = apply_masking(wins[1:2], cfg, MASK, SPECIALS, VOCAB, 9, 2)
            assert other.tolist() != rows[1:2].tolist()


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        docs = lognormal_token_docs(50, VOCAB, SPECIALS, mean_len=100, seed=8)
        wins, _ = pack_greedy(docs, 256, BOS, EOS, PAD)
        cfg = MaskConfig()
        # lists of 3 windows, as pack_docs hands them on
        records = []
        for first in range(0, len(wins), 3):
            chunk = wins[first:first + 3]
            rows, plan = apply_masking(chunk, cfg, MASK, SPECIALS, VOCAB, 5, first)
            records.append((rows, chunk, plan))
        bin_path = tmp_path / "packed.bin"
        side_path = tmp_path / "packed.meta.jsonl"
        n = write_packed(bin_path, side_path, records, 256)
        assert n == len(wins)
        back = iter(read_packed(bin_path))
        for rows, chunk, plan in records:
            ends = np.cumsum(plan.counts)
            for masked, w, count, end in zip(rows, chunk, plan.counts, ends):
                rec = next(back)
                assert np.array_equal(rec["tokens"], masked)
                assert rec["pad_count"] == w.pad_count
                assert rec["boundaries"] == [(s, e) for s, e, _ in w.boundaries]
                assert [m[0] for m in rec["masks"]] == plan.positions[end - count:end].tolist()
        assert next(back, None) is None
        side_lines = side_path.read_text().strip().split("\n")
        assert len(side_lines) == len(wins)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(ValueError, match="magic"):
            list(read_packed(p))

    @pytest.mark.parametrize("part", ["tokens", "counts", "bounds", "masks"])
    def test_truncated_file_rejected(self, tmp_path, part):
        seq_len = 16
        bounds = [(0, 6, "a"), (6, 12, "b")]
        plan = MaskPlan(
            positions=[1, 2, 8, 1, 2, 8], actions=[0, 1, 2] * 2, originals=[7, 8, 9] * 2,
            counts=[3, 3], rate=0.3, scheme="span",
        )
        seq = PackedSequence(
            tokens=np.arange(seq_len, dtype=np.uint16), boundaries=bounds,
            pad_count=4,
        )
        path = tmp_path / "p.bin"
        rows = np.stack([seq.tokens] * 2)
        write_packed(path, tmp_path / "p.meta.jsonl", [(rows, [seq, seq], plan)], seq_len)
        record = 2 * seq_len + 4 + 8 * len(bounds) + 2 + 5 * 3
        header = 10
        assert path.stat().st_size == header + 2 * record
        into_record = {
            "tokens": seq_len,
            "counts": 2 * seq_len + 2,
            "bounds": 2 * seq_len + 4 + 12,
            "masks": record - 3,
        }[part]
        data = path.read_bytes()
        path.write_bytes(data[: header + record + into_record])
        with pytest.raises(ValueError, match=r"p\.bin: window 1 truncated"):
            list(read_packed(path))

    @settings(deadline=None, max_examples=100)
    @given(st.data(), st.integers(2, 40), st.integers(0, 5), st.booleans())
    def test_round_trip_property(self, tmp_path_factory, data, seq_len, n_windows, one_record):
        windows = []
        for _ in range(n_windows):
            # non-pad prefix cut into document segments; the rest is padding,
            # up to a window that is all padding
            n_real = data.draw(st.integers(0, seq_len))
            cuts = data.draw(
                st.lists(st.integers(1, max(n_real - 1, 1)), max_size=4, unique=True)
            )
            edges = sorted({0, n_real, *[c for c in cuts if c < n_real]})
            bounds = [(a, b, f"doc{a}") for a, b in zip(edges, edges[1:])]
            words = st.integers(0, 65535)
            tokens = np.array(
                data.draw(st.lists(words, min_size=seq_len, max_size=seq_len)),
                dtype=np.uint16,
            )
            positions = sorted(
                data.draw(st.sets(st.integers(0, max(n_real - 1, 0)), max_size=n_real))
            )
            masks = [(p, data.draw(st.sampled_from([0, 1, 2])), data.draw(words))
                     for p in positions]
            seq = PackedSequence(
                tokens=tokens.copy(), boundaries=bounds, pad_count=seq_len - n_real
            )
            windows.append((tokens, seq, masks))

        def record(group):
            """The windows of *group* as one write_packed record."""
            masks = [m for _, _, window_masks in group for m in window_masks]
            plan = MaskPlan(
                positions=[p for p, _, _ in masks],
                actions=[a for _, a, _ in masks],
                originals=[o for _, _, o in masks],
                counts=[len(window_masks) for _, _, window_masks in group],
                rate=0.3,
                scheme="span",
            )
            rows = np.array([t for t, _, _ in group], dtype=np.uint16).reshape(-1, seq_len)
            return rows, [seq for _, seq, _ in group], plan

        if one_record:
            records = [record(windows)] if windows else []
        else:
            records = [record([w]) for w in windows]
        out = tmp_path_factory.mktemp("rt")
        n = write_packed(out / "p.bin", out / "p.meta.jsonl", records, seq_len)
        back = list(read_packed(out / "p.bin"))
        assert n == len(back) == n_windows
        for rec, (tokens, seq, masks) in zip(back, windows):
            assert rec["tokens"].tolist() == tokens.tolist()
            assert rec["pad_count"] == seq.pad_count
            assert rec["boundaries"] == [(s, e) for s, e, _ in seq.boundaries]
            assert rec["masks"] == masks
        side = (out / "p.meta.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["doc_ids"] for line in side] == [
            [d for _, _, d in seq.boundaries] for _, seq, _ in windows
        ]
        assert [json.loads(line)["n_masked"] for line in side] == [
            len(masks) for _, _, masks in windows
        ]
