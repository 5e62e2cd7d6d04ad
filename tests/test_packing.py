import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corpusprep.packing import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    DEFAULT_GEOM_P,
    DEFAULT_MAX_SPAN,
    MaskConfig,
    MaskPlan,
    PackedSequence,
    _span_arrays,
    apply_masking,
    pack_greedy,
    read_packed,
    truncated_geometric_pmf,
    window_rng,
    write_packed,
)
from packing_reference import apply_masking as reference_apply_masking
from packing_reference import pack_greedy as reference_pack_greedy
from synthetic import lognormal_token_docs

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


def sample_spans(
    segment_length, rate, geom_p=DEFAULT_GEOM_P, max_span=DEFAULT_MAX_SPAN, *, rng
):
    """The spans of _span_arrays as a list of (start, length) pairs."""
    starts, lengths = _span_arrays(
        np.array([0]), np.array([segment_length]), rate, geom_p, max_span, rng
    )
    return list(zip(starts.tolist(), lengths.tolist()))


_RATES = st.one_of(st.floats(0.01, 0.95), st.just(0.95), st.just(1.0))


class TestSampleSpans:
    def test_tiny_rate_empty(self):
        rng = np.random.default_rng(0)
        assert sample_spans(100, 0.005, rng=rng) == []

    def test_full_rate_single_position(self):
        rng = np.random.default_rng(0)
        assert sample_spans(1, 1.0, max_span=1, rng=rng) == [(0, 1)]

    def test_spans_non_overlapping_within_bounds(self):
        rng = np.random.default_rng(1)
        spans = sample_spans(500, 0.3, rng=rng)
        occupied = set()
        for start, length in spans:
            assert start >= 0 and start + length <= 500
            cells = set(range(start, start + length))
            assert not cells & occupied
            occupied |= cells

    def test_coverage_hits_target_exactly(self):
        rng = np.random.default_rng(2)
        for L, rate in [(512, 0.3), (1000, 0.15), (257, 0.2)]:
            spans = sample_spans(L, rate, rng=rng)
            assert sum(ln for _, ln in spans) == int(rate * L)

    def test_rate_and_span_length_statistics(self):
        # analytic truncated-geometric mean as the oracle
        pmf = truncated_geometric_pmf(0.2, 10)
        expected_mean = float(np.sum(np.arange(1, 11) * pmf))
        rng = np.random.default_rng(3)
        total = covered = 0
        lengths = []
        for _ in range(1000):
            L = 1000
            spans = sample_spans(L, 0.3, geom_p=0.2, max_span=10, rng=rng)
            total += L
            covered += sum(ln for _, ln in spans)
            lengths.extend(ln for _, ln in spans)
        assert total >= 10**6
        assert abs(covered / total - 0.3) <= 0.005
        assert abs(np.mean(lengths) - expected_mean) <= 0.02 * expected_mean

    def test_span_lengths_follow_truncated_geometric(self):
        pmf = truncated_geometric_pmf(0.2, 10)
        rng = np.random.default_rng(11)
        counts = np.zeros(10)
        for _ in range(2_000):
            for _, ln in sample_spans(1000, 0.3, geom_p=0.2, max_span=10, rng=rng):
                counts[ln - 1] += 1
        total_variation = 0.5 * np.abs(counts / counts.sum() - pmf).sum()
        assert total_variation <= 0.02

    def test_coverage_balanced_across_segment(self):
        # the clamped span must not favour one end of the segment
        L, rate = 80, 0.15
        rng = np.random.default_rng(12)
        covered = np.zeros(L)
        for _ in range(40_000):
            for start, ln in sample_spans(L, rate, rng=rng):
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
        rng = np.random.default_rng(13)
        covered = np.zeros(L)
        for _ in range(segments):
            spans = sample_spans(L, rate, max_span=1, rng=rng)
            assert len(spans) == k
            for start, _ in spans:
                covered[start] += 1
        expected = segments * k / L
        statistic = ((covered - expected) ** 2 / expected).sum() * (L - 1) / (L - k)
        assert statistic < 72.05  # the 0.999 quantile of chi-square(39)

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(0, 120),
        _RATES,
        st.floats(0.05, 0.95),
        st.integers(1, 12),
        st.integers(0, 2**32),
    )
    def test_span_invariants(self, length, rate, geom_p, max_span, seed):
        spans = sample_spans(
            length, rate, geom_p, max_span, rng=np.random.default_rng(seed)
        )
        assert sum(ln for _, ln in spans) == int(rate * length)
        assert all(1 <= ln <= max_span for _, ln in spans)
        ends = [0] + [s + ln for s, ln in spans]
        assert all(end <= s for end, (s, _) in zip(ends, spans))
        assert ends[-1] <= length

    def test_deterministic_given_seed(self):
        a = sample_spans(300, 0.25, rng=np.random.default_rng(9))
        b = sample_spans(300, 0.25, rng=np.random.default_rng(9))
        assert a == b


class TestApplyMasking:
    def _window(self, seed=0, seq_len=512):
        docs = lognormal_token_docs(40, VOCAB, SPECIALS, mean_len=150, seed=seed)
        wins, _ = pack_greedy(docs, seq_len, BOS, EOS, PAD)
        return wins[0]

    def test_span_positions_are_the_sampled_spans(self):
        # one document of ordinary ids: its maskable positions are 1..300
        wins, _ = pack_greedy([("d", list(range(100, 400)))], 512, BOS, EOS, PAD)
        cfg = MaskConfig(scheme="span", rate=0.3)
        _, plan = apply_masking(wins[0], cfg, MASK, SPECIALS, VOCAB, window_rng(5, 0))
        spans = sample_spans(300, cfg.rate, cfg.geom_p, cfg.max_span, rng=window_rng(5, 0))
        assert plan.positions.tolist() == [1 + s + j for s, ln in spans for j in range(ln)]

    def test_zero_positions_identity(self):
        w = self._window()
        cfg = MaskConfig(scheme="token", rate=0.0001)
        masked, plan = apply_masking(
            w, cfg, MASK, SPECIALS, VOCAB, np.random.default_rng(0)
        )
        if not len(plan.positions):
            assert np.array_equal(masked, w.tokens)

    def test_all_mask_action_config(self):
        w = self._window()
        cfg = MaskConfig(scheme="token", rate=0.999, p_mask=1.0, p_random=0.0)
        masked, plan = apply_masking(
            w, cfg, MASK, SPECIALS, VOCAB, np.random.default_rng(0)
        )
        for pos in plan.positions:
            assert masked[pos] == MASK

    def test_specials_and_padding_never_masked(self):
        w = self._window()
        for scheme in ("span", "token"):
            cfg = MaskConfig(scheme=scheme, rate=0.4)
            _, plan = apply_masking(
                w, cfg, MASK, SPECIALS, VOCAB, np.random.default_rng(1)
            )
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
                for i, w in enumerate(wins):
                    _, plan = apply_masking(
                        w, cfg, MASK, SPECIALS, VOCAB, window_rng(seed, i)
                    )
                    assert unk in w.tokens.tolist()
                    assert not SPECIALS & {int(w.tokens[p]) for p in plan.positions}

    def test_random_ids_are_exactly_the_non_special_ids(self):
        specials = frozenset({0, 3, 7, 8, 20})  # not one contiguous run
        docs = [(f"d{i}", [1, 2, 4, 5, 6] * 20) for i in range(4)]
        wins, _ = pack_greedy(docs, 128, bos_id=3, eos_id=7, pad_id=0)
        cfg = MaskConfig(scheme="token", rate=0.5, p_mask=0.0, p_random=1.0)
        drawn = Counter()
        for seed in range(20):
            for i, w in enumerate(wins):
                rng = window_rng(seed, i)
                masked, plan = apply_masking(w, cfg, 8, specials, 25, rng)
                drawn.update(masked[plan.positions].tolist())
        assert set(drawn) == set(range(25)) - specials

    def test_spans_stay_within_document_segments(self):
        w = self._window(seed=2)
        cfg = MaskConfig(scheme="span", rate=0.3)
        _, plan = apply_masking(
            w, cfg, MASK, SPECIALS, VOCAB, np.random.default_rng(2)
        )
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
        rng = np.random.default_rng(3)
        docs = lognormal_token_docs(800, VOCAB, SPECIALS, mean_len=300, seed=4)
        wins, _ = pack_greedy(docs, 512, BOS, EOS, PAD)
        counts = Counter()
        n_positions = 0
        for i, w in enumerate(wins):
            _, plan = apply_masking(
                w, MaskConfig(scheme="token", rate=0.15), MASK, SPECIALS, VOCAB,
                window_rng(77, i),
            )
            counts.update(plan.actions)
            n_positions += len(plan.positions)
        assert n_positions > 20_000
        assert abs(counts[ACTION_MASK] / n_positions - 0.8) <= 0.01
        assert abs(counts[ACTION_RANDOM] / n_positions - 0.1) <= 0.01
        assert abs(counts[ACTION_KEEP] / n_positions - 0.1) <= 0.01

    def test_deterministic_given_window_seed(self):
        w = self._window(seed=5)
        cfg = MaskConfig()
        m1, p1 = apply_masking(w, cfg, MASK, SPECIALS, VOCAB, window_rng(1, 0))
        m2, p2 = apply_masking(w, cfg, MASK, SPECIALS, VOCAB, window_rng(1, 0))
        assert np.array_equal(m1, m2)
        assert np.array_equal(p1.positions, p2.positions)
        assert np.array_equal(p1.actions, p2.actions)


class TestMaskingInvariants:
    """Properties of every mask plan, whatever the generator draws."""

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
        for i, w in enumerate(wins):
            before = w.tokens.copy()
            masked, plan = apply_masking(
                w, cfg, MASK, SPECIALS, 41, window_rng(seed, i)
            )
            assert np.array_equal(w.tokens, before)
            assert masked.dtype == np.uint16 and len(masked) == seq_len
            tokens = before.tolist()
            positions = plan.positions.tolist()
            assert positions == sorted(set(positions))
            for s, e, _ in w.boundaries:
                n_maskable = sum(t not in SPECIALS for t in tokens[s:e])
                in_segment = [p for p in positions if s <= p < e]
                assert len(in_segment) == int(rate * n_maskable)
            assert plan.originals.tolist() == [tokens[p] for p in positions]
            assert len(plan.actions) == len(plan.positions)
            for p, action, orig in zip(plan.positions, plan.actions, plan.originals):
                if action == ACTION_MASK:
                    assert masked[p] == MASK
                elif action == ACTION_RANDOM:
                    assert 0 <= masked[p] < 41 and int(masked[p]) not in SPECIALS
                else:
                    assert action == ACTION_KEEP and masked[p] == orig
            unplanned = sorted(set(range(seq_len)) - set(positions))
            assert masked[unplanned].tolist() == before[unplanned].tolist()


class TestMaskingMatchesReference:
    """apply_masking against the per-segment loop kept in
    tests/packing_reference.py, from the same generator state."""

    @settings(deadline=None, max_examples=200)
    @example([[0] * 30, [50] * 2, list(range(5, 45))], 16, True, "span", 1.0,
             (0.2, 10), 0)
    @example([[0, 60, 0, 61] * 9, [70]], 33, False, "token", 0.05, (0.5, 3), 1)
    @given(
        st.lists(
            st.lists(st.integers(0, 80), min_size=0, max_size=90),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([8, 16, 33, 64, 128]),
        st.booleans(),
        st.sampled_from(["span", "token"]),
        _RATES,
        st.sampled_from([(0.2, 10), (0.5, 3), (0.9, 1), (0.05, 20)]),
        st.integers(0, 2**32),
    )
    def test_equal_to_per_segment_loop(self, docs, seq_len, split, scheme, rate,
                                       span_shape, seed):
        # ids below 5 are specials, <unk> (0) among them, so segments hold
        # unmaskable tokens inside; short segments and low rates give
        # segments whose target is 0, and long documents split windows
        wins, _ = pack_greedy(
            [(f"d{i}", ids) for i, ids in enumerate(docs)],
            seq_len, BOS, EOS, PAD, split=split,
        )
        cfg = MaskConfig(scheme=scheme, rate=rate, geom_p=span_shape[0],
                         max_span=span_shape[1])
        for i, w in enumerate(wins):
            got_rng, want_rng = window_rng(seed, i), window_rng(seed, i)
            got_masked, got = apply_masking(w, cfg, MASK, SPECIALS, 81, got_rng)
            want_masked, want = reference_apply_masking(
                w, cfg, MASK, SPECIALS, 81, want_rng
            )
            assert got_masked.dtype == want_masked.dtype
            assert got_masked.tolist() == want_masked.tolist()
            for name in ("positions", "actions", "originals"):
                g, r = getattr(got, name), getattr(want, name)
                assert g.dtype == r.dtype and g.tolist() == r.tolist(), name
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        docs = lognormal_token_docs(50, VOCAB, SPECIALS, mean_len=100, seed=8)
        wins, _ = pack_greedy(docs, 256, BOS, EOS, PAD)
        cfg = MaskConfig()
        records = []
        for i, w in enumerate(wins):
            masked, plan = apply_masking(
                w, cfg, MASK, SPECIALS, VOCAB, window_rng(5, i)
            )
            records.append((masked, w, plan))
        bin_path = tmp_path / "packed.bin"
        side_path = tmp_path / "packed.meta.jsonl"
        n = write_packed(bin_path, side_path, records, 256)
        assert n == len(wins)
        back = list(read_packed(bin_path))
        assert len(back) == len(wins)
        for rec, (masked, w, plan) in zip(back, records):
            assert np.array_equal(rec["tokens"], masked)
            assert rec["pad_count"] == w.pad_count
            assert rec["boundaries"] == [(s, e) for s, e, _ in w.boundaries]
            assert [m[0] for m in rec["masks"]] == plan.positions.tolist()
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
            positions=[1, 2, 8], actions=[0, 1, 2], originals=[7, 8, 9],
            rate=0.3, scheme="span",
        )
        seq = PackedSequence(
            tokens=np.arange(seq_len, dtype=np.uint16), boundaries=bounds,
            pad_count=4,
        )
        path = tmp_path / "p.bin"
        write_packed(path, tmp_path / "p.meta.jsonl", [(seq.tokens, seq, plan)] * 2, seq_len)
        record = 2 * seq_len + 4 + 8 * len(bounds) + 2 + 5 * len(plan.positions)
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
    @given(st.data(), st.integers(2, 40), st.integers(0, 5))
    def test_round_trip_property(self, tmp_path_factory, data, seq_len, n_windows):
        records = []
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
            plan = MaskPlan(
                positions=positions,
                actions=[data.draw(st.sampled_from([0, 1, 2])) for _ in positions],
                originals=[data.draw(words) for _ in positions],
                rate=0.3,
                scheme="span",
            )
            seq = PackedSequence(
                tokens=tokens.copy(), boundaries=bounds, pad_count=seq_len - n_real
            )
            records.append((tokens, seq, plan))
        out = tmp_path_factory.mktemp("rt")
        n = write_packed(out / "p.bin", out / "p.meta.jsonl", records, seq_len)
        back = list(read_packed(out / "p.bin"))
        assert n == len(back) == n_windows
        for rec, (tokens, seq, plan) in zip(back, records):
            assert rec["tokens"].tolist() == tokens.tolist()
            assert rec["pad_count"] == seq.pad_count
            assert rec["boundaries"] == [(s, e) for s, e, _ in seq.boundaries]
            assert rec["masks"] == list(
                zip(plan.positions, plan.actions, plan.originals)
            )
        side = (out / "p.meta.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["doc_ids"] for line in side] == [
            [d for _, _, d in seq.boundaries] for _, seq, _ in records
        ]
