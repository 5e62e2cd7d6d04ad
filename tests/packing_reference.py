"""The list-based greedy packer and the per-segment masking loop, kept as
test oracles for corpusprep.packing.pack_greedy and apply_masking.

pack_greedy folds each payload into a Python list one window at a time and
turns each full window into its own array, as the package did before it
placed every payload in one flat uint16 array. The array packer must return
``==`` equal token rows, boundaries, pad counts and efficiency on any input.

apply_masking and _span_arrays run every step of a document segment, its
draws and its sorts, cumsums and picks, before the next segment, as the
package did before it computed all but the draws once per window. Given
the same generator state, the package's apply_masking must return equal
masked tokens, positions, actions and originals.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from corpusprep.packing import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    MaskConfig,
    MaskPlan,
    PackedSequence,
    truncated_geometric_pmf,
)


def pack_greedy(
    docs: Iterable[tuple[str, list[int]]],
    seq_len: int,
    bos_id: int,
    eos_id: int,
    pad_id: int,
    split: bool = True,
) -> tuple[list[PackedSequence], float]:
    """Pack (doc_id, token_ids) pairs into seq_len windows.

    Returns the windows and the global packing efficiency (non-pad
    fraction). Documents longer than a window are always chunked; with
    split=False shorter documents never straddle windows.
    """
    if seq_len < 2:
        raise ValueError("seq_len must be >= 2")
    windows: list[PackedSequence] = []
    cur: list[int] = []
    bounds: list = []
    total_nonpad = 0

    def flush():
        nonlocal cur, bounds
        if not cur and not bounds:
            return
        pad_count = seq_len - len(cur)
        tokens = np.asarray(cur + [pad_id] * pad_count, dtype=np.uint16)
        windows.append(
            PackedSequence(tokens=tokens, boundaries=bounds, pad_count=pad_count)
        )
        cur, bounds = [], []

    for doc_id, ids in docs:
        payload = [bos_id] + list(ids) + [eos_id]
        total_nonpad += len(payload)
        if not split and len(payload) <= seq_len:
            if len(payload) > seq_len - len(cur):
                flush()
            start = len(cur)
            cur.extend(payload)
            bounds.append((start, len(cur), doc_id))
            if len(cur) == seq_len:
                flush()
            continue
        # streaming split (and chunking of over-long docs)
        pos = 0
        while pos < len(payload):
            space = seq_len - len(cur)
            if space == 0:
                flush()
                space = seq_len
            take = payload[pos : pos + space]
            start = len(cur)
            cur.extend(take)
            bounds.append((start, len(cur), doc_id))
            pos += len(take)
            if len(cur) == seq_len:
                flush()
    flush()
    total_positions = len(windows) * seq_len
    efficiency = total_nonpad / total_positions if total_positions else 1.0
    return windows, efficiency


def _span_arrays(
    segment_length: int, rate: float, geom_p: float, max_span: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping spans, sorted by start, covering exactly
    floor(rate * segment_length) positions, as two int64 arrays: their
    starts and their lengths.

    Span lengths are truncated-geometric, drawn in one batch and cut where
    they reach the target; the last one is clamped and the lengths are
    shuffled, so the clamped span lands anywhere. The unmasked gaps between
    spans are a uniformly random composition of the rest of the segment.
    The parameters are within MaskConfig's bounds, as load_config checks.
    """
    target = int(rate * segment_length)
    if target <= 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    # searching the cdf without its last value keeps lengths <= max_span
    # when the float cdf ends a hair below 1
    cdf = np.cumsum(truncated_geometric_pmf(geom_p, max_span))[:-1]
    lengths = np.searchsorted(cdf, rng.random(target), side="right") + 1
    ends = np.cumsum(lengths)
    k = int(np.searchsorted(ends, target)) + 1
    lengths = lengths[:k]
    lengths[-1] -= ends[k - 1] - target
    lengths = rng.permutation(lengths)
    # stars and bars: span i is the slot_i-th of k spans among the
    # segment_length - target unmasked positions
    slots = np.sort(rng.choice(segment_length - target + k, size=k, replace=False))
    starts = slots - np.arange(k) + np.cumsum(lengths) - lengths
    return starts, lengths


def apply_masking(
    seq: PackedSequence,
    cfg: MaskConfig,
    mask_id: int,
    special_ids: frozenset,
    vocab_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, MaskPlan]:
    """Produce masked tokens and the plan; input sequence is not modified."""
    specials = np.array(sorted(special_ids), dtype=np.int64)
    special = np.isin(seq.tokens, specials)
    picked = [np.zeros(0, dtype=np.int64)]
    for start, end, _doc_id in seq.boundaries:
        maskable = start + np.flatnonzero(~special[start:end])
        n = len(maskable)
        if cfg.scheme == "span":
            starts, lens = _span_arrays(n, cfg.rate, cfg.geom_p, cfg.max_span, rng)
            # start + j for j < len, for every span at once
            ends = np.cumsum(lens)
            picks = np.repeat(starts - ends + lens, lens) + np.arange(lens.sum())
        else:
            picks = np.sort(rng.choice(n, size=int(cfg.rate * n), replace=False))
        picked.append(maskable[picks])
    positions = np.concatenate(picked)

    u = rng.random(len(positions))
    actions = np.full(len(positions), ACTION_KEEP, dtype=np.uint8)
    actions[u < cfg.p_mask + cfg.p_random] = ACTION_RANDOM
    actions[u < cfg.p_mask] = ACTION_MASK
    masked = seq.tokens.copy()
    masked[positions[actions == ACTION_MASK]] = mask_id
    randomized = positions[actions == ACTION_RANDOM]
    # the r-th non-special id is r plus the count of specials j with
    # specials[j] - j (the non-special ids below it) <= r
    r = rng.integers(0, vocab_size - len(specials), size=len(randomized))
    skip = specials - np.arange(len(specials))
    masked[randomized] = r + np.searchsorted(skip, r, side="right")
    plan = MaskPlan(
        positions=positions,
        actions=actions,
        originals=seq.tokens[positions],
        rate=cfg.rate,
        scheme=cfg.scheme,
    )
    return masked, plan
