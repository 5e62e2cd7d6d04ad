"""Greedy sequence packing and span/token mask plan generation.

Packing is a sequential first-fit fold: each document's token payload
(wrapped in <s>/</s> boundary specials) streams into fixed-length windows.
With splitting enabled a document that does not fit continues in the next
window, so padding only ever occupies the tail of the final window and
global efficiency stays above 99% on any realistic corpus. The windows are
the rows of one flat uint16 array: one pass of integer arithmetic gives
each payload its start, one slice assignment copies it in, and its
boundaries are cut at multiples of seq_len.

Mask plans select floor(rate * maskable) positions per document segment,
where maskable excludes every special id, <unk> inside a document included.
The span scheme covers the maskable positions with truncated-geometric spans
placed as a uniformly random composition of the unmasked gaps (T5's
random_spans_noise_mask); the token scheme picks positions uniformly. Each
selected position gets a mask/random/keep action (default 80/10/10). Spans
never cross document boundaries.

``apply_masking`` masks a list of consecutive windows in one array pass:
a lookup table finds the maskable positions, one search cuts them into
segments, and every segment's span lengths, gap slots (or, for tokens,
positions), actions and random ids are drawn at once. The draws are
core's counter-based ones: a window's key comes from the run seed and its
number, and a draw's counter holds its kind, its segment within the
window, its index and its round. So a window's masking depends only on
the seed, its number, its tokens and boundaries and the mask config, not
on the windows masked with it, nor on numpy's random generators.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Annotated, Iterable, Iterator, Literal, Sequence

import numpy as np

from corpusprep import core
from corpusprep.core import canonical_json, open_replacing

DEFAULT_GEOM_P = 0.2
DEFAULT_MAX_SPAN = 10

# packed.bin stores window positions and pad_count as u16
MAX_SEQ_LEN = 65535

ACTION_MASK = 0
ACTION_RANDOM = 1
ACTION_KEEP = 2


@dataclass
class PackedSequence:
    tokens: np.ndarray  # uint16, length seq_len
    boundaries: list  # [(start, end, doc_id)], end exclusive
    pad_count: int


def pack_greedy(
    docs: Iterable[tuple[str, Sequence[int]]],
    seq_len: int,
    bos_id: int,
    eos_id: int,
    pad_id: int,
    split: bool = True,
) -> tuple[list[PackedSequence], float]:
    """Pack (doc_id, token_ids) pairs into seq_len windows; the ids may be
    a list or an array.

    Returns the windows and the global packing efficiency (non-pad
    fraction). Documents longer than a window are always chunked; with
    split=False shorter documents never straddle windows. *seq_len* is at
    least 2, as load_config checks.
    """
    # Each payload <s> ids </s> gets a start in one flat stream of windows;
    # without split, one that fits a window but would straddle two starts
    # at the next window, leaving the rest of this one as padding.
    payloads = []
    end = 0
    for doc_id, ids in docs:
        ids = np.asarray(ids, dtype=np.uint16)
        length = len(ids) + 2
        offset = end % seq_len
        if not split and length <= seq_len < offset + length:
            end += seq_len - offset
        payloads.append((end, ids, doc_id))
        end += length
    n_windows = -(-end // seq_len)
    flat = np.full(n_windows * seq_len, pad_id, dtype=np.uint16)
    bounds: list = [[] for _ in range(n_windows)]
    total_nonpad = 0
    for start, ids, doc_id in payloads:
        stop = start + len(ids) + 2
        flat[start] = bos_id
        flat[start + 1 : stop - 1] = ids
        flat[stop - 1] = eos_id
        total_nonpad += stop - start
        # cut the payload at window edges
        for w in range(start // seq_len, (stop - 1) // seq_len + 1):
            base = w * seq_len
            bounds[w].append(
                (max(start, base) - base, min(stop, base + seq_len) - base, doc_id)
            )
    rows = flat.reshape(n_windows, seq_len)
    windows = [
        PackedSequence(tokens=row, boundaries=b, pad_count=seq_len - b[-1][1])
        for row, b in zip(rows, bounds)
    ]
    total_positions = n_windows * seq_len
    efficiency = total_nonpad / total_positions if total_positions else 1.0
    return windows, efficiency


def truncated_geometric_pmf(p: float, max_span: int) -> np.ndarray:
    """pmf over span lengths 1..max_span, geometric(p) renormalized."""
    lengths = np.arange(1, max_span + 1)
    pmf = p * (1.0 - p) ** (lengths - 1)
    return pmf / pmf.sum()


# A draw's counter: its kind in bits 56..63, its round in bits 32..55
# (core.ROUND), its segment's number within the window in bits 16..31 and
# its index in bits 0..15; the window is the key. Segments, span lengths,
# slots and window positions all number fewer than 2**16.
_LENGTHS, _CLAMPED, _SLOTS, _PICKS, _ACTIONS, _IDS = (
    np.uint64(kind) << np.uint64(56) for kind in range(6)
)
_S16 = np.uint64(16)


def _counters(kind: np.uint64, number: np.ndarray, index=None) -> np.ndarray:
    """Round-0 counters of the draws of *kind* at *index* (0 if None) in
    the segments numbered *number*, int64 arrays of one length."""
    counters = kind | (number.astype(np.uint64) << _S16)
    return counters if index is None else counters | index.astype(np.uint64)


def _spans(keys, number, n, target, geom_p: float, max_span: int):
    """Non-overlapping spans covering exactly target[s] of the n[s]
    positions of each segment s, its draws keyed keys[s] and numbered
    number[s]; returns each span's segment, its start among the segment's
    positions and its length, int64 arrays grouped by segment and sorted
    by start.

    Lengths are truncated-geometric, drawn until they reach the target:
    each segment draws a budget of them at once, about three standard
    deviations past its expected count, and a segment the budget leaves
    short draws again in the next round. The last length is clamped to the
    target, then swapped with a uniformly chosen one of its segment: the
    others are exchangeable, so that is the law of shuffling them all. The
    unmasked gaps between spans are a uniformly random composition of the
    rest of the segment (T5's random_spans_noise_mask). The parameters are
    within MaskConfig's bounds, as load_config checks.
    """
    pmf = truncated_geometric_pmf(geom_p, max_span)
    # searching the cdf without its last value keeps lengths <= max_span
    # when the float cdf ends a hair below 1
    cdf = np.cumsum(pmf)[:-1]
    mean = float(pmf @ np.arange(1, max_span + 1))
    sd = float(np.sqrt(pmf @ (np.arange(1, max_span + 1) - mean) ** 2))
    remaining = target.copy()
    live = np.flatnonzero(remaining > 0)
    drawn_segments, drawn_lengths = [], []
    round_ = np.uint64(0)
    while len(live):
        left = remaining[live]
        budget = np.ceil((left + 3 * sd * np.sqrt(left / mean)) / mean).astype(np.int64)
        budget = np.minimum(left, budget + 1)
        firsts = np.cumsum(budget) - budget
        seg = np.repeat(live, budget)
        index = np.arange(len(seg)) - np.repeat(firsts, budget)
        counters = _counters(_LENGTHS, number[seg], index) + round_ * core.ROUND
        lengths = cdf.searchsorted(core.draw_uniform(keys[seg], counters), side="right") + 1
        # each span's end among its segment's spans of this round
        ends = np.cumsum(lengths)
        ends -= np.repeat(ends[firsts] - lengths[firsts], budget)
        need = np.repeat(left, budget)
        kept = ends - lengths < need
        drawn_segments.append(seg[kept])
        drawn_lengths.append(np.where(ends > need, need - ends + lengths, lengths)[kept])
        remaining[live] = np.maximum(left - ends[firsts + budget - 1], 0)
        live = live[remaining[live] > 0]
        round_ += np.uint64(1)
    segments = np.concatenate([np.zeros(0, np.int64), *drawn_segments])
    order = np.argsort(segments, kind="stable")
    segments = segments[order]
    lengths = np.concatenate([np.zeros(0, np.int64), *drawn_lengths])[order]
    counts = np.bincount(segments, minlength=len(target))
    has = np.flatnonzero(counts)
    last = np.cumsum(counts)[has] - 1
    swap, _ = core.draw_below(keys[has], _counters(_CLAMPED, number[has]),
                              counts[has].astype(np.uint64))
    other = last - counts[has] + 1 + swap.astype(np.int64)
    lengths[last], lengths[other] = lengths[other], lengths[last]
    # stars and bars: span i of a segment is the slot_i-th of its k spans
    # among its n - target unmasked positions, so it starts at its slot,
    # less the spans before it, plus their lengths
    slots = n - target + counts
    starts = core.draw_subsets(keys, _counters(_SLOTS, number), slots, counts)
    before = np.cumsum(lengths) - lengths
    firsts = np.cumsum(counts) - counts
    starts += before - np.arange(len(lengths))
    starts += (firsts - np.cumsum(slots) + slots)[segments] - before[firsts[segments]]
    return segments, starts, lengths


@dataclass
class MaskConfig:
    scheme: Literal["span", "token"] = "span"
    rate: Annotated[float, "(0, 1)"] = 0.30
    geom_p: Annotated[float, "(0, 1)"] = DEFAULT_GEOM_P
    # no span holds more positions than a window
    max_span: Annotated[int, f"[1, {MAX_SEQ_LEN}]"] = DEFAULT_MAX_SPAN
    p_mask: Annotated[float, "[0, 1]"] = 0.8
    p_random: Annotated[float, "[0, 1]"] = 0.1
    # p_keep is the remainder


@dataclass
class MaskPlan:
    """The masked positions of consecutive windows, grouped by window:
    window i's are the counts[i] that follow those of the windows before
    it. ``apply_masking`` gives the per-position fields as numpy arrays of
    equal length (int64, uint8 and uint16); ``write_packed`` also accepts
    sequences of ints."""

    positions: np.ndarray  # window-level indices, sorted within each window
    actions: np.ndarray  # per position: ACTION_MASK / ACTION_RANDOM / ACTION_KEEP
    originals: np.ndarray  # original token id per position
    counts: np.ndarray  # masked positions per window
    rate: float
    scheme: str


def apply_masking(
    windows: Sequence[PackedSequence],
    cfg: MaskConfig,
    mask_id: int,
    special_ids: frozenset,
    vocab_size: int,
    seed: int,
    first: int,
) -> tuple[np.ndarray, MaskPlan]:
    """Mask the consecutive *windows*, at least one, numbered from *first*
    in the run seeded *seed*; returns their masked rows as one
    (len(windows), seq_len) uint16 array, and their plan. The windows are
    not modified. A window's masking depends only on the seed, its number,
    its tokens and boundaries, and *cfg*."""
    rows = np.stack([w.tokens for w in windows])
    seq_len = rows.shape[1]
    flat = rows.reshape(-1)
    specials = np.array(sorted(special_ids), dtype=np.int64)
    is_special = np.zeros(1 << 16, dtype=bool)
    is_special[specials[specials < 1 << 16]] = True
    maskable = np.flatnonzero(~is_special[flat])
    # segment s lies in window[s], numbered number[s] there, and its
    # maskable positions are maskable[lo[s]:hi[s]]
    per_window = [len(w.boundaries) for w in windows]
    window = np.repeat(np.arange(len(windows)), per_window)
    number = np.arange(len(window)) - np.repeat(np.cumsum(per_window) - per_window, per_window)
    edges = np.array([b[:2] for w in windows for b in w.boundaries], dtype=np.int64)
    edges = edges.reshape(-1, 2) + (window * seq_len)[:, None]
    lo, hi = maskable.searchsorted(edges).T
    n = hi - lo
    target = (cfg.rate * n).astype(np.int64)
    keys = np.array([core.draw_key(seed, first + i) for i in range(len(windows))],
                    dtype=np.uint64)[window]
    if cfg.scheme == "span":
        segments, starts, lengths = _spans(keys, number, n, target, cfg.geom_p, cfg.max_span)
        # start + j for j < length, for every span at once
        ends = np.cumsum(lengths)
        picks = np.repeat(lo[segments] + starts - ends + lengths, lengths)
        picks += np.arange(len(picks))
    else:
        picks = core.draw_subsets(keys, _counters(_PICKS, number), n, target)
        picks += np.repeat(lo - (np.cumsum(n) - n), target)
    flat_positions = maskable[picks]
    # segment s holds target[s] of the positions, in order
    segment = np.repeat(np.arange(len(n)), target)
    positions = flat_positions - window[segment] * seq_len
    position_keys, position_numbers = keys[segment], number[segment]

    u = core.draw_uniform(position_keys, _counters(_ACTIONS, position_numbers, positions))
    actions = np.full(len(positions), ACTION_KEEP, dtype=np.uint8)
    actions[u < cfg.p_mask + cfg.p_random] = ACTION_RANDOM
    actions[u < cfg.p_mask] = ACTION_MASK
    originals = flat[flat_positions]
    flat[flat_positions[actions == ACTION_MASK]] = mask_id
    randomized = actions == ACTION_RANDOM
    # the r-th non-special id is r plus the count of specials j with
    # specials[j] - j (the non-special ids below it) <= r
    r, _ = core.draw_below(
        position_keys[randomized],
        _counters(_IDS, position_numbers[randomized], positions[randomized]),
        np.uint64(vocab_size - len(specials)),
    )
    r = r.astype(np.int64)
    skip = specials - np.arange(len(specials))
    flat[flat_positions[randomized]] = r + np.searchsorted(skip, r, side="right")
    plan = MaskPlan(
        positions=positions,
        actions=actions,
        originals=originals,
        counts=np.bincount(window[segment], minlength=len(windows)),
        rate=cfg.rate,
        scheme=cfg.scheme,
    )
    return rows, plan


# packed.bin (documented in README): MAGIC and _HEADER, then per window
# u16 tokens[seq_len] (masked), _COUNTS, n_bounds * BOUND_DTYPE, _N_MASKED,
# n_masked * MASK_DTYPE, all little-endian. Document ids per window live in
# the JSONL sidecar.
MAGIC = b"PKSQ"
VERSION = 1
_HEADER = struct.Struct("<HI")  # version, seq_len
_COUNTS = struct.Struct("<HH")  # pad_count, n_bounds
_N_MASKED = struct.Struct("<H")  # n_masked
BOUND_DTYPE = np.dtype([("start", "<u4"), ("end", "<u4")])
MASK_DTYPE = np.dtype([("pos", "<u2"), ("action", "u1"), ("orig", "<u2")])


def write_packed(
    path,
    sidecar_path,
    records: Iterable[tuple[np.ndarray, Sequence[PackedSequence], MaskPlan]],
    seq_len: int,
) -> int:
    """Write *records* to *path* and their metadata to *sidecar_path*, both
    replaced atomically; returns the window count. A record is a list of
    consecutive windows as ``apply_masking`` gives it: their masked rows,
    the windows and their plan. *seq_len* is in 2..MAX_SEQ_LEN, as
    load_config checks."""
    n = 0
    with open_replacing(path, "wb") as fh, open_replacing(sidecar_path) as side:
        fh.write(MAGIC + _HEADER.pack(VERSION, seq_len))
        for rows, windows, plan in records:
            masks = np.empty(len(plan.positions), MASK_DTYPE)
            masks["pos"] = plan.positions
            masks["action"] = plan.actions
            masks["orig"] = plan.originals
            counts = np.asarray(plan.counts, dtype=np.int64)
            ends = np.cumsum(counts).tolist()
            for row, seq, n_masked, end in zip(rows.astype("<u2"), windows, counts.tolist(), ends):
                bounds = np.array([b[:2] for b in seq.boundaries], dtype=BOUND_DTYPE)
                fh.writelines((row.tobytes(), _COUNTS.pack(seq.pad_count, len(bounds)),
                               bounds.tobytes(), _N_MASKED.pack(n_masked),
                               masks[end - n_masked:end].tobytes()))
                meta = {
                    "window": n,
                    "doc_ids": [d for _, _, d in seq.boundaries],
                    "pad_count": seq.pad_count,
                    "n_masked": n_masked,
                    "scheme": plan.scheme,
                    "rate": plan.rate,
                }
                side.write(canonical_json(meta))
                side.write("\n")
                n += 1
    return n


def read_packed(path) -> Iterator[dict]:
    """Yield per-window dicts from a packed binary stream; a record cut
    short raises ValueError naming the path and the window."""
    with open(path, "rb") as fh:
        header = fh.read(len(MAGIC) + _HEADER.size)
        if header[: len(MAGIC)] != MAGIC or len(header) != len(MAGIC) + _HEADER.size:
            raise ValueError(f"{path}: bad magic or short header")
        version, seq_len = _HEADER.unpack(header[len(MAGIC):])
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        window = 0

        def read(size: int) -> bytes:
            buf = fh.read(size)
            if len(buf) != size:
                raise ValueError(f"{path}: window {window} truncated")
            return buf

        while head := fh.read(2 * seq_len):
            tokens = np.frombuffer(head + read(2 * seq_len - len(head)), "<u2")
            pad_count, n_bounds = _COUNTS.unpack(read(_COUNTS.size))
            bounds = np.frombuffer(read(n_bounds * BOUND_DTYPE.itemsize), BOUND_DTYPE)
            (n_masked,) = _N_MASKED.unpack(read(_N_MASKED.size))
            masks = np.frombuffer(read(n_masked * MASK_DTYPE.itemsize), MASK_DTYPE)
            yield {
                "tokens": tokens,
                "pad_count": pad_count,
                "boundaries": bounds.tolist(),
                "masks": masks.tolist(),
            }
            window += 1
