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
never cross document boundaries. The maskable positions of a window are
found in one pass and cut into its segments with one search. Each segment
then makes its own draws from the window's generator, in segment order:
for spans, its span lengths, their order and its gap slots; for tokens,
its positions. The rest is one pass over the whole window: sorting each
segment's slots or positions, the span starts and positions, and the
action and random-id draws.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Annotated, Iterable, Iterator, Literal, Sequence

import numpy as np

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


def _span_arrays(
    lo: np.ndarray, hi: np.ndarray, rate: float, geom_p: float, max_span: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping spans in each segment [lo[j], hi[j]) of one index
    range, the segments in order and disjoint, covering exactly
    floor(rate * (hi[j] - lo[j])) positions of segment j; as two int64
    arrays, sorted by start: their starts and their lengths.

    Span lengths are truncated-geometric, drawn in one batch and cut where
    they reach the target; the last one is clamped and the lengths are
    shuffled, so the clamped span lands anywhere. The unmasked gaps between
    spans are a uniformly random composition of the rest of the segment.
    Each segment makes those three draws in turn; the sort of the gap slots
    and the span starts are then computed once over all segments. The
    parameters are within MaskConfig's bounds, as load_config checks.
    """
    # searching the cdf without its last value keeps lengths <= max_span
    # when the float cdf ends a hair below 1
    cdf = np.cumsum(truncated_geometric_pmf(geom_p, max_span))[:-1]
    drawn_lengths, drawn_slots, counts = [], [], []
    for first, n in zip(lo.tolist(), (hi - lo).tolist()):
        target = int(rate * n)
        if target <= 0:
            continue
        lengths = cdf.searchsorted(rng.random(target), side="right") + 1
        ends = lengths.cumsum()
        k = int(ends.searchsorted(target)) + 1
        lengths = lengths[:k]
        lengths[-1] -= ends[k - 1] - target
        drawn_lengths.append(rng.permutation(lengths))
        # stars and bars: span i is the slot_i-th of k spans among the
        # n - target unmasked positions; the slots lie in [first, first + n)
        drawn_slots.append(rng.choice(n - target + k, size=k, replace=False) + first)
        counts.append(k)
    if not counts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    lengths = np.concatenate(drawn_lengths)
    # the segments' slot ranges are disjoint and in order, so one sort
    # sorts each segment's slots
    slots = np.sort(np.concatenate(drawn_slots))
    # start = slot - (index of the span in its segment) + (lengths of the
    # segment's spans before it), from window-wide index and cumsum
    before = np.cumsum(lengths) - lengths
    firsts = np.cumsum(counts) - counts
    starts = slots - np.arange(len(lengths)) + before
    starts -= np.repeat(before[firsts] - firsts, counts)
    return starts, lengths


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
    """One window's masked positions. ``apply_masking`` gives the three
    per-position fields as numpy arrays of equal length (int64, uint8 and
    uint16); ``write_packed`` also accepts sequences of ints."""

    positions: np.ndarray  # sorted window-level indices
    actions: np.ndarray  # per position: ACTION_MASK / ACTION_RANDOM / ACTION_KEEP
    originals: np.ndarray  # original token id per position
    rate: float
    scheme: str


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
    maskable = np.flatnonzero(~np.isin(seq.tokens, specials))
    # segment j's maskable positions are maskable[lo[j]:hi[j]]
    edges = np.array([b[:2] for b in seq.boundaries], dtype=np.int64).reshape(-1, 2)
    lo, hi = maskable.searchsorted(edges).T
    if cfg.scheme == "span":
        starts, lens = _span_arrays(lo, hi, cfg.rate, cfg.geom_p, cfg.max_span, rng)
        # start + j for j < len, for every span at once
        ends = np.cumsum(lens)
        picks = np.repeat(starts - ends + lens, lens) + np.arange(lens.sum())
    else:
        drawn = [first + rng.choice(n, size=int(cfg.rate * n), replace=False)
                 for first, n in zip(lo.tolist(), (hi - lo).tolist())]
        # each segment's picks lie in its own [lo, hi), so one sort orders all
        picks = np.sort(np.concatenate([np.zeros(0, dtype=np.int64), *drawn]))
    positions = maskable[picks]

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


def window_rng(run_seed: int, window_index: int) -> np.random.Generator:
    """Independent per-window generator derived from the run seed."""
    digest = hashlib.blake2b(
        struct.pack("<QQ", run_seed & 0xFFFFFFFFFFFFFFFF, window_index),
        digest_size=8,
    ).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


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
    records: Iterable[tuple[np.ndarray, PackedSequence, MaskPlan]],
    seq_len: int,
) -> int:
    """Write *records* to *path* and their metadata to *sidecar_path*, both
    replaced atomically; returns the window count. *seq_len* is in
    2..MAX_SEQ_LEN, as load_config checks."""
    n = 0
    with open_replacing(path, "wb") as fh, open_replacing(sidecar_path) as side:
        fh.write(MAGIC + _HEADER.pack(VERSION, seq_len))
        for masked_tokens, seq, plan in records:
            bounds = np.array([b[:2] for b in seq.boundaries], dtype=BOUND_DTYPE)
            masks = np.empty(len(plan.positions), MASK_DTYPE)
            masks["pos"] = plan.positions
            masks["action"] = plan.actions
            masks["orig"] = plan.originals
            fh.writelines((masked_tokens.astype("<u2").tobytes(),
                           _COUNTS.pack(seq.pad_count, len(bounds)), bounds.tobytes(),
                           _N_MASKED.pack(len(masks)), masks.tobytes()))
            meta = {
                "window": n,
                "doc_ids": [d for _, _, d in seq.boundaries],
                "pad_count": seq.pad_count,
                "n_masked": len(plan.positions),
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
