"""Greedy sequence packing and span/token mask plan generation.

Packing is a sequential first-fit fold: each document's token payload
(wrapped in <s>/</s> boundary specials) streams into fixed-length windows.
With splitting enabled a document that does not fit continues in the next
window, so padding only ever occupies the tail of the final window and
global efficiency stays above 99% on any realistic corpus.

Mask plans select floor(rate * maskable) positions per document segment,
via non-overlapping truncated-geometric spans (span scheme) or uniform
positions (token scheme). Selected positions receive
mask/random/keep actions (default 80/10/10). Pad and special positions are
never selected and spans never cross document boundaries.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

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

    @property
    def seq_len(self) -> int:
        return len(self.tokens)


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


def truncated_geometric_pmf(p: float, max_span: int) -> np.ndarray:
    """pmf over span lengths 1..max_span, geometric(p) renormalized."""
    lengths = np.arange(1, max_span + 1)
    pmf = p * (1.0 - p) ** (lengths - 1)
    return pmf / pmf.sum()


def sample_spans(
    segment_length: int,
    rate: float,
    geom_p: float = DEFAULT_GEOM_P,
    max_span: int = DEFAULT_MAX_SPAN,
    rng: Optional[np.random.Generator] = None,
) -> list[tuple[int, int]]:
    """Non-overlapping (start, length) spans covering ~rate of the segment.

    Span lengths are truncated-geometric; the final span is clamped to the
    remaining budget so coverage stops exactly when it reaches
    floor(rate * segment_length).
    """
    if not 0.0 < rate < 1.0 and rate != 1.0:
        raise ValueError("rate must be in (0, 1]")
    if not 0.0 < geom_p < 1.0:
        raise ValueError("geom_p must be in (0, 1)")
    if max_span < 1:
        raise ValueError("max_span must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    target = int(rate * segment_length)
    if target <= 0 or segment_length <= 0:
        return []
    cdf = np.cumsum(truncated_geometric_pmf(geom_p, max_span)).tolist()
    occupied = bytearray(segment_length)
    spans: list[tuple[int, int]] = []
    covered = 0
    while covered < target:
        length = bisect.bisect_right(cdf, rng.random()) + 1
        length = min(length, target - covered, segment_length)
        placed = False
        for _ in range(32):
            start = int(rng.integers(0, segment_length - length + 1))
            if 1 not in occupied[start : start + length]:
                placed = True
                break
        if not placed:
            # fragmented: place into the first free run (trimmed to fit)
            start = occupied.find(0)
            if start < 0:
                break
            run = 1
            while run < length and start + run < segment_length and not occupied[start + run]:
                run += 1
            length = min(length, run)
        occupied[start : start + length] = b"\x01" * length
        spans.append((start, length))
        covered += length
    return sorted(spans)


@dataclass
class MaskConfig:
    scheme: str = "span"  # "span" or "token"
    rate: float = 0.30
    geom_p: float = DEFAULT_GEOM_P
    max_span: int = DEFAULT_MAX_SPAN
    p_mask: float = 0.8
    p_random: float = 0.1
    # p_keep is the remainder

    def validate(self) -> list[str]:
        errors = []
        if self.scheme not in ("span", "token"):
            errors.append(f"mask.scheme: unknown scheme {self.scheme!r}")
        if not 0.0 < self.rate < 1.0:
            errors.append(f"mask.rate: {self.rate} outside (0, 1)")
        if not 0.0 < self.geom_p < 1.0:
            errors.append(f"mask.geom_p: {self.geom_p} outside (0, 1)")
        if self.max_span < 1:
            errors.append("mask.max_span: must be >= 1")
        if self.p_mask + self.p_random > 1.0:
            errors.append("mask: p_mask + p_random > 1")
        return errors


@dataclass
class MaskPlan:
    positions: list  # sorted window-level indices
    actions: list  # per position: ACTION_MASK / ACTION_RANDOM / ACTION_KEEP
    originals: list  # original token id per position
    rate: float
    scheme: str


_CANDIDATE_CACHE: dict = {}


def _random_candidates(vocab_size: int, special_ids: frozenset) -> np.ndarray:
    key = (vocab_size, special_ids)
    if key not in _CANDIDATE_CACHE:
        _CANDIDATE_CACHE[key] = np.array(
            [i for i in range(vocab_size) if i not in special_ids], dtype=np.uint16
        )
    return _CANDIDATE_CACHE[key]


def apply_masking(
    seq: PackedSequence,
    cfg: MaskConfig,
    mask_id: int,
    special_ids: frozenset,
    vocab_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, MaskPlan]:
    """Produce masked tokens and the plan; input sequence is not modified."""
    tokens = seq.tokens.tolist()
    positions: list[int] = []
    for start, end, _doc_id in seq.boundaries:
        maskable = [i for i in range(start, end) if tokens[i] not in special_ids]
        if not maskable:
            continue
        if cfg.scheme == "span":
            # maskable positions are contiguous (specials only at edges)
            base = maskable[0]
            for s, ln in sample_spans(
                len(maskable), cfg.rate, cfg.geom_p, cfg.max_span, rng
            ):
                positions.extend(range(base + s, base + s + ln))
        else:
            n_pick = int(cfg.rate * len(maskable))
            if n_pick > 0:
                picks = rng.choice(len(maskable), size=n_pick, replace=False)
                positions.extend(maskable[i] for i in sorted(picks.tolist()))
    positions.sort()

    random_candidates = _random_candidates(vocab_size, special_ids)
    masked = list(tokens)
    actions: list[int] = []
    originals: list[int] = []
    for pos in positions:
        originals.append(tokens[pos])
        u = rng.random()
        if u < cfg.p_mask:
            actions.append(ACTION_MASK)
            masked[pos] = mask_id
        elif u < cfg.p_mask + cfg.p_random:
            actions.append(ACTION_RANDOM)
            k = rng.integers(0, len(random_candidates))
            masked[pos] = int(random_candidates[k])
        else:
            actions.append(ACTION_KEEP)
    plan = MaskPlan(
        positions=positions,
        actions=actions,
        originals=originals,
        rate=cfg.rate,
        scheme=cfg.scheme,
    )
    return np.array(masked, dtype=np.uint16), plan


def window_rng(run_seed: int, window_index: int) -> np.random.Generator:
    """Independent per-window generator derived from the run seed."""
    digest = hashlib.blake2b(
        struct.pack("<QQ", run_seed & 0xFFFFFFFFFFFFFFFF, window_index),
        digest_size=8,
    ).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


# ---------------------------------------------------------------------------
# Binary record stream (documented in README): file header
#   magic b"PKSQ", u16 version=1, u32 seq_len
# then per window:
#   u16 tokens[seq_len] (masked), u16 pad_count, u16 n_bounds,
#   n_bounds * (u32 start, u32 end), u16 n_masked,
#   n_masked * (u16 position, u8 action, u16 original_id)
# Document ids per window live in the JSONL sidecar.
# ---------------------------------------------------------------------------

MAGIC = b"PKSQ"
VERSION = 1


def write_packed(
    path,
    sidecar_path,
    records: Iterable[tuple[np.ndarray, PackedSequence, MaskPlan]],
    seq_len: int,
) -> int:
    if not 2 <= seq_len <= MAX_SEQ_LEN:
        raise ValueError(
            f"seq_len {seq_len} outside 2..{MAX_SEQ_LEN} "
            "(packed.bin stores positions and pad_count as u16)"
        )
    n = 0
    with open(path, "wb") as fh, open(
        sidecar_path, "w", encoding="utf-8", newline="\n"
    ) as side:
        fh.write(MAGIC + struct.pack("<HI", VERSION, seq_len))
        for masked_tokens, seq, plan in records:
            fh.write(masked_tokens.astype("<u2").tobytes())
            fh.write(struct.pack("<HH", seq.pad_count, len(seq.boundaries)))
            for start, end, _doc_id in seq.boundaries:
                fh.write(struct.pack("<II", start, end))
            fh.write(struct.pack("<H", len(plan.positions)))
            for pos, action, orig in zip(
                plan.positions, plan.actions, plan.originals
            ):
                fh.write(struct.pack("<HBH", pos, action, orig))
            meta = {
                "window": n,
                "doc_ids": [d for _, _, d in seq.boundaries],
                "pad_count": seq.pad_count,
                "n_masked": len(plan.positions),
                "scheme": plan.scheme,
                "rate": plan.rate,
            }
            side.write(json.dumps(meta, ensure_ascii=False, separators=(", ", ": ")))
            side.write("\n")
            n += 1
    return n


def read_packed(path) -> Iterator[dict]:
    """Yield per-window dicts from a packed binary stream."""
    with open(path, "rb") as fh:
        header = fh.read(len(MAGIC) + 6)
        if header[: len(MAGIC)] != MAGIC:
            raise ValueError(f"{path}: bad magic")
        version, seq_len = struct.unpack("<HI", header[len(MAGIC):])
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        while True:
            buf = fh.read(seq_len * 2)
            if not buf:
                return
            tokens = np.frombuffer(buf, dtype="<u2")
            pad_count, n_bounds = struct.unpack("<HH", fh.read(4))
            bounds = [struct.unpack("<II", fh.read(8)) for _ in range(n_bounds)]
            (n_masked,) = struct.unpack("<H", fh.read(2))
            masks = [struct.unpack("<HBH", fh.read(5)) for _ in range(n_masked)]
            yield {
                "tokens": tokens,
                "pad_count": pad_count,
                "boundaries": bounds,
                "masks": masks,
            }
