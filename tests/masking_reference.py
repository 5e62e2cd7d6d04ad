"""The numpy-scalar span sampler and masker, kept as a test oracle for
corpusprep.packing.sample_spans and corpusprep.packing.apply_masking.

These index numpy arrays one position at a time, as the package did before
its masking loop moved to Python lists and a bytearray. The rewrite makes
the same generator calls with the same arguments in the same order, so it
must return ``==`` equal spans, masked tokens and plans.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from corpusprep.packing import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    DEFAULT_GEOM_P,
    DEFAULT_MAX_SPAN,
    MaskConfig,
    MaskPlan,
    PackedSequence,
    _random_candidates,
    truncated_geometric_pmf,
)


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
    cdf = np.cumsum(truncated_geometric_pmf(geom_p, max_span))
    occupied = np.zeros(segment_length, dtype=bool)
    spans: list[tuple[int, int]] = []
    covered = 0
    while covered < target:
        length = int(np.searchsorted(cdf, rng.random(), side="right")) + 1
        length = min(length, target - covered, segment_length)
        placed = False
        for _ in range(32):
            start = int(rng.integers(0, segment_length - length + 1))
            if not occupied[start : start + length].any():
                placed = True
                break
        if not placed:
            # fragmented: place into the first free run (trimmed to fit)
            free = np.flatnonzero(~occupied)
            if free.size == 0:
                break
            start = int(free[0])
            run = 1
            while run < length and start + run < segment_length and not occupied[start + run]:
                run += 1
            length = min(length, run)
        occupied[start : start + length] = True
        spans.append((start, length))
        covered += length
    return sorted(spans)


def apply_masking(
    seq: PackedSequence,
    cfg: MaskConfig,
    mask_id: int,
    special_ids: frozenset,
    vocab_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, MaskPlan]:
    """Produce masked tokens and the plan; input sequence is not modified."""
    tokens = seq.tokens.copy()
    positions: list[int] = []
    for start, end, _doc_id in seq.boundaries:
        maskable = [
            i for i in range(start, end) if int(seq.tokens[i]) not in special_ids
        ]
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
                positions.extend(maskable[i] for i in sorted(picks))
    positions.sort()

    random_candidates = _random_candidates(vocab_size, special_ids)
    actions: list[int] = []
    originals: list[int] = []
    for pos in positions:
        originals.append(int(seq.tokens[pos]))
        u = rng.random()
        if u < cfg.p_mask:
            actions.append(ACTION_MASK)
            tokens[pos] = mask_id
        elif u < cfg.p_mask + cfg.p_random:
            actions.append(ACTION_RANDOM)
            tokens[pos] = random_candidates[rng.integers(0, len(random_candidates))]
        else:
            actions.append(ACTION_KEEP)
    plan = MaskPlan(
        positions=positions,
        actions=actions,
        originals=originals,
        rate=cfg.rate,
        scheme=cfg.scheme,
    )
    return tokens, plan
