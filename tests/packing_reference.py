"""The list-based greedy packer, kept as a test oracle for
corpusprep.packing.pack_greedy.

It folds each payload into a Python list one window at a time and turns
each full window into its own array, as the package did before it placed
every payload in one flat uint16 array. The array packer must return ``==``
equal token rows, boundaries, pad counts and efficiency on any input.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from corpusprep.packing import PackedSequence


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
