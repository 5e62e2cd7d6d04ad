"""The per-word greedy longest-match tokenizer without a word memo, kept
as a test oracle for corpusprep.subword.tokenize.

It segments every word occurrence afresh, as the package did before it
memoized one segmentation per word type on the vocabulary. The memoized
tokenizer must return ``==`` equal ids on any text: a word's ids depend only
on its bytes and the vocabulary. detokenize() maps the ids of <unk>-free
text back to its bytes, so tests can check that tokenizing loses nothing.
"""

from __future__ import annotations

from typing import Optional

from corpusprep.subword import CONT_PREFIX, SubwordVocab


def _match_longest(data: bytes, pos: int, table: dict, max_len: int) -> Optional[int]:
    end = min(len(data), pos + max_len)
    for j in range(end, pos, -1):
        piece_id = table.get(data[pos:j])
        if piece_id is not None:
            return piece_id
    return None


def tokenize(text: str, vocab: SubwordVocab) -> list[int]:
    """Greedy longest-match segmentation of each whitespace-split word."""
    ids: list[int] = []
    for word in text.split():
        data = word.encode("utf-8", "surrogatepass")
        pos = 0
        first = True
        while pos < len(data):
            if first:
                piece_id = _match_longest(data, pos, vocab.initial, vocab._max_init)
            else:
                piece_id = _match_longest(
                    data, pos, vocab.continuation, vocab._max_cont
                )
            if piece_id is None:
                ids.append(vocab.unk_id)
                pos += 1
            else:
                piece = vocab.pieces[piece_id]
                pos += len(piece) - (0 if first else len(CONT_PREFIX))
                ids.append(piece_id)
            first = False
    return ids


def detokenize(ids, vocab: SubwordVocab) -> bytes:
    """Inverse of tokenize for <unk>-free sequences of non-special ids:
    the round-trip oracle of the tokenizer."""
    words: list[bytearray] = []
    for i in ids:
        piece = vocab.pieces[i]
        if piece.startswith(CONT_PREFIX) and words:
            words[-1] += piece[len(CONT_PREFIX):]
        else:
            words.append(bytearray(piece))
    return b" ".join(bytes(w) for w in words)
