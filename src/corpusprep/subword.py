"""Fixed subword vocabulary loading and greedy longest-match tokenization.

Vocabulary file format: plain UTF-8, one token per line, id = line number
(0-based). Non-printable bytes are escaped as ``\\xNN``; tokens that do not
decode as printable UTF-8 are written fully byte-escaped. Continuation
pieces (word-internal) carry a ``##`` prefix; specials are literal
``<unk> <pad> <mask> <s> </s>`` lines and never participate in matching.

Words (whitespace-delimited) are segmented over their UTF-8 bytes by
greedy longest-match-first; a byte with no matching piece becomes <unk>.
Tokenizing <unk>-free text loses nothing: each word's pieces, continuation
pieces without their ``##``, joined by single spaces give back the exact
bytes of the whitespace-normalized input.

Each word's ids, as native-order uint16 bytes, are read through the
SubwordVocab's ``core.WordMemo``: a word it stores is segmented once per
loaded vocabulary, any other word at each occurrence. tokenize() joins the
ids of the words into one ``array('H')``, with no Python object per id. A
word's ids depend only on its bytes and the vocabulary, so the output does
not depend on the memo.

A run tokenizes each document once: token_ids() keeps a document's ids,
copied from tokenize()'s array into a uint16 numpy array, on
``Document.token_ids`` for the vocabulary that made them, so the
token_count stage, which counts them, and the pack stage share one
tokenization. The ids live in memory only; a document read from JSONL is
tokenized on first use. The text is split once for both its ids and its
``Document.word_count``.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from corpusprep.core import Document, WordMemo

SPECIAL_TOKENS = ("<unk>", "<pad>", "<mask>", "<s>", "</s>")
CONT_PREFIX = b"##"

# packed.bin stores token ids as u16
MAX_VOCAB_SIZE = 65536

_ESCAPE_RE = re.compile(r"\\x([0-9a-fA-F]{2})")


class VocabError(ValueError):
    pass


def unescape_token(line: str) -> bytes:
    """Decode a vocab-file line to the token's raw bytes."""
    out = bytearray()
    pos = 0
    for m in _ESCAPE_RE.finditer(line):
        out += line[pos : m.start()].encode("utf-8")
        out.append(int(m.group(1), 16))
        pos = m.end()
    out += line[pos:].encode("utf-8")
    return bytes(out)


def escape_token(token: bytes) -> str:
    """Canonical vocab-file rendering of a token's bytes."""
    try:
        text = token.decode("utf-8")
        if text.isprintable() and "\\" not in text and text != "":
            return text
    except UnicodeDecodeError:
        pass
    return "".join(
        chr(b) if 0x21 <= b <= 0x7E and b != 0x5C else f"\\x{b:02x}"
        for b in token
    )


@dataclass
class SubwordVocab:
    pieces: list  # list[bytes], id = index
    specials: dict = field(default_factory=dict)  # name -> id
    initial: dict = field(init=False)  # bytes -> id (word-initial pieces)
    continuation: dict = field(init=False)  # bytes -> id (## pieces, stripped)
    _max_init: int = field(init=False, default=0)
    _max_cont: int = field(init=False, default=0)
    # word -> segmentation ids as uint16 bytes, filled by tokenize()
    _word_ids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._word_ids = WordMemo(lambda word: _segment(word, self))
        self.initial = {}
        self.continuation = {}
        special_ids = set(self.specials.values())
        for i, piece in enumerate(self.pieces):
            if i in special_ids:
                continue
            if piece.startswith(CONT_PREFIX):
                body = piece[len(CONT_PREFIX):]
                self.continuation[body] = i
                self._max_cont = max(self._max_cont, len(body))
            else:
                self.initial[piece] = i
                self._max_init = max(self._max_init, len(piece))

    @property
    def size(self) -> int:
        return len(self.pieces)

    @property
    def unk_id(self) -> int:
        return self.specials["<unk>"]

    @property
    def pad_id(self) -> int:
        return self.specials["<pad>"]

    @property
    def mask_id(self) -> int:
        return self.specials["<mask>"]

    @property
    def bos_id(self) -> int:
        return self.specials["<s>"]

    @property
    def eos_id(self) -> int:
        return self.specials["</s>"]

    @property
    def special_ids(self) -> frozenset:
        return frozenset(self.specials.values())


def load_vocab(path, expected_size: Optional[int] = None) -> SubwordVocab:
    path = Path(path)
    if not path.is_file():
        raise VocabError(f"{path}: vocabulary file not found" if not path.exists()
                         else f"{path}: not a file")
    pieces = []
    seen: dict = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise VocabError(f"{path}:{lineno + 1}: invalid UTF-8: {e}") from e
            token = unescape_token(line.rstrip("\n"))
            if token in seen:
                raise VocabError(
                    f"{path}:{lineno + 1}: duplicate token "
                    f"{escape_token(token)!r} (first at line {seen[token] + 1})"
                )
            seen[token] = lineno
            pieces.append(token)
    if len(pieces) > MAX_VOCAB_SIZE:
        raise VocabError(
            f"{path}: {len(pieces)} tokens > {MAX_VOCAB_SIZE} "
            "(packed.bin stores token ids as u16)"
        )
    specials = {}
    for name in SPECIAL_TOKENS:
        token = name.encode("utf-8")
        if token not in seen:
            raise VocabError(f"{path}: missing special token {name}")
        specials[name] = seen[token]
    if expected_size is not None and len(pieces) != expected_size:
        raise VocabError(
            f"{path}: vocabulary size {len(pieces)} != declared {expected_size}"
        )
    return SubwordVocab(pieces=pieces, specials=specials)


def _match_longest(data: bytes, pos: int, table: dict, max_len: int) -> Optional[int]:
    end = min(len(data), pos + max_len)
    for j in range(end, pos, -1):
        piece_id = table.get(data[pos:j])
        if piece_id is not None:
            return piece_id
    return None


def _segment(word: str, vocab: SubwordVocab) -> bytes:
    """Greedy longest-match ids of one whitespace-free word, as native-order
    uint16 bytes. A lone surrogate, which a JSON escape can produce, is
    segmented as its three surrogatepass bytes."""
    data = word.encode("utf-8", "surrogatepass")
    ids: list[int] = []
    pos = 0
    table, max_len, prefix = vocab.initial, vocab._max_init, 0
    while pos < len(data):
        piece_id = _match_longest(data, pos, table, max_len)
        if piece_id is None:
            ids.append(vocab.unk_id)
            pos += 1
        else:
            ids.append(piece_id)
            pos += len(vocab.pieces[piece_id]) - prefix
        # every piece after the first is a continuation piece
        table, max_len, prefix = vocab.continuation, vocab._max_cont, len(CONT_PREFIX)
    return array("H", ids).tobytes()


def tokenize(
    text: str, vocab: SubwordVocab, words: Optional[list] = None
) -> array:
    """Greedy longest-match segmentation of each whitespace-split word of
    *text*, read through the vocabulary's memo, as an ``array('H')`` of ids;
    pass *words*, ``text.split()``, when it is already split."""
    if words is None:
        words = text.split()
    return array("H", b"".join(map(vocab._word_ids.__getitem__, words)))


def token_ids(doc: Document, vocab: SubwordVocab) -> np.ndarray:
    """*doc*'s ids under *vocab* as a uint16 array: tokenized on the first
    call for this document and vocabulary object, then read from
    ``doc.token_ids``. The text is split once, which also fills
    ``doc.word_count``."""
    cached = doc.token_ids
    if cached is not None and cached[0] is vocab:
        return cached[1]
    # copied from the buffer into an array of its own: the array('H') is
    # over-allocated, and keeping it raised peak RSS by 1 MiB on long_pack
    ids = np.array(tokenize(doc.text, vocab, words=doc.split_words()), np.uint16)
    doc.token_ids = (vocab, ids)
    return ids
