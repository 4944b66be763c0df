"""Text preprocessing: tokenization, vocabulary, padding, embedding loading.

Tokens that occur exactly once in the training corpus (hapaxes) never get a
vocabulary index; they encode as the unknown index. Index 0 is reserved for
padding and index 1 for unknowns, so padding can keep its state-passthrough
meaning downstream while unknown tokens still advance the recurrence.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .layers import EmbeddingLayer
from .tensor import ContractError

PAD_INDEX = 0
UNK_INDEX = 1

URL_TOKEN = "<url>"
USER_TOKEN = "<user>"
NUMBER_TOKEN = "<number>"
HASHTAG_TOKEN = "<hashtag>"
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"

_TOKEN_RE = re.compile(
    r"""(?P<url>(?:https?://|www\.)\S+)
      | (?P<mention>@\w+)
      | (?P<hashtag>\#\w+)
      | (?P<number>\d+(?:[.,]\d+)*)
      | (?P<word>[^\W\d_]+(?:'[^\W\d_]+)*)
      | (?P<punct>[^\w\s])
    """,
    re.VERBOSE | re.IGNORECASE,
)


class ParseError(ValueError):
    """A data file line could not be parsed; message carries the line number."""


class FormatError(ValueError):
    """A data file disagrees with the expected format."""


def tokenize(text: str) -> list[str]:
    """Lowercased tokens with platform markers.

    URLs, @mentions and numbers collapse to marker tokens; hashtags emit a
    marker followed by the bare word; punctuation splits into single-char
    tokens; internal apostrophes stay inside words.
    """
    out: list[str] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "url":
            out.append(URL_TOKEN)
        elif kind == "mention":
            out.append(USER_TOKEN)
        elif kind == "number":
            out.append(NUMBER_TOKEN)
        elif kind == "hashtag":
            out.append(HASHTAG_TOKEN)
            out.append(m.group()[1:].lower())
        elif kind == "word":
            out.append(m.group().lower())
        else:
            out.append(m.group())
    return out


@dataclass(frozen=True)
class SequenceSpec:
    seq_len: int

    def __post_init__(self):
        if self.seq_len < 1:
            raise ContractError(f"seq_len must be positive, got {self.seq_len}")


def choose_seq_len(token_counts: Sequence[int]) -> SequenceSpec:
    """Nearest-rank 95th percentile of per-document token counts, ceiled."""
    if len(token_counts) == 0:
        raise ContractError("choose_seq_len needs a nonempty count list")
    counts = sorted(token_counts)
    rank = math.ceil(0.95 * len(counts))  # 1-based nearest rank
    value = counts[rank - 1]
    return SequenceSpec(seq_len=max(1, math.ceil(value)))


class Vocabulary:
    """token -> index map; indices >= 2, hapaxes excluded."""

    def __init__(self, index: dict[str, int]):
        self._index = index
        # index -> token; the constructors number tokens 2, 3, ... without gaps
        self._tokens = [PAD_TOKEN, UNK_TOKEN, *sorted(index, key=index.get)]

    @classmethod
    def build(cls, token_lists: Iterable[Sequence[str]]) -> "Vocabulary":
        counts: Counter = Counter()
        for tokens in token_lists:
            counts.update(tokens)
        kept = sorted((t for t, c in counts.items() if c >= 2),
                      key=lambda t: (-counts[t], t))
        index = {t: i + 2 for i, t in enumerate(kept)}
        return cls(index)

    def __len__(self) -> int:
        # total index space including pad and unk
        return len(self._index) + 2

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def encode_token(self, token: str) -> int:
        return self._index.get(token, UNK_INDEX)

    def tokens(self) -> list[str]:
        """Tokens ordered by index (index 2 first)."""
        return self._tokens[2:]

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocabulary":
        index = {t: i + 2 for i, t in enumerate(tokens)}
        return cls(index)

    def decode_index(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise KeyError(f"index {idx} not in vocabulary")
        return self._tokens[idx]


def encode_pad(tokens: Sequence[str], vocab: Vocabulary, spec: SequenceSpec) -> np.ndarray:
    """Left-pad with zeros up to seq_len; longer inputs keep their first tokens."""
    n = spec.seq_len
    kept = tokens[:n]
    out = np.zeros(n, dtype=np.int32)
    if kept:
        ids = [vocab.encode_token(t) for t in kept]
        out[n - len(ids):] = ids
    return out


def encode_corpus(token_lists: Sequence[Sequence[str]], vocab: Vocabulary, spec: SequenceSpec) -> np.ndarray:
    return np.stack([encode_pad(t, vocab, spec) for t in token_lists]) if token_lists else \
        np.zeros((0, spec.seq_len), dtype=np.int32)


def decode(indices: Sequence[int], vocab: Vocabulary) -> list[str]:
    """Inverse of encode_pad for inspection; drops padding."""
    return [vocab.decode_index(int(i)) for i in indices if int(i) != PAD_INDEX]


def parse_embedding_file(path, dim: int) -> dict[str, np.ndarray]:
    vectors: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if lineno == 1 and len(parts) - 1 != dim:
                raise FormatError(
                    f"embedding file holds {len(parts) - 1}-dimensional vectors, expected {dim}")
            if len(parts) - 1 != dim:
                raise ParseError(f"line {lineno}: expected {dim} values, got {len(parts) - 1}")
            try:
                with np.errstate(over="ignore"):  # past float32's range reads as inf
                    vec = np.array([float(v) for v in parts[1:]], dtype=np.float32)
            except ValueError as e:
                raise ParseError(f"line {lineno}: {e}") from None
            bad = np.flatnonzero(~np.isfinite(vec))
            if bad.size:
                raise ParseError(f"line {lineno}: non-finite value {parts[1 + bad[0]]!r}")
            vectors[parts[0]] = vec
    return vectors


def load_embeddings(path, vocab: Vocabulary, dim: int = 200, seed: int = 0) -> EmbeddingLayer:
    """Build the embedding table for ``vocab`` from a text vector file.

    File format: one token per line followed by ``dim`` space-separated
    decimals. Vocabulary tokens absent from the file get seeded
    uniform(-0.05, 0.05) rows; the pad row stays zero; every row is
    trainable.
    """
    vectors = parse_embedding_file(path, dim)
    table = np.zeros((len(vocab), dim), dtype=np.float32)
    rng = np.random.default_rng(seed)
    table[UNK_INDEX] = rng.uniform(-0.05, 0.05, size=dim).astype(np.float32)
    for token in vocab.tokens():
        idx = vocab.encode_token(token)
        vec = vectors.get(token)
        if vec is None:
            table[idx] = rng.uniform(-0.05, 0.05, size=dim).astype(np.float32)
        else:
            table[idx] = vec
    return EmbeddingLayer(table)
