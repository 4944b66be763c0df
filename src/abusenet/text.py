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
from importlib import resources as importlib_resources
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .layers import EmbeddingLayer
from .tensor import ContractError

UNK_INDEX = 1

URL_TOKEN = "<url>"
USER_TOKEN = "<user>"
NUMBER_TOKEN = "<number>"
HASHTAG_TOKEN = "<hashtag>"

# The markup that the tokenizer, the TF counters and the NF mention scan read.
# URLs are case-insensitive by explicit classes: under re.IGNORECASE "s" also
# matches U+017F, and the classes scan several times faster. _TOKEN_RE is verbose, hence "\#".
URL_RE = re.compile(r"(?:[hH][tT][tT][pP][sS\u017f]?://|[wW][wW][wW]\.)\S+")
MENTION_RE = re.compile(r"@\w+")
HASHTAG_RE = re.compile(r"\#\w+")

_TOKEN_RE = re.compile(
    rf"""(?P<url>{URL_RE.pattern})
      | (?P<mention>{MENTION_RE.pattern})
      | (?P<hashtag>{HASHTAG_RE.pattern})
      | (?P<number>\d+(?:[.,]\d+)*)
      | (?P<word>[^\W\d_]+(?:'[^\W\d_]+)*)
      | (?P<punct>[^\w\s])
    """,
    re.VERBOSE | re.IGNORECASE,
)


class ParseError(ValueError):
    """A data file line could not be parsed; message carries the path and line number."""


class FormatError(ValueError):
    """A data file disagrees with the expected format; message carries the path."""


def not_utf8(path, kind: str = "") -> str:
    """The message for a text file with bytes that are not UTF-8: ``path``,
    then the first such line (``kind`` names the file's kind before it).
    No UTF-8 sequence holds a newline byte, so lines split the bytes safely."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return f"{path}: {kind + ' ' if kind else ''}line {number}: bytes that are not UTF-8"
    return f"{path}: bytes that are not UTF-8"


def read_word_list(name: str) -> frozenset[str]:
    """The words of a shipped resource file: one per line, ``#`` lines are comments."""
    text = importlib_resources.files("abusenet.resources").joinpath(name).read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines()
                     if line.strip() and not line.startswith("#"))


def tokenize(text: str) -> list[str]:
    """Lowercased tokens with platform markers.

    URLs, @mentions and numbers collapse to marker tokens; hashtags emit a
    marker followed by the bare word; punctuation splits into single-char
    tokens; internal apostrophes stay inside words.

    No token spans whitespace, so a text's tokens are its whitespace chunks'
    tokens in order. An all-letter chunk (``str.isalpha``) is always one word
    token and skips the regex; the other chunks are scanned by ``_TOKEN_RE``
    in runs, each run joined with single spaces.
    """
    out: list[str] = []
    run: list[str] = []
    for chunk in text.split():
        if chunk.isalpha():
            if run:
                _scan(" ".join(run), out)
                run = []
            out.append(chunk.lower())
        else:
            run.append(chunk)
    if run:
        _scan(" ".join(run), out)
    return out


def _scan(text: str, out: list[str]) -> None:
    """Append the ``_TOKEN_RE`` tokens of ``text`` to ``out``; the commonest
    kinds are tested first."""
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "word":
            out.append(m[0].lower())
        elif kind == "punct":
            out.append(m[0])
        elif kind == "url":
            out.append(URL_TOKEN)
        elif kind == "mention":
            out.append(USER_TOKEN)
        elif kind == "number":
            out.append(NUMBER_TOKEN)
        else:  # hashtag
            out.append(HASHTAG_TOKEN)
            out.append(m[0][1:].lower())


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


def rank_by_count(terms: list[str], counts: Mapping[str, int]) -> list[str]:
    """``terms``, sorted in place by count descending, ties in alphabetical
    order (two sorts: the second is stable, also in reverse)."""
    terms.sort()
    terms.sort(key=counts.__getitem__, reverse=True)
    return terms


class Vocabulary:
    """token -> index map; indices >= 2, hapaxes excluded."""

    def __init__(self, index: dict[str, int]):
        self._index = index

    @classmethod
    def build(cls, token_lists: Iterable[Sequence[str]]) -> "Vocabulary":
        counts = Counter(chain.from_iterable(token_lists))
        return cls.from_tokens(rank_by_count([t for t, c in counts.items() if c >= 2], counts))

    def __len__(self) -> int:
        # total index space including pad and unk
        return len(self._index) + 2

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def encode_tokens(self, tokens: Iterable[str]) -> list[int]:
        """The index of each token; UNK_INDEX for tokens not in the vocabulary."""
        return list(map(self._index.get, tokens, repeat(UNK_INDEX)))

    def tokens(self) -> list[str]:
        """Tokens ordered by index (index 2 first): both constructors insert
        them in that order."""
        return list(self._index)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocabulary":
        index = {t: i + 2 for i, t in enumerate(tokens)}
        return cls(index)


def encode_corpus(token_lists: Sequence[Sequence[str]], vocab: Vocabulary, spec: SequenceSpec) -> np.ndarray:
    """Every token list's ids, left-padded with zeros up to seq_len; longer
    lists keep their first tokens. [len(token_lists), seq_len] int32."""
    n = spec.seq_len
    kept = [tokens[:n] for tokens in token_lists]
    lengths = np.fromiter(map(len, kept), dtype=np.int64, count=len(kept))
    out = np.zeros((len(kept), n), dtype=np.int32)
    # a row's ids fill its last len(kept) places; a boolean mask assigns in row-major order
    out[np.arange(n) >= n - lengths[:, None]] = vocab.encode_tokens(chain.from_iterable(kept))
    return out


def parse_embedding_file(path, dim: int) -> dict[str, np.ndarray]:
    try:
        return _parse_embedding_lines(path, dim)
    except UnicodeDecodeError:
        raise ParseError(not_utf8(path)) from None


def _parse_embedding_lines(path, dim: int) -> dict[str, np.ndarray]:
    vectors: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if lineno == 1 and len(parts) - 1 != dim:
                if len(parts) == 2 and all(p.isdecimal() for p in parts):
                    raise FormatError(f"{path}: line 1 is a word2vec 'count dim' header; "
                                      "the text format has none, so delete that line")
                raise FormatError(
                    f"{path}: embedding file holds {len(parts) - 1}-dimensional vectors, expected {dim}")
            if len(parts) - 1 != dim:
                raise ParseError(f"{path}: line {lineno}: expected {dim} values, got {len(parts) - 1}")
            try:
                with np.errstate(over="ignore"):  # past float32's range reads as inf
                    vec = np.array([float(v) for v in parts[1:]], dtype=np.float32)
            except ValueError as e:
                raise ParseError(f"{path}: line {lineno}: {e}") from None
            bad = np.flatnonzero(~np.isfinite(vec))
            if bad.size:
                raise ParseError(f"{path}: line {lineno}: non-finite value {parts[1 + bad[0]]!r}")
            vectors[parts[0]] = vec
    return vectors


def load_embeddings(path, vocab: Vocabulary, dim: int, seed: int = 0) -> EmbeddingLayer:
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
    tokens = vocab.tokens()
    for token, idx in zip(tokens, vocab.encode_tokens(tokens)):
        vec = vectors.get(token)
        if vec is None:
            table[idx] = rng.uniform(-0.05, 0.05, size=dim).astype(np.float32)
        else:
            table[idx] = vec
    return EmbeddingLayer(table)
