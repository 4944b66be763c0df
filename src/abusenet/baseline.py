"""Multinomial Naive Bayes over TF-IDF weights: the classical reference model.

Preprocessing keeps it deliberately simple: lowercase, strip the platform
marker tokens and punctuation, drop stop words (a fixed list covering 14
languages), and keep only the most frequent vocabulary (top 10k by default).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .tensor import ContractError
from .text import (
    HASHTAG_TOKEN,
    NUMBER_TOKEN,
    URL_TOKEN,
    USER_TOKEN,
    rank_by_count,
    read_word_list,
    tokenize,
)

MARKER_TOKENS = {URL_TOKEN, USER_TOKEN, NUMBER_TOKEN, HASHTAG_TOKEN}


STOPWORDS = read_word_list("stopwords.txt")
_DROPPED = MARKER_TOKENS | STOPWORDS


def baseline_terms(tokens: list[str]) -> list[str]:
    """The tokens of ``tokenize`` the baseline keeps: no markers, punctuation or stop words."""
    return [t for t in tokens if t not in _DROPPED and (len(t) != 1 or t.isalnum())]


def preprocess_baseline(text: str) -> list[str]:
    """Lowercase, drop markers/punctuation/stop words."""
    return baseline_terms(tokenize(text))


@dataclass(frozen=True, eq=False)
class TermMatrix:
    """A documents x terms matrix in compressed sparse rows.

    Row i holds the values ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, in increasing column order; every
    other entry is zero. Memory grows with the stored entries, not with
    documents x terms.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        if len(self.indptr) != self.shape[0] + 1 or not len(self.indices) == len(self.data) == self.indptr[-1]:
            raise ValueError(f"TermMatrix of shape {self.shape} got {len(self.indptr)} row pointers, "
                             f"{len(self.indices)} indices and {len(self.data)} values")

    @classmethod
    def from_dense(cls, matrix) -> "TermMatrix":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D documents x terms matrix, got shape {matrix.shape}")
        rows, cols = np.nonzero(matrix)
        return cls._from_entries(rows, cols, matrix[rows, cols], matrix.shape)

    @classmethod
    def _from_entries(cls, rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                      shape: tuple[int, int]) -> "TermMatrix":
        """From row-major (row, column, value) entries."""
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(indptr, cols.astype(np.int32), data, (int(shape[0]), int(shape[1])))

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.row_ids(), self.indices] = self.data
        return out


@dataclass
class TfidfModel:
    """Top-k vocabulary with smoothed idf; rows L2-normalize on transform."""

    top_k: int = 10000
    vocabulary: dict[str, int] = field(default_factory=dict)
    idf: np.ndarray | None = None
    n_documents: int = 0

    def __post_init__(self):
        if self.top_k < 1:
            raise ContractError(f"top_k must be at least 1, got {self.top_k}")

    def fit(self, documents: list[list[str]]) -> "TfidfModel":
        self._fit(documents)
        return self

    def transform(self, documents: list[list[str]]) -> TermMatrix:
        if self.idf is None:
            raise ValueError("TfidfModel must be fitted first")
        return self._weigh(len(documents), *self._term_counts(documents))

    def fit_transform(self, documents: list[list[str]]) -> TermMatrix:
        return self._weigh(len(documents), *self._fit(documents))

    def _fit(self, documents: list[list[str]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fit, and return the documents' term counts for a transform to reuse."""
        term_counts = Counter(chain.from_iterable(documents))
        kept = rank_by_count(list(term_counts), term_counts)[: self.top_k]
        self.vocabulary = {t: i for i, t in enumerate(kept)}
        self.n_documents = len(documents)
        counts = self._term_counts(documents)
        df = np.bincount(counts[1], minlength=len(kept))
        self.idf = np.log((1.0 + self.n_documents) / (1.0 + df)) + 1.0
        return counts

    def _term_counts(self, documents: list[list[str]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, column, count) of every distinct in-vocabulary term of every
        document, in row-major order."""
        n_terms = len(self.vocabulary)
        lengths = np.fromiter(map(len, documents), dtype=np.int64, count=len(documents))
        cols = np.fromiter(map(self.vocabulary.get, chain.from_iterable(documents), repeat(-1)),
                           dtype=np.int64, count=int(lengths.sum()))
        rows = np.repeat(np.arange(len(documents)), lengths)
        known = cols >= 0
        keys, counts = np.unique(rows[known] * n_terms + cols[known], return_counts=True)
        rows, cols = np.divmod(keys, max(n_terms, 1))
        return rows, cols, counts

    def _weigh(self, n_documents: int, rows: np.ndarray, cols: np.ndarray,
               counts: np.ndarray) -> TermMatrix:
        """Counts times idf, each row scaled to unit L2 norm (empty rows stay empty)."""
        data = counts * self.idf[cols]
        norms = np.sqrt(np.bincount(rows, weights=data * data, minlength=n_documents))
        data /= norms[rows]
        return TermMatrix._from_entries(rows, cols, data, (n_documents, len(self.vocabulary)))


def _as_term_matrix(matrix) -> TermMatrix:
    """NB's one entry: a dense 2-D input becomes a TermMatrix; values must be finite."""
    if not isinstance(matrix, TermMatrix):
        matrix = TermMatrix.from_dense(matrix)
    bad = np.flatnonzero(~np.isfinite(matrix.data))
    if bad.size:
        k = int(bad[0])
        row = int(np.searchsorted(matrix.indptr, k, side="right")) - 1
        raise ValueError(f"non-finite matrix value {matrix.data[k]} at row {row}, "
                         f"column {int(matrix.indices[k])}")
    return matrix


@dataclass
class NaiveBayes:
    """Multinomial NB with add-one (Laplace) smoothing, consuming TF-IDF weights.

    Takes a TermMatrix or a dense documents x terms array.
    """

    log_prior: np.ndarray | None = None
    log_likelihood: np.ndarray | None = None  # [classes, terms]
    n_classes: int = 0

    def fit(self, matrix, labels: np.ndarray, n_classes: int | None = None) -> "NaiveBayes":
        matrix = _as_term_matrix(matrix)
        labels = np.asarray(labels)
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got {labels.dtype}")
        if len(labels) != matrix.shape[0]:
            raise ValueError(f"matrix has {matrix.shape[0]} rows but there are {len(labels)} labels")
        self.n_classes = int(labels.max()) + 1 if n_classes is None else n_classes
        outside = (labels < 0) | (labels >= self.n_classes)
        if outside.any():
            raise ValueError(f"label {labels[outside][0]} outside [0, {self.n_classes}) "
                             f"at row {int(np.flatnonzero(outside)[0])}")
        counts = np.bincount(labels, minlength=self.n_classes).astype(np.float64)
        if (counts == 0).any():
            raise ValueError("every class needs at least one training sample")
        self.log_prior = np.log(counts / counts.sum())
        n_terms = matrix.shape[1]
        keys = labels[matrix.row_ids()].astype(np.int64) * n_terms + matrix.indices
        weights = np.bincount(keys, weights=matrix.data,
                              minlength=self.n_classes * n_terms).reshape(self.n_classes, n_terms)
        smoothed = weights + 1.0
        self.log_likelihood = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        return self

    def joint_log_scores(self, matrix) -> np.ndarray:
        if self.log_prior is None:
            raise ValueError("NaiveBayes must be fitted first")
        matrix = _as_term_matrix(matrix)
        if matrix.shape[1] != self.log_likelihood.shape[1]:
            raise ValueError(f"matrix has {matrix.shape[1]} terms, the model {self.log_likelihood.shape[1]}")
        n_rows, rows = matrix.shape[0], matrix.row_ids()
        # bincount, not add.reduceat: an empty row must score exactly its prior
        scores = np.empty((n_rows, self.n_classes), dtype=np.float64)
        for k in range(self.n_classes):
            scores[:, k] = np.bincount(rows, weights=matrix.data * self.log_likelihood[k, matrix.indices],
                                       minlength=n_rows)
        return scores + self.log_prior


def nb_fit(matrix, labels: np.ndarray, n_classes: int | None = None) -> NaiveBayes:
    return NaiveBayes().fit(matrix, labels, n_classes)


def nb_predict(model: NaiveBayes, matrix) -> tuple[np.ndarray, np.ndarray]:
    """(predictions, posteriors) for a documents x terms matrix, scored once;
    the prediction takes the lowest class index on ties."""
    scores = model.joint_log_scores(matrix)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return scores.argmax(axis=1), e / e.sum(axis=1, keepdims=True)
