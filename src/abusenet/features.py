"""Metadata feature extraction: tweet counters, categorical encoding, group masks.

Each sample's metadata vector carries a schema of (name, group) pairs with
group in {TF, UF, NF}. Affect scores (sentiment, six emotions, offensiveness)
are ingested from dataset columns when present and imputed with 0 plus an
``affect_present`` flag otherwise; this package never computes them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .text import HASHTAG_RE, MENTION_RE, URL_RE, read_word_list

GROUPS = ("TF", "UF", "NF")
MASK_GROUPS = ("WV", "TF", "UF", "NF")

AFFECT_SLOTS = (
    "sentiment",
    "anger",
    "disgust",
    "fear",
    "joy",
    "sadness",
    "surprise",
    "offensiveness",
)

ONE_HOT_MAX_CARDINALITY = 16


class ConfigurationError(ValueError):
    """A feature-group request cannot be satisfied by the dataset."""


class NonFiniteFeatureError(ValueError):
    """A metadata value is infinite or overflows float32."""


EMOTICONS = read_word_list("emoticons.txt")

TWEET_COUNTER_NAMES = ("n_hashtags", "n_mentions", "n_emoticons", "n_uppercase", "n_urls")


def tweet_counters(text: str) -> list[float]:
    """The TF counters of one post, in ``TWEET_COUNTER_NAMES`` order.

    Counting rules: URLs are removed first, so their pieces are never counted
    as uppercase words; emoticons match whitespace-delimited chunks against
    the shipped lexicon; uppercase words are letters-only chunks of length
    >= 2 that are entirely uppercase.
    """
    stripped, n_urls = URL_RE.subn(" ", text)
    n_mentions = len(MENTION_RE.findall(stripped))
    n_hashtags = len(HASHTAG_RE.findall(stripped))
    chunks = stripped.split()
    n_emoticons = sum(map(EMOTICONS.__contains__, chunks))
    n_upper = sum(1 for c in chunks if len(c) >= 2 and c.isalpha() and c == c.upper())
    return [float(n_hashtags), float(n_mentions), float(n_emoticons), float(n_upper), float(n_urls)]


def _affect_block(slots: dict[str, np.ndarray], n: int) -> np.ndarray:
    """Affect passthrough for ``n`` posts: [n, len(AFFECT_SLOTS) + 1] float64.

    ``slots`` maps an affect slot to its parsed values, NaN where a post has
    none. Unmapped and NaN values are imputed 0. The last column is the
    ``affect_present`` flag: 1 when at least one slot is mapped and none of
    the mapped slots is NaN for that post.
    """
    out = np.zeros((n, len(AFFECT_SLOTS) + 1))
    present = np.full(n, any(slot in slots for slot in AFFECT_SLOTS))
    for j, slot in enumerate(AFFECT_SLOTS):
        if slot in slots:
            values = slots[slot]
            missing = np.isnan(values)
            present &= ~missing
            out[:, j] = np.where(missing, 0.0, values)
    out[:, -1] = present
    return out


TF_FEATURE_NAMES = (*TWEET_COUNTER_NAMES, *AFFECT_SLOTS, "affect_present")


def mask_columns(columns: dict[str, tuple[str, str]], affect: dict[str, str], groups) -> tuple[dict, dict]:
    """The ``columns`` and ``affect`` (TF features) a pipeline for the metadata ``groups`` reads."""
    return ({name: spec for name, spec in columns.items() if spec[0] in groups},
            affect if "TF" in groups else {})


def parsed_columns(columns: dict[str, tuple[str, str]], affect: dict[str, str]) -> list[str]:
    """The dataset columns a pipeline over ``columns`` and ``affect`` reads as
    numbers: each affect slot's column, then every numeric column."""
    return [*(col for slot, col in affect.items() if slot in AFFECT_SLOTS),
            *(name for name, (_, kind) in columns.items() if kind == "numeric")]


@dataclass
class RowValues:
    """The per-row values ``FeaturePipeline.transform`` reads that no fitted
    encoder changes: the tweet counters, [n, len(TWEET_COUNTER_NAMES)]
    float64, and each parsed numeric or affect column by name, [n] float64
    with NaN for a cell that is not a number."""

    counters: np.ndarray | None = None
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def fill(self, records: list[dict], texts: list[str], names) -> "RowValues":
        """Compute whatever of the counters and the ``names`` columns is missing."""
        if self.counters is None:
            self.counters = np.array([tweet_counters(t) for t in texts],
                                     dtype=np.float64).reshape(len(texts), len(TWEET_COUNTER_NAMES))
        for name in names:
            if name not in self.columns:
                self.columns[name] = _parse_column(records, name)
        return self


@dataclass
class CategoricalEncoder:
    """One-hot for small value sets, frequency-rank ordinal otherwise."""

    column: str
    kind: str = "onehot"
    categories: list[str] = field(default_factory=list)
    ranks: dict[str, int] = field(default_factory=dict)

    @classmethod
    def fit(cls, column: str, values: list[str]) -> "CategoricalEncoder":
        counts = Counter(str(v) for v in values)
        if len(counts) <= ONE_HOT_MAX_CARDINALITY:
            return cls(column=column, kind="onehot", categories=sorted(counts))
        ordered = sorted(counts, key=lambda v: (-counts[v], v))
        return cls(column=column, kind="ordinal", ranks={v: r for r, v in enumerate(ordered)})

    def output_names(self) -> list[str]:
        if self.kind == "onehot":
            return [f"{self.column}={c}" for c in self.categories]
        return [f"{self.column}#rank"]

    def transform(self, values: list) -> np.ndarray:
        """Encode one column: [len(values), len(output_names())] float64."""
        values = [str(v) for v in values]
        if self.kind == "onehot":
            index = {c: j for j, c in enumerate(self.categories)}
            hit = np.array([index.get(v, -1) for v in values], dtype=np.int64)
            rows = np.flatnonzero(hit >= 0)
            out = np.zeros((len(values), len(self.categories)))
            out[rows, hit[rows]] = 1.0
            return out
        # unseen values rank below every seen one
        unseen = len(self.ranks)
        return np.array([self.ranks.get(v, unseen) for v in values], dtype=np.float64)[:, None]

    def to_config(self) -> dict:
        return {"column": self.column, "kind": self.kind,
                "categories": self.categories, "ranks": self.ranks}

    @classmethod
    def from_config(cls, cfg: dict) -> "CategoricalEncoder":
        return cls(column=cfg["column"], kind=cfg["kind"],
                   categories=list(cfg.get("categories", [])),
                   ranks={k: int(v) for k, v in cfg.get("ranks", {}).items()})


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    group: str


@dataclass
class FeatureTable:
    """Assembled numeric metadata: values [n, f] aligned with schema."""

    values: np.ndarray
    schema: list[FeatureColumn]

    def group_columns(self, group: str) -> list[int]:
        return [i for i, c in enumerate(self.schema) if c.group == group]

    def select(self, columns: list[int]) -> "FeatureTable":
        return FeatureTable(self.values[:, columns], [self.schema[i] for i in columns])


class FeaturePipeline:
    """Turns raw metadata records plus text into a FeatureTable.

    ``columns`` maps dataset column name -> (group, kind) with kind in
    {numeric, categorical}; ``affect`` maps affect slot -> dataset column.
    Categorical encodings are fitted on training rows only and serialize with
    the model so evaluation reproduces the exact schema.
    """

    def __init__(self, columns: dict[str, tuple[str, str]], affect: dict[str, str] | None = None):
        for name, (group, kind) in columns.items():
            if group not in GROUPS:
                raise ConfigurationError(f"column {name!r}: unknown group {group!r}")
            if kind not in ("numeric", "categorical"):
                raise ConfigurationError(f"column {name!r}: unknown kind {kind!r}")
        self.columns = dict(columns)
        self.affect = dict(affect or {})
        self.encoders: dict[str, CategoricalEncoder] = {}
        self.fitted = False

    def fit(self, records: list[dict]) -> "FeaturePipeline":
        for name, (group, kind) in self.columns.items():
            if kind == "categorical":
                self.encoders[name] = CategoricalEncoder.fit(
                    name, [r.get(name, "") for r in records])
        self.fitted = True
        return self

    def transform(self, records: list[dict], texts: list[str],
                  values: RowValues | None = None) -> FeatureTable:
        """Encode every row a column at a time: [len(records), f] float32.

        ``values`` holds the rows' counters and every column in
        ``parsed_columns(self.columns, self.affect)`` (a corpus keeps them,
        see ``Corpus.row_values``); without it they are computed here.
        """
        if not self.fitted:
            raise ConfigurationError("pipeline must be fitted before transform")
        if len(records) != len(texts):
            raise ConfigurationError("records and texts must align")
        if values is None:
            values = RowValues().fill(records, texts, parsed_columns(self.columns, self.affect))
        n = len(records)
        affect = {slot: values.columns[col] for slot, col in self.affect.items()
                  if slot in AFFECT_SLOTS}
        blocks = [values.counters, _affect_block(affect, n)]
        schema = [FeatureColumn(name, "TF") for name in TF_FEATURE_NAMES]
        for name in sorted(self.columns):
            group, kind = self.columns[name]
            if kind == "numeric":
                cells = values.columns[name]
                blocks.append(np.where(np.isnan(cells), 0.0, cells)[:, None])
                schema.append(FeatureColumn(name, group))
            else:
                enc = self.encoders[name]
                blocks.append(enc.transform([rec.get(name, "") for rec in records]))
                schema.extend(FeatureColumn(out_name, group) for out_name in enc.output_names())
        parsed = np.concatenate(blocks, axis=1)
        with np.errstate(over="ignore"):  # overflow is reported below, by row and column
            values = parsed.astype(np.float32)
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            row, col = bad[0]
            raise NonFiniteFeatureError(
                f"row {row}: metadata feature {schema[col].name!r} is {float(parsed[row, col])!r}, "
                "which is not finite in float32")
        return FeatureTable(values, schema)

    def to_config(self) -> dict:
        return {
            "columns": {k: list(v) for k, v in self.columns.items()},
            "affect": self.affect,
            "encoders": {k: e.to_config() for k, e in self.encoders.items()},
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "FeaturePipeline":
        pipe = cls({k: tuple(v) for k, v in cfg["columns"].items()}, cfg.get("affect"))
        pipe.encoders = {k: CategoricalEncoder.from_config(e) for k, e in cfg.get("encoders", {}).items()}
        pipe.fitted = True
        return pipe


def is_string_list(value) -> bool:
    return isinstance(value, list) and all(map(isinstance, value, repeat(str)))  # isinstance at C speed


def check_pipeline_config(cfg, name: str) -> None:
    """Refuse, with a ConfigurationError naming ``cfg`` ``name``, a config
    ``FeaturePipeline.from_config`` cannot turn into a pipeline whose
    ``transform`` runs."""

    def maps(value, check) -> bool:
        return isinstance(value, dict) and all(map(check, value.values()))

    def encoder(e) -> bool:
        return (isinstance(e, dict) and isinstance(e.get("column"), str) and e.get("kind") in ("onehot", "ordinal")
                and is_string_list(e.get("categories", [])) and maps(e.get("ranks", {}), lambda r: type(r) is int))

    columns = cfg.get("columns") if isinstance(cfg, dict) else None
    if not maps(columns, lambda c: is_string_list(c) and len(c) == 2 and c[0] in GROUPS
                and c[1] in ("numeric", "categorical")):
        raise ConfigurationError(f"{name} is not a mapping whose columns are [group, kind] pairs")
    if not maps(cfg.get("affect") or {}, lambda column: isinstance(column, str)):
        raise ConfigurationError(f"{name} is not a pipeline: its affect does not map slots to columns")
    encoders = cfg.get("encoders", {})
    if not (maps(encoders, encoder) and all(n in encoders for n, (_, kind) in columns.items() if kind == "categorical")):
        raise ConfigurationError(f"{name} is not a pipeline: a categorical column lacks a valid encoder")


def _to_float(raw) -> float:
    """``float(raw)``; NaN for a missing, blank or unparseable cell, and a
    signed inf for an integer too large for a float (then reported as not
    finite, like any other overflowing value)."""
    try:
        return float(raw)
    except OverflowError:
        return math.inf if raw > 0 else -math.inf
    except (TypeError, ValueError):
        return float("nan")


def _parse_column(records: list[dict], column: str) -> np.ndarray:
    return np.array([_to_float(rec.get(column)) for rec in records], dtype=np.float64)


def parse_mask(spec: str | set[str] | frozenset[str]) -> frozenset[str]:
    """Parse a feature-group mask like "WV+TF+UF"; must be a nonempty subset."""
    if isinstance(spec, str):
        parts = {p.strip().upper() for p in spec.replace(",", "+").split("+") if p.strip()}
    else:
        parts = {str(p).upper() for p in spec}
    if not parts:
        raise ConfigurationError("feature-group mask must be nonempty")
    unknown = parts - set(MASK_GROUPS)
    if unknown:
        raise ConfigurationError(f"unknown feature groups: {sorted(unknown)}")
    return frozenset(parts)


def mask_name(mask) -> str:
    """A mask's one spelling: its groups in ``MASK_GROUPS`` order, joined by "+"."""
    return "+".join(sorted(parse_mask(mask), key=MASK_GROUPS.index))


def assemble(table: FeatureTable, mask: str | set[str] | frozenset[str]) -> tuple[FeatureTable, frozenset[str]]:
    """Filter the metadata table to the groups named in the mask.

    WV is the text input, not a metadata column; a mask of {WV} yields an
    empty metadata schema (a text-only model). Requesting a metadata group
    with no columns is a configuration error.
    """
    mask = parse_mask(mask)
    keep: list[int] = []
    for group in GROUPS:
        if group in mask:
            cols = table.group_columns(group)
            if not cols:
                raise ConfigurationError(f"mask requests group {group} but the dataset has no {group} columns")
            keep.extend(cols)
    return table.select(keep), mask
