"""Metadata feature extraction: tweet counters, categorical encoding, group masks.

Each sample's metadata vector carries a schema of (name, group) pairs with
group in {TF, UF, NF}. Affect scores (sentiment, six emotions, offensiveness)
are ingested from dataset columns when present and imputed with 0 plus an
``affect_present`` flag otherwise; this package never computes them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources as importlib_resources

import numpy as np

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

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")


class ConfigurationError(ValueError):
    """A feature-group request cannot be satisfied by the dataset."""


class NonFiniteFeatureError(ValueError):
    """A metadata value is infinite or overflows float32."""


def _load_emoticons() -> frozenset[str]:
    text = importlib_resources.files("abusenet.resources").joinpath("emoticons.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines()
                     if line.strip() and not line.startswith("#"))


EMOTICONS = _load_emoticons()

TWEET_COUNTER_NAMES = ("n_hashtags", "n_mentions", "n_emoticons", "n_uppercase", "n_urls")


def tweet_features(text: str, affect: dict[str, float] | None = None) -> tuple[list[float], list[str]]:
    """TF feature block for one post: counters plus affect passthrough slots.

    Counting rules: URLs are removed first, so their pieces are never counted
    as uppercase words; emoticons match whitespace-delimited chunks against
    the shipped lexicon; uppercase words are letters-only chunks of length
    >= 2 that are entirely uppercase.
    """
    n_urls = len(_URL_RE.findall(text))
    stripped = _URL_RE.sub(" ", text)
    n_mentions = len(_MENTION_RE.findall(stripped))
    n_hashtags = len(_HASHTAG_RE.findall(stripped))
    chunks = stripped.split()
    n_emoticons = sum(1 for c in chunks if c in EMOTICONS)
    n_upper = sum(1 for c in chunks if len(c) >= 2 and c.isalpha() and c == c.upper())

    values = [float(n_hashtags), float(n_mentions), float(n_emoticons), float(n_upper), float(n_urls)]
    names = list(TWEET_COUNTER_NAMES)

    affect = affect or {}
    present = bool(affect) and all(
        affect.get(slot) is not None and not np.isnan(affect.get(slot)) for slot in AFFECT_SLOTS
        if slot in affect
    ) and any(slot in affect for slot in AFFECT_SLOTS)
    for slot in AFFECT_SLOTS:
        v = affect.get(slot)
        values.append(0.0 if v is None or np.isnan(v) else float(v))
        names.append(slot)
    values.append(1.0 if present else 0.0)
    names.append("affect_present")
    return values, names


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

    def transform_value(self, value) -> list[float]:
        value = str(value)
        if self.kind == "onehot":
            return [1.0 if value == c else 0.0 for c in self.categories]
        # unseen values rank below every seen one
        return [float(self.ranks.get(value, len(self.ranks)))]

    def to_config(self) -> dict:
        return {"column": self.column, "kind": self.kind,
                "categories": self.categories, "ranks": self.ranks}

    @classmethod
    def from_config(cls, cfg: dict) -> "CategoricalEncoder":
        return cls(column=cfg["column"], kind=cfg["kind"],
                   categories=list(cfg.get("categories", [])),
                   ranks={k: int(v) for k, v in cfg.get("ranks", {}).items()})


def encode_categorical(values: list[str]) -> tuple[np.ndarray, list[str]]:
    """Encode one categorical column; convenience wrapper over the encoder."""
    enc = CategoricalEncoder.fit("value", values)
    matrix = np.array([enc.transform_value(v) for v in values], dtype=np.float32)
    return matrix, enc.output_names()


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

    def fit(self, records: list[dict], texts: list[str] | None = None) -> "FeaturePipeline":
        for name, (group, kind) in self.columns.items():
            if kind == "categorical":
                self.encoders[name] = CategoricalEncoder.fit(
                    name, [r.get(name, "") for r in records])
        self.fitted = True
        return self

    def transform(self, records: list[dict], texts: list[str]) -> FeatureTable:
        if not self.fitted:
            raise ConfigurationError("pipeline must be fitted before transform")
        if len(records) != len(texts):
            raise ConfigurationError("records and texts must align")
        rows: list[list[float]] = []
        schema: list[FeatureColumn] | None = None
        for rec, text in zip(records, texts):
            affect = {}
            for slot, col in self.affect.items():
                raw = rec.get(col)
                affect[slot] = _to_float(raw) if raw not in (None, "") else float("nan")
            values, names = tweet_features(text, affect if self.affect else None)
            cols = [FeatureColumn(n, "TF") for n in names]
            for name in sorted(self.columns):
                group, kind = self.columns[name]
                if kind == "numeric":
                    raw = rec.get(name)
                    v = _to_float(raw) if raw not in (None, "") else float("nan")
                    values.append(0.0 if np.isnan(v) else v)
                    cols.append(FeatureColumn(name, group))
                else:
                    enc = self.encoders[name]
                    for out_name, out_val in zip(enc.output_names(), enc.transform_value(rec.get(name, ""))):
                        values.append(out_val)
                        cols.append(FeatureColumn(out_name, group))
            rows.append(values)
            if schema is None:
                schema = cols
        with np.errstate(over="ignore"):  # overflow is reported below, by row and column
            values = np.array(rows, dtype=np.float32)
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            row, col = bad[0]
            raise NonFiniteFeatureError(
                f"row {row}: metadata feature {schema[col].name!r} is {rows[row][col]!r}, "
                "which is not finite in float32")
        return FeatureTable(values, schema or [])

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


def _to_float(raw) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        return float("nan")


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
