"""Dataset ingestion and synthetic task generation.

A dataset is a delimited text file with header (id, text, label, plus named
metadata columns) and a JSON schema descriptor that assigns each metadata
column to a feature group (TF/UF/NF), marks it numeric or categorical, and
optionally maps affect-score columns. The descriptor travels separately
because the available metadata differs per dataset.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import text as text_mod
from .features import AFFECT_SLOTS, GROUPS, RowValues, parsed_columns
from .graph import (
    NF_FEATURE_NAMES,
    DegenerateGraphError,
    SocialGraph,
    closeness_scores,
    clustering_scores,
    eigenvector_centrality,
    hits,
    logged_followers,
    node_features,
    power_difference,
)
from .tensor import ContractError
from .utils import derive_rng


class SchemaError(ValueError):
    """Dataset and schema descriptor disagree."""


class EmptyDatasetError(ValueError):
    """A dataset has a header but no data rows."""


@dataclass
class Corpus:
    """Raw samples plus column metadata, before any fold-specific fitting."""

    ids: list[str]
    texts: list[str]
    labels: np.ndarray | None  # class indices; None in scores-only mode
    classes: list[str]
    records: list[dict]
    columns: dict[str, tuple[str, str]]  # column -> (group, kind)
    affect: dict[str, str] = field(default_factory=dict)
    header: list[str] = field(default_factory=list)  # the dataset file's columns; empty in memory
    path: str = ""  # the dataset file; empty in memory
    _tokens: list[list[str]] | None = None
    _values: RowValues = field(default_factory=RowValues, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.ids)

    def column_names(self) -> list[str]:
        """The dataset file's columns; for a corpus built in memory, every
        key its records carry, derived on each call so that keys added to
        the records later count."""
        if self.header:
            return list(self.header)
        return list(dict.fromkeys(key for rec in self.records for key in rec))

    def tokenized(self) -> list[list[str]]:
        if self._tokens is None:
            self._tokens = [text_mod.tokenize(t) for t in self.texts]
        return self._tokens

    def row_values(self, names=None) -> RowValues:
        """The rows' tweet counters and parsed ``names`` columns (by default
        every affect and numeric column of the schema), each computed on
        first use and kept: no fold fits them, so every fold reads one copy."""
        if names is None:
            names = parsed_columns(self.columns, self.affect)
        return self._values.fill(self.records, self.texts, names)


def load_schema(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            schema = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise SchemaError(f"{path}: schema is not UTF-8 JSON: {e}") from None
    if not isinstance(schema, dict):
        raise SchemaError(f"{path}: schema is not a JSON object")
    classes = schema.get("classes")
    if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)
            and len(set(classes)) == len(classes) >= 2):
        raise SchemaError(f"{path}: 'classes' must be a list of at least two distinct strings")
    columns = schema.get("columns", {})
    if not isinstance(columns, dict):
        raise SchemaError(f"{path}: 'columns' must be an object mapping column names to specs")
    for name, spec in columns.items():
        if not isinstance(spec, dict):
            raise SchemaError(f"{path}: column {name!r}: spec must be an object")
        if spec.get("group") not in GROUPS:
            raise SchemaError(f"{path}: column {name!r}: group must be one of {GROUPS}")
        if spec.get("kind", "numeric") not in ("numeric", "categorical"):
            raise SchemaError(f"{path}: column {name!r}: kind must be numeric or categorical")
    affect = schema.get("affect", {})
    if not isinstance(affect, dict):
        raise SchemaError(f"{path}: 'affect' must be an object mapping affect slots to column names")
    for slot, column in affect.items():
        if slot not in AFFECT_SLOTS:
            raise SchemaError(f"{path}: affect slot {slot!r} is not one of {AFFECT_SLOTS}")
        if not isinstance(column, str):
            raise SchemaError(f"{path}: affect slot {slot!r}: column must be a column name string")
    return schema


def load_corpus(dataset_path, schema_path) -> Corpus:
    """Read a delimited dataset under its schema descriptor; ``encode_inputs``
    checks the metadata columns a run reads."""
    schema = load_schema(schema_path)
    id_col = schema.get("id_column", "id")
    text_col = schema.get("text_column", "text")
    label_col = schema.get("label_column", "label")
    columns = {name: (spec["group"], spec.get("kind", "numeric"))
               for name, spec in schema.get("columns", {}).items()}
    affect = dict(schema.get("affect", {}))
    classes = list(schema["classes"])
    class_index = {c: i for i, c in enumerate(classes)}

    ids: list[str] = []
    texts: list[str] = []
    labels: list[int] = []
    records: list[dict] = []
    # utf-8-sig: a spreadsheet export's byte-order mark is not part of the first column's name
    try:
        with open(dataset_path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            for col in (id_col, text_col):
                if col not in header:
                    raise SchemaError(f"{dataset_path}: dataset is missing required column {col!r}")
            has_labels = label_col in header
            # blank rows are skipped and not numbered
            for rownum, row in enumerate(filter(None, reader), start=2):
                if len(row) != len(header):
                    raise SchemaError(f"{dataset_path}: row {rownum}: {len(row)} fields, "
                                      f"but the header has {len(header)}")
                record = dict(zip(header, row))
                ids.append(record[id_col])
                texts.append(record[text_col])
                if has_labels:
                    raw = record[label_col]
                    if raw not in class_index:
                        raise SchemaError(f"{dataset_path}: row {rownum}: label {raw!r} "
                                          "not in declared classes")
                    labels.append(class_index[raw])
                records.append(record)
    except UnicodeDecodeError:
        raise SchemaError(text_mod.not_utf8(dataset_path)) from None
    if len(set(ids)) != len(ids):
        first_row: dict[str, int] = {}
        for rownum, cid in enumerate(ids, start=2):
            if cid in first_row:
                raise SchemaError(f"{dataset_path}: row {rownum}: id {cid!r} is already used by row "
                                  f"{first_row[cid]}")
            first_row[cid] = rownum
    return Corpus(
        ids=ids,
        texts=texts,
        labels=np.array(labels, dtype=np.int64) if has_labels else None,
        classes=classes,
        records=records,
        columns=columns,
        affect=affect,
        header=list(header),
        path=str(dataset_path),
    )


def attach_network_features(corpus: Corpus, graph: SocialGraph, user_column: str) -> Corpus:
    """Compute the NF block per sample from an edge list and merge it in.

    Samples whose user is missing from the graph get zero NF features; a
    ``user_column`` not among the corpus's ``column_names`` is a SchemaError.
    Mentioned accounts are read from the @-mentions in the raw sample text. Every NF
    value but the power difference depends on the user alone, so closeness
    and clustering run once over the distinct users in the graph,
    `node_features` once per distinct user, and only the power difference,
    which reads the sample's mentions, per sample.
    """
    if user_column not in corpus.column_names():
        raise SchemaError(f"user column {user_column!r} is not in the dataset")
    hub_auth = hits(graph)
    try:
        eigen = eigenvector_centrality(graph)
    except DegenerateGraphError:
        eigen = {n: 0.0 for n in graph.nodes()}
    users = [u for u in dict.fromkeys(str(rec.get(user_column, "")) for rec in corpus.records)
             if u in graph.followers_count]
    close, clust = closeness_scores(graph, users), clustering_scores(graph, users)
    logged = logged_followers(graph)
    absent = dict.fromkeys(NF_FEATURE_NAMES, 0.0)
    per_user: dict[str, dict[str, float]] = {}
    records = []
    for rec, text in zip(corpus.records, corpus.texts):
        rec = dict(rec)
        user = str(rec.get(user_column, ""))
        if user in graph.followers_count:
            if user not in per_user:
                per_user[user] = dict(zip(NF_FEATURE_NAMES, node_features(
                    graph, user, hub_auth=hub_auth, eigen=eigen,
                    closeness=close, clustering=clust)))
            rec.update(per_user[user])
            mentioned = [m[1:] for m in text_mod.MENTION_RE.findall(text)]
            rec["nf_power_difference"] = power_difference(graph, user, mentioned, logged)
        else:
            rec.update(absent)
        records.append(rec)
    columns = dict(corpus.columns)
    for name in NF_FEATURE_NAMES:
        columns[name] = ("NF", "numeric")
    # an in-memory corpus keeps deriving its column names from its records
    header = [*corpus.header, *NF_FEATURE_NAMES] if corpus.header else []
    # new records: the values parsed from the old ones are not carried over
    return replace(corpus, records=records, columns=columns, header=header, _values=RowValues())


# ---------------------------------------------------------------------------
# synthetic tasks

_FILLER = [
    "game", "stream", "night", "coffee", "rain", "music", "city", "round",
    "team", "lunch", "travel", "photo", "story", "week", "show", "idea",
    "plan", "walk", "movie", "desk", "light", "garden", "river", "cloud",
]

XOR_TRIGGER = "signalword"
GROUPS_TOKEN = "alert"


def _filler_text(rng) -> list[str]:
    """4 to 9 filler words."""
    n = int(rng.integers(4, 10))
    return [str(_FILLER[int(i)]) for i in rng.integers(0, len(_FILLER), size=n)]


def check_synth_size(n: int | None, noise: float | None, names: tuple[str, str] = ("n", "noise")) -> None:
    """Refuse a synthetic corpus of fewer than one row, or a label-flip
    probability ``noise`` outside [0, 1], with a ContractError that calls
    the two values ``names``; a value of None is not checked."""
    if n is not None and n < 1:
        raise ContractError(f"{names[0]} must be >= 1, got {n}")
    if noise is not None and not 0.0 <= noise <= 1.0:
        raise ContractError(f"{names[1]} is a label-flip probability in [0, 1], got {noise}")


def synth_xor(n: int = 5000, noise: float = 0.0, seed: int = 0) -> Corpus:
    """Fusion task: label = XOR(text has trigger token, metadata > threshold).

    Both marginals are independent fair coins, so neither input alone can
    rank better than chance; only the interaction carries the label.
    """
    check_synth_size(n, noise)
    rng = derive_rng(seed, "synth", "xor")
    ids, texts, labels, records = [], [], [], []
    for i in range(n):
        words = _filler_text(rng)
        has_trigger = bool(rng.random() < 0.5)
        if has_trigger:
            pos = int(rng.integers(0, len(words) + 1))
            words.insert(pos, XOR_TRIGGER)
        signal = float(rng.random())
        label = int(has_trigger != (signal > 0.5))
        if rng.random() < noise:  # unconditional draw keeps streams aligned across noise levels
            label = 1 - label
        ids.append(f"s{i}")
        texts.append(" ".join(words))
        labels.append(label)
        records.append({
            "signal": f"{signal:.6f}",
            "noise1": f"{rng.normal():.6f}",
            "noise2": f"{rng.normal():.6f}",
        })
    return Corpus(
        ids=ids,
        texts=texts,
        labels=np.array(labels, dtype=np.int64),
        classes=["benign", "flagged"],
        records=records,
        columns={"signal": ("UF", "numeric"),
                 "noise1": ("UF", "numeric"),
                 "noise2": ("UF", "numeric")},
    )


def synth_groups(n: int = 3000, noise: float = 0.0, seed: int = 0) -> Corpus:
    """Three-group task: WV, TF and UF each carry independent label signal.

    The text leaks the label through a marker token, the TF counters through
    a label-dependent hashtag rate, and the UF column through a shifted
    gaussian, so every single-group model beats chance and the union beats
    each of them.
    """
    check_synth_size(n, noise)
    rng = derive_rng(seed, "synth", "groups")
    ids, texts, labels, records = [], [], [], []
    for i in range(n):
        label = int(rng.random() < 0.5)
        words = _filler_text(rng)
        p_token = 0.75 if label else 0.25
        if rng.random() < p_token:
            words.insert(int(rng.integers(0, len(words) + 1)), GROUPS_TOKEN)
        lam = 2.2 if label else 0.8
        for h in range(int(rng.poisson(lam))):
            words.append(f"#tag{int(rng.integers(0, 6))}")
        shift = 0.9 if label else -0.9
        feature = float(rng.normal(shift, 1.0))
        out_label = label
        if rng.random() < noise:
            out_label = 1 - out_label
        ids.append(f"g{i}")
        texts.append(" ".join(words))
        labels.append(out_label)
        records.append({"uf_signal": f"{feature:.6f}",
                        "uf_noise": f"{rng.normal():.6f}"})
    return Corpus(
        ids=ids,
        texts=texts,
        labels=np.array(labels, dtype=np.int64),
        classes=["benign", "flagged"],
        records=records,
        columns={"uf_signal": ("UF", "numeric"),
                 "uf_noise": ("UF", "numeric")},
    )


SYNTH_TASKS = {"xor": synth_xor, "groups": synth_groups}


def write_corpus(corpus: Corpus, dataset_path, schema_path) -> None:
    """Emit dataset.csv plus schema.json in the ingestion format; a corpus
    without labels gets no label column."""
    meta_cols = sorted({*corpus.columns, *corpus.affect.values()})
    lead = {"id": corpus.ids, "text": corpus.texts}
    if corpus.labels is not None:
        lead["label"] = [corpus.classes[i] for i in corpus.labels]
    with open(dataset_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*lead, *meta_cols])
        for i in range(len(corpus)):
            writer.writerow([column[i] for column in lead.values()]
                            + [corpus.records[i].get(c, "") for c in meta_cols])
    schema = {
        "classes": corpus.classes,
        "id_column": "id",
        "text_column": "text",
        "label_column": "label",
        "columns": {name: {"group": g, "kind": k} for name, (g, k) in corpus.columns.items()},
    }
    if corpus.affect:
        schema["affect"] = corpus.affect
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")
