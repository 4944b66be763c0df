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
import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import text as text_mod
from .features import GROUPS
from .graph import (
    NF_FEATURE_NAMES,
    DegenerateGraphError,
    SocialGraph,
    eigenvector_centrality,
    hits,
    node_features,
    power_difference,
)
from .utils import derive_rng

_MENTION_RE = re.compile(r"@(\w+)")


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
    _tokens: list[list[str]] | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def tokenized(self) -> list[list[str]]:
        if self._tokens is None:
            self._tokens = [text_mod.tokenize(t) for t in self.texts]
        return self._tokens


def load_schema(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    if "classes" not in schema or len(schema["classes"]) < 2:
        raise SchemaError("schema must declare at least two classes")
    for name, spec in schema.get("columns", {}).items():
        if spec.get("group") not in GROUPS:
            raise SchemaError(f"column {name!r}: group must be one of {GROUPS}")
        if spec.get("kind", "numeric") not in ("numeric", "categorical"):
            raise SchemaError(f"column {name!r}: kind must be numeric or categorical")
    return schema


def load_corpus(dataset_path, schema_path) -> Corpus:
    """Read a delimited dataset under its schema descriptor."""
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
    with open(dataset_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (id_col, text_col):
            if col not in header:
                raise SchemaError(f"dataset is missing required column {col!r}")
        for col in list(columns) + list(affect.values()):
            if col not in header:
                raise SchemaError(f"dataset is missing declared metadata column {col!r}")
        has_labels = label_col in header
        for rownum, row in enumerate(reader, start=2):
            # DictReader files a longer row's extra fields under None and
            # fills a shorter row's missing ones, the last field first, with None
            if None in row or row[header[-1]] is None:
                fields = len(header) + len(row.get(None, ())) - list(row.values()).count(None)
                raise SchemaError(f"row {rownum}: {fields} fields, but the header has {len(header)}")
            ids.append(row[id_col])
            texts.append(row[text_col] or "")
            if has_labels:
                raw = row[label_col]
                if raw not in class_index:
                    raise SchemaError(f"row {rownum}: label {raw!r} not in declared classes")
                labels.append(class_index[raw])
            records.append(dict(row))
    if len(set(ids)) != len(ids):
        raise SchemaError("dataset ids are not unique")
    return Corpus(
        ids=ids,
        texts=texts,
        labels=np.array(labels, dtype=np.int64) if has_labels else None,
        classes=classes,
        records=records,
        columns=columns,
        affect=affect,
        header=list(header),
    )


def attach_network_features(corpus: Corpus, graph: SocialGraph, user_column: str) -> Corpus:
    """Compute the NF block per sample from an edge list and merge it in.

    Samples whose user is missing from the graph get zero NF features; a
    ``user_column`` the dataset does not have is a SchemaError (checked
    against the file's header, or the records of an in-memory corpus).
    Mentioned accounts are read from @-tokens in the sample text. Every NF
    value but the power difference depends on the user alone, so
    `node_features` runs once per distinct user and only the power
    difference, which reads the sample's mentions, runs per sample.
    """
    if corpus.header:
        has_column = user_column in corpus.header
    else:
        has_column = any(user_column in rec for rec in corpus.records)
    if not has_column:
        raise SchemaError(f"user column {user_column!r} is not in the dataset")
    hub_auth = hits(graph)
    try:
        eigen = eigenvector_centrality(graph)
    except DegenerateGraphError:
        eigen = {n: 0.0 for n in graph.nodes()}
    absent = dict.fromkeys(NF_FEATURE_NAMES, 0.0)
    per_user: dict[str, dict[str, float]] = {}
    records = []
    for rec, text in zip(corpus.records, corpus.texts):
        rec = dict(rec)
        user = str(rec.get(user_column, ""))
        if user in graph.followers_count:
            if user not in per_user:
                per_user[user] = dict(zip(NF_FEATURE_NAMES, node_features(
                    graph, user, hub_auth=hub_auth, eigen=eigen)))
            rec.update(per_user[user])
            rec["nf_power_difference"] = power_difference(graph, user, _MENTION_RE.findall(text))
        else:
            rec.update(absent)
        records.append(rec)
    columns = dict(corpus.columns)
    for name in NF_FEATURE_NAMES:
        columns[name] = ("NF", "numeric")
    return replace(corpus, records=records, columns=columns,
                   header=[*corpus.header, *NF_FEATURE_NAMES])


# ---------------------------------------------------------------------------
# synthetic tasks

_FILLER = [
    "game", "stream", "night", "coffee", "rain", "music", "city", "round",
    "team", "lunch", "travel", "photo", "story", "week", "show", "idea",
    "plan", "walk", "movie", "desk", "light", "garden", "river", "cloud",
]

XOR_TRIGGER = "signalword"
GROUPS_TOKEN = "alert"


def _filler_text(rng, low=4, high=9) -> list[str]:
    n = int(rng.integers(low, high + 1))
    return [str(_FILLER[int(i)]) for i in rng.integers(0, len(_FILLER), size=n)]


def synth_xor(n: int = 5000, noise: float = 0.0, seed: int = 0) -> Corpus:
    """Fusion task: label = XOR(text has trigger token, metadata > threshold).

    Both marginals are independent fair coins, so neither input alone can
    rank better than chance; only the interaction carries the label.
    """
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
    """Emit dataset.csv plus schema.json in the ingestion format."""
    meta_cols = sorted(corpus.columns)
    with open(dataset_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "label"] + meta_cols)
        for i in range(len(corpus)):
            label = corpus.classes[corpus.labels[i]] if corpus.labels is not None else ""
            writer.writerow([corpus.ids[i], corpus.texts[i], label]
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
