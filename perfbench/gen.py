"""Seeded synthetic inputs for the benchmark workloads.

Every input is a file the program reads through its own loaders: a dataset
CSV plus schema JSON for `load_corpus` and, for cv-pipeline, an edge list
plus node-attribute file for `SocialGraph.from_files`. (score-long's
checkpoint comes from `workloads.make_score_inputs`.) The same seed gives
byte-identical files.

Texts are drawn from a Zipf-Mandelbrot law, p(rank) ~ (rank + q)^-s, over
generated alphabetic words. Words carry no digits: the tokenizer would split
"w123" into "w" + "<number>" and collapse the vocabulary. Posts also carry
mentions, hashtags, URLs, emoticons and SHOUTED words, which feed the tweet
counters. The label is learnable from both paths: abusive posts use words of
a small lexicon more often, and shift the offensiveness/anger scores and
several account columns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSES = ["benign", "abusive"]
AFFECT_SLOTS = ("sentiment", "anger", "disgust", "fear", "joy", "sadness", "surprise",
                "offensiveness")
EMOTICONS = (":)", ":(", ";)", ":D", ":P", ":/", "<3", "xD")
LANGS = ("en", "es", "de", "fr", "it", "pt")
LETTERS = np.array(list("bcdfghjklmnprstvwz"))
VOWELS = np.array(list("aeiou"))


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's generated inputs."""

    rows: int
    words: tuple[int, int]       # words per post, inclusive range
    vocab_words: int             # distinct words the Zipf law ranges over
    zipf_q: float
    zipf_s: float
    users: int = 0               # > 0 adds a user column and a follower graph
    graph_nodes: int = 0
    out_degree: int = 0
    high_card: int = 0           # > 0 adds a high-cardinality categorical column
    affect: bool = False         # adds the eight affect-score columns


SPECS = {
    # 4552 balanced rows: fit's stratified 10% carve-out leaves exactly
    # 8 x 512 training rows, so every step is a full batch.
    "train-short": Spec(rows=4552, words=(13, 25), vocab_words=45000, zipf_q=10000, zipf_s=1.5),
    "score-long": Spec(rows=2048, words=(64, 104), vocab_words=36000, zipf_q=2500, zipf_s=1.15),
    "cv-pipeline": Spec(rows=2000, words=(12, 24), vocab_words=24000, zipf_q=1500, zipf_s=1.1,
                        users=160, graph_nodes=320, out_degree=6, high_card=60, affect=True),
}

NUMERIC_UF = ("followers", "friends", "statuses", "favourites", "listed", "account_age_days",
              "posts_per_day", "default_profile", "verified", "profile_has_url")
FLAGS = {"default_profile": (0.2, 0.3), "verified": (0.05, 0.0), "profile_has_url": (0.4, 0.0)}


def word_list(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct lowercase words of 2-4 consonant-vowel syllables."""
    words: dict[str, None] = {}
    while len(words) < n:
        k = 2 * n
        syll = rng.integers(2, 5, size=k)
        cons = LETTERS[rng.integers(0, LETTERS.size, size=(k, 4))]
        vows = VOWELS[rng.integers(0, VOWELS.size, size=(k, 4))]
        for i in range(k):
            s = int(syll[i])
            words.setdefault("".join(c + v for c, v in zip(cons[i, :s], vows[i, :s])))
            if len(words) == n:
                break
    return list(words)


def _texts(rng, spec: Spec, labels: np.ndarray, vocab: list[str], lexicon: list[str],
           mention_pool: list[str]) -> list[str]:
    n = labels.size
    lengths = rng.integers(spec.words[0], spec.words[1] + 1, size=n)
    ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
    p = (ranks + spec.zipf_q) ** -spec.zipf_s
    p /= p.sum()
    draws = rng.choice(len(vocab), size=int(lengths.sum()), p=p)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    texts = []
    for i in range(n):
        abusive = bool(labels[i])
        words = [vocab[j] for j in draws[offsets[i]:offsets[i + 1]]]
        for _ in range(int(rng.poisson(2.5 if abusive else 0.25))):
            words.insert(int(rng.integers(0, len(words) + 1)), lexicon[int(rng.integers(len(lexicon)))])
        for _ in range(int(rng.poisson(1.2 if abusive else 0.2))):
            j = int(rng.integers(len(words)))
            words[j] = words[j].upper()
        extras = []
        for _ in range(int(rng.poisson(0.8))):
            extras.append("@" + mention_pool[int(rng.integers(len(mention_pool)))])
        for _ in range(int(rng.poisson(0.6))):
            extras.append("#" + vocab[int(rng.integers(200))])
        if rng.random() < 0.2:
            extras.append("https://t.co/" + "".join(rng.choice(LETTERS, 6)))
        if rng.random() < 0.25:
            extras.append(EMOTICONS[int(rng.integers(len(EMOTICONS)))])
        for tok in extras:
            words.insert(int(rng.integers(0, len(words) + 1)), tok)
        texts.append(" ".join(words))
    return texts


def _write_dataset(out: Path, spec: Spec, rng: np.random.Generator) -> dict:
    n = spec.rows
    labels = rng.permutation(np.arange(n) % 2)
    vocab = word_list(rng, spec.vocab_words + 40)
    lexicon, vocab = vocab[:40], vocab[40:]

    users = [f"u{i}" for i in range(spec.users)]
    others = [f"a{i}" for i in range(max(spec.graph_nodes - spec.users, 0))]
    mention_pool = users + others if users else [f"a{i}" for i in range(300)]
    texts = _texts(rng, spec, labels, vocab, lexicon, mention_pool)

    lab = labels.astype(np.float64)
    columns = {name: {"group": "UF", "kind": "numeric"} for name in NUMERIC_UF}
    columns["lang"] = {"group": "UF", "kind": "categorical"}
    affect = {slot: f"aff_{slot}" for slot in AFFECT_SLOTS} if spec.affect else {}
    # account columns arrive standardized (mean 0, sd 1 over benign rows), so
    # inference-mode batch norm, whose running statistics start at 0/1, is
    # meaningful after the few epochs a benchmark run trains
    shifts = {"followers": -0.6, "statuses": 0.5, "posts_per_day": 0.7, "account_age_days": -0.4}
    cols: dict[str, list[str]] = {
        name: [f"{v:.4f}" for v in rng.normal(shifts.get(name, 0.0) * lab, 1.0)]
        for name in NUMERIC_UF if name not in FLAGS
    }
    for name, (base, shift) in FLAGS.items():
        cols[name] = (rng.random(n) < base + shift * lab).astype(int).astype(str).tolist()
    cols["lang"] = [LANGS[i] for i in rng.integers(0, len(LANGS), n)]
    for slot in affect:
        shift = {"offensiveness": 0.35, "anger": 0.25, "joy": -0.15}.get(slot, 0.0)
        vals = np.clip(rng.normal(0.3 + shift * lab, 0.2), 0.0, 1.0)
        cols[f"aff_{slot}"] = [f"{v:.5f}" for v in vals]
    if spec.high_card:
        columns["location"] = {"group": "UF", "kind": "categorical"}
        cols["location"] = [f"loc{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in
                            rng.integers(0, spec.high_card, n)]
    if users:
        # abusive posts come mostly from the first quarter of the users, so
        # many samples share a user and graph position carries some signal
        bad = spec.users // 4
        from_bad = rng.random(n) < np.where(labels == 1, 0.8, 0.1)
        sample_users = np.where(from_bad, rng.integers(0, bad, n), rng.integers(bad, spec.users, n))
        cols["user"] = [users[i] for i in sample_users]

    header = ["id", "text", "label"] + sorted(cols)
    with open(out / "dataset.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            writer.writerow([f"p{i}", texts[i], CLASSES[labels[i]]] + [cols[c][i] for c in header[3:]])
    schema = {"classes": CLASSES, "id_column": "id", "text_column": "text", "label_column": "label",
              "columns": columns, "affect": affect}
    (out / "schema.json").write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")

    facts = {"rows": n, "metadata_columns": len(columns) + len(affect)}
    if users:
        facts.update(_write_graph(out, spec, rng, users, others))
        facts["samples_per_user"] = round(n / spec.users, 2)
    return facts


def _write_graph(out: Path, spec: Spec, rng, users: list[str], others: list[str]) -> dict:
    nodes = users + others
    bad = spec.users // 4
    edges = set()
    for i, src in enumerate(nodes):
        # abusive users mostly follow each other
        pool = bad if i < bad and rng.random() < 0.7 else len(nodes)
        for j in rng.integers(0, pool, spec.out_degree):
            if int(j) != i:
                edges.add((src, nodes[int(j)]))
    with open(out / "edges.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{s} {d}\n" for s, d in sorted(edges))
    # small platform counts keep the raw NF columns near batch norm's initial
    # running statistics
    followers = np.round(np.exp(rng.normal(1.5, 0.8, len(nodes)))).astype(int)
    friends = np.round(np.exp(rng.normal(1.2, 0.7, len(nodes)))).astype(int)
    with open(out / "nodes.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{nd} {fo} {fr}\n" for nd, fo, fr in zip(nodes, followers, friends))
    return {"graph_nodes": len(nodes), "graph_edges": len(edges), "users": spec.users}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files under ``out``; returns facts about them."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, sorted(SPECS).index(workload)]))
    return _write_dataset(out, SPECS[workload], rng)
