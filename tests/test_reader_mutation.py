"""Seeded mutation of the five text-file readers: the dataset CSV, the schema
JSON, embeddings, edges and nodes (the checkpoint reader has its own, in
test_model.py). Every mutant either loads or is refused with one of the
errors ``abusenet`` reports as bad input, and a refused file's allocations
stay linear in its size."""

import json
import tracemalloc

import numpy as np
import pytest

from abusenet.cli import INPUT_ERRORS
from abusenet.data import load_corpus
from abusenet.features import FeaturePipeline
from abusenet.graph import SocialGraph
from abusenet.text import Vocabulary, load_embeddings

# byte strings a mutation injects: bytes that are not UTF-8, numbers that are
# not finite (or not in float64's range), and each format's separators
TOKENS = (b"\xff", b"\xc3", b"\x80", b"\x00", b"\r", b"\n", b" ", b",", b'"', b"#", b":",
          b"{", b"}", b"[", b"]", b"null", b"true", b"-1", b"0", b"nan", b"inf", b"-inf",
          b"1e400", b"-1e400", b"\xef\xbb\xbf", b"\xe2\x80\xa8")

SCHEMA = {"classes": ["benign", "flagged"], "id_column": "id", "text_column": "text",
          "label_column": "label", "affect": {"sentiment": "sent", "anger": "ang"},
          "columns": {"followers": {"group": "UF", "kind": "numeric"},
                      "lang": {"group": "UF", "kind": "categorical"},
                      "retweets": {"group": "TF"}}}

DATASET = "id,text,label,followers,lang,retweets,sent,ang\n" + "".join(
    f'p{i},"{text}",{"benign flagged".split()[i % 2]},{10 * i + 3},{"en fr de".split()[i % 3]},{i % 4},'
    f"{0.25 * (i % 5) - 0.5},{0.1 * i}\n"
    for i, text in enumerate(["good day @ann", "BAD day #tag http://x.io", "so so :)", "fine, thanks",
                              "meh 12 times", "ok!", "what a day", "RT @bob nice", "",
                              "no way", "hello world", "bye"]))


def mutate(raw: bytes, rng: np.random.Generator) -> bytes:
    """One to three seeded edits of ``raw``: a bit flip, a deletion, an
    insertion of random bytes, a truncation, or an injected token."""
    out = bytearray(raw)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(len(out) + 1))
        kind = int(rng.integers(5))
        if kind == 0 and at < len(out):
            out[at] ^= 1 << int(rng.integers(8))
        elif kind == 1:
            del out[at:at + int(rng.integers(1, 9))]
        elif kind == 2:
            out[at:at] = rng.bytes(int(rng.integers(1, 9)))
        elif kind == 3:
            del out[at:]
        else:
            out[at:at] = TOKENS[int(rng.integers(len(TOKENS)))]
    return bytes(out)


def read_corpus(dataset, schema):
    """Load the corpus, tokenize it and build the feature table a run makes of it."""
    corpus = load_corpus(dataset, schema)
    pipeline = FeaturePipeline(corpus.columns, corpus.affect).fit(corpus.records)
    corpus.tokenized()
    return pipeline.transform(corpus.records, corpus.texts, corpus.row_values())


FILES = {"dataset": DATASET.encode(), "schema": json.dumps(SCHEMA, indent=1).encode(),
         "embeddings": b"good 0.1 0.2 0.3 0.4\nday -1 0 1e-3 2.5\nbad 1 1 1 1\n#tag 0 0 0 0\n<user> 3 2 1 0\n",
         "edges": b"# follower followed\nann bob\nbob cat\ncat ann\ndan ann\nann dan\neve bob\n",
         "nodes": b"ann 120 40\nbob 3 9\ncat 0 0\n# dan has no counts\neve 77 1\n"}

READERS = {
    "dataset": lambda paths: read_corpus(paths["dataset"], paths["schema"]),
    "schema": lambda paths: read_corpus(paths["dataset"], paths["schema"]),
    "embeddings": lambda paths: load_embeddings(paths["embeddings"], Vocabulary.from_tokens(
        ["good", "day", "bad", "so", "<user>"]), dim=4, seed=1),
    "edges": lambda paths: SocialGraph.from_files(paths["edges"], paths["nodes"]),
    "nodes": lambda paths: SocialGraph.from_files(paths["edges"], paths["nodes"]),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_mutant_loads_or_is_refused_as_input_error_in_linear_memory(tmp_path, reader):
    paths = {name: tmp_path / name for name in FILES}
    for name, raw in FILES.items():
        paths[name].write_bytes(raw)
    READERS[reader](paths)  # the unmutated files load
    rng = np.random.default_rng(sorted(READERS).index(reader) + 2025)
    outcomes, faults = {"loaded": 0, "refused": 0}, []
    tracemalloc.start()
    try:
        for drawn in range(300):
            mutant = mutate(FILES[reader], rng)
            paths[reader].write_bytes(mutant)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                READERS[reader](paths)
                outcomes["loaded"] += 1
            except INPUT_ERRORS:
                outcomes["refused"] += 1
                peak = tracemalloc.get_traced_memory()[1] - base
                if peak > 2**16 + 16 * len(mutant):
                    faults.append(f"mutant {drawn} ({len(mutant)} bytes) refused at a {peak}-byte peak")
            except Exception as e:  # noqa: BLE001 - every other class is the fault looked for
                faults.append(f"mutant {drawn}: {type(e).__name__}: {e}")
    finally:
        tracemalloc.stop()
    assert not faults, faults[:10]
    assert outcomes["refused"] > 100 and outcomes["loaded"] > 5, outcomes
