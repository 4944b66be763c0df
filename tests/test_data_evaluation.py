import os
import re

import numpy as np
import pytest

from abusenet import data as data_mod
from abusenet import evaluation
from abusenet import layers
from abusenet.data import (
    Corpus,
    SchemaError,
    attach_network_features,
    load_corpus,
    synth_groups,
    synth_xor,
    write_corpus,
)
from abusenet.evaluation import (
    DEFAULT_ABLATION_MASKS,
    build_and_fit,
    checkpoint_meta,
    cv_folds,
    encode_fold,
    encode_for_checkpoint,
    fold_pool,
    run_ablation,
    run_cv,
    stratified_kfold,
)
from abusenet.features import FeaturePipeline
from abusenet.graph import (
    NF_FEATURE_NAMES,
    DegenerateGraphError,
    SocialGraph,
    closeness_scores,
    clustering_scores,
    eigenvector_centrality,
    hits,
    node_features,
)
from abusenet.metrics import UndefinedMetricError
from abusenet.model import ModelConfig
from abusenet.tensor import ContractError
from abusenet.training import TrainingConfig

TINY_MODEL = ModelConfig(embed_dim=5, units=6, hidden=(8,), fusion_dim=6, recurrent_dropout=0.25)


def tiny_config(**kw):
    base = dict(strategy="naive", batch_size=16, max_epochs=6, patience=3,
                validation_fraction=0.15, seed=0)
    base.update(kw)
    return TrainingConfig(**base)


class TestSynth:
    def test_xor_marginals_are_balanced(self):
        corpus = synth_xor(n=2000, seed=1)
        has_trigger = np.array(["signalword" in t.split() for t in corpus.texts])
        signal = np.array([float(r["signal"]) for r in corpus.records])
        y = corpus.labels
        # label == xor(trigger, signal > .5) exactly at zero noise
        np.testing.assert_array_equal(y, (has_trigger != (signal > 0.5)).astype(int))
        # each marginal is a fair coin for the label
        assert abs(y[has_trigger].mean() - 0.5) < 0.05
        assert abs(y[signal > 0.5].mean() - 0.5) < 0.05

    def test_xor_deterministic_under_seed(self):
        a, b = synth_xor(n=50, seed=9), synth_xor(n=50, seed=9)
        assert a.texts == b.texts
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_xor_noise_flips_labels(self):
        clean = synth_xor(n=500, seed=3, noise=0.0)
        noisy = synth_xor(n=500, seed=3, noise=0.3)
        assert (clean.labels != noisy.labels).mean() == pytest.approx(0.3, abs=0.08)

    @pytest.mark.parametrize("maker", [synth_xor, synth_groups], ids=["xor", "groups"])
    @pytest.mark.parametrize("kwargs, match", [
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"n": -3}, "n must be >= 1, got -3"),
        ({"n": 5, "noise": 7.0}, r"noise is a label-flip probability in \[0, 1\], got 7.0"),
        ({"n": 5, "noise": -0.5}, r"noise is a label-flip probability in \[0, 1\], got -0.5"),
    ], ids=["zero_rows", "negative_rows", "noise_above_one", "negative_noise"])
    def test_maker_refuses_bad_size_or_noise(self, maker, kwargs, match):
        with pytest.raises(ContractError, match=match):
            maker(**kwargs)

    def test_groups_each_group_correlates(self):
        corpus = synth_groups(n=1500, seed=2)
        y = corpus.labels
        token = np.array(["alert" in t.split() for t in corpus.texts])
        tags = np.array([t.count("#") for t in corpus.texts])
        feat = np.array([float(r["uf_signal"]) for r in corpus.records])
        assert token[y == 1].mean() > token[y == 0].mean() + 0.2
        assert tags[y == 1].mean() > tags[y == 0].mean() + 0.5
        assert feat[y == 1].mean() > feat[y == 0].mean() + 1.0


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        corpus = synth_xor(n=40, seed=4)
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        loaded = load_corpus(data_path, schema_path)
        assert loaded.texts == corpus.texts
        np.testing.assert_array_equal(loaded.labels, corpus.labels)
        assert loaded.columns == corpus.columns

    def test_round_trip_keeps_affect_columns(self, tmp_path):
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        data_path.write_text("id,text,label,sent\na,good day,benign,0.5\nb,bad day,flagged,-0.25\n")
        schema_path.write_text('{"classes": ["benign", "flagged"], "affect": {"sentiment": "sent"}}')
        corpus = load_corpus(data_path, schema_path)
        out_data, out_schema = tmp_path / "d2.csv", tmp_path / "s2.json"
        write_corpus(corpus, out_data, out_schema)
        again = load_corpus(out_data, out_schema)
        assert again.affect == {"sentiment": "sent"}
        assert [r["sent"] for r in again.records] == ["0.5", "-0.25"]

    def test_column_names(self, tmp_path):
        corpus = synth_groups(n=4, seed=1)
        assert corpus.column_names() == ["uf_signal", "uf_noise"]
        for rec in corpus.records:
            rec["user"] = "u0"  # added after construction, and still counted
        assert corpus.column_names() == ["uf_signal", "uf_noise", "user"]
        g = SocialGraph()
        g.add_node("u0", followers=3, friends=1)
        attached = attach_network_features(corpus, g, "user")
        assert attached.column_names() == ["uf_signal", "uf_noise", "user", *NF_FEATURE_NAMES]
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        assert load_corpus(data_path, schema_path).column_names() == [
            "id", "text", "label", "uf_noise", "uf_signal"]

    def test_missing_column_names_it_when_read(self, tmp_path):
        # a declared column the dataset lacks is refused by the first encode
        # that reads it, not at load
        corpus = synth_xor(n=10, seed=5)
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        schema = schema_path.read_text().replace('"signal"', '"absent_col"')
        schema_path.write_text(schema)
        loaded = load_corpus(data_path, schema_path)
        idx = np.arange(len(loaded))
        encode_fold(loaded, idx, idx[:0], "WV")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(data_path))}: .*'absent_col'"):
            encode_fold(loaded, idx, idx[:0], "WV+UF")

    def test_unknown_label_rejected(self, tmp_path):
        corpus = synth_xor(n=10, seed=6)
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        schema = schema_path.read_text().replace('"benign",', '"other",')
        schema_path.write_text(schema)
        with pytest.raises(SchemaError):
            load_corpus(data_path, schema_path)

    def test_scores_only_mode_without_label_column(self, tmp_path):
        corpus = synth_xor(n=10, seed=7)
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        import csv

        with data_path.open() as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("label")
        rows = [[c for i, c in enumerate(r) if i != drop] for r in rows]
        with data_path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        loaded = load_corpus(data_path, schema_path)
        assert loaded.labels is None

    def test_unlabelled_corpus_round_trips(self, tmp_path):
        corpus = synth_xor(n=6, seed=8)
        corpus.labels = None
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        loaded = load_corpus(data_path, schema_path)
        assert loaded.labels is None
        assert "label" not in loaded.column_names()
        assert (loaded.ids, loaded.texts) == (corpus.ids, corpus.texts)
        out_data, out_schema = tmp_path / "d2.csv", tmp_path / "s2.json"
        write_corpus(loaded, out_data, out_schema)
        assert out_data.read_bytes() == data_path.read_bytes()

    def test_blank_rows_are_skipped_and_not_numbered(self, tmp_path):
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        data_path.write_text("id,text,label\n\na,good day,benign\n\n\nb,bad day\n")
        schema_path.write_text('{"classes": ["benign", "flagged"]}')
        with pytest.raises(SchemaError, match=f"^{re.escape(str(data_path))}: row 3: 2 fields, but the header has 3$"):
            load_corpus(data_path, schema_path)
        data_path.write_text("id,text,label\n\na,good day,benign\n\nb,bad day,flagged\n")
        assert load_corpus(data_path, schema_path).ids == ["a", "b"]

    @staticmethod
    def ragged_copy(tmp_path, seed, change):
        """A written 3-row corpus whose second data row (file row 3) is edited by ``change``."""
        corpus = synth_xor(n=3, seed=seed)
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        lines = data_path.read_text().splitlines()
        width = len(lines[0].split(","))
        lines[2] = change(lines[2])
        data_path.write_text("\n".join(lines) + "\n")
        return data_path, schema_path, width

    def test_short_row_names_row_and_field_counts(self, tmp_path):
        data_path, schema_path, width = self.ragged_copy(
            tmp_path, 9, lambda line: line.rsplit(",", 1)[0])
        with pytest.raises(SchemaError, match=f"row 3: {width - 1} fields, but the header has {width}"):
            load_corpus(data_path, schema_path)

    def test_long_row_names_row_and_field_counts(self, tmp_path):
        data_path, schema_path, width = self.ragged_copy(tmp_path, 10, lambda line: line + ",7,8")
        with pytest.raises(SchemaError, match=f"row 3: {width + 2} fields, but the header has {width}"):
            load_corpus(data_path, schema_path)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        corpus = synth_xor(n=5, seed=11)
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        data_path.write_bytes(b"\xef\xbb\xbf" + data_path.read_bytes())
        loaded = load_corpus(data_path, schema_path)
        assert loaded.ids == corpus.ids
        assert loaded.column_names()[0] == "id"

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        corpus = synth_xor(n=3, seed=12)
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        raw = data_path.read_bytes().split(b"\n")
        raw[2] = raw[2].replace(b",", b",caf\xe9 ", 1)  # latin-1, not UTF-8
        data_path.write_bytes(b"\n".join(raw))
        with pytest.raises(SchemaError, match=f"{re.escape(str(data_path))}: line 3: "):
            load_corpus(data_path, schema_path)

    @pytest.mark.parametrize("schema, message", [
        ("{not json", "schema is not UTF-8 JSON"),
        ('["benign", "flagged"]', "schema is not a JSON object"),
        ('{"classes": ["a", "b"], "columns": ["signal"]}', "'columns' must be an object"),
        ('{"classes": ["a", "b"], "columns": {"signal": "UF"}}', "column 'signal': spec must be an object"),
        ('{"classes": 5}', "'classes' must be a list of at least two distinct strings"),
        ('{"classes": "ab"}', "'classes' must be a list of at least two distinct strings"),
        ('{"classes": ["a"]}', "'classes' must be a list of at least two distinct strings"),
        ('{"classes": ["a", "a"]}', "'classes' must be a list of at least two distinct strings"),
        ('{"classes": ["a", 1]}', "'classes' must be a list of at least two distinct strings"),
        ('{"columns": {}}', "'classes' must be a list of at least two distinct strings"),
        ('{"classes": ["a", "b"], "columns": {"signal": {"group": "XX"}}}',
         "column 'signal': group must be one of"),
        ('{"classes": ["a", "b"], "columns": {"signal": {"group": "UF", "kind": "text"}}}',
         "column 'signal': kind must be numeric or categorical"),
        ('{"classes": ["a", "b"], "affect": [1]}', "'affect' must be an object mapping affect slots"),
        ('{"classes": ["a", "b"], "affect": {"sentiment": ["s"]}}',
         "affect slot 'sentiment': column must be a column name string"),
        ('{"classes": ["a", "b"], "affect": {"anger": null}}',
         "affect slot 'anger': column must be a column name string"),
        ('{"classes": ["a", "b"], "affect": {"mood": "s"}}', "affect slot 'mood' is not one of"),
    ], ids=["not_json", "top_level_list", "columns_list", "spec_string", "classes_int", "classes_string",
            "one_class", "repeated_class", "class_not_string", "no_classes", "bad_group", "bad_kind",
            "affect_list", "affect_column_list", "affect_column_null", "affect_unknown_slot"])
    def test_malformed_schema_names_its_path(self, tmp_path, schema, message):
        corpus = synth_xor(n=3, seed=13)
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        schema_path.write_text(schema)
        with pytest.raises(SchemaError, match=f"{re.escape(str(schema_path))}: {re.escape(message)}"):
            load_corpus(data_path, schema_path)

    @pytest.mark.parametrize("change, message", [
        (lambda lines: [lines[0].replace("id,", "key,", 1)] + lines[1:],
         "dataset is missing required column 'id'"),
        (lambda lines: lines[:2] + [lines[2].replace(",benign,", ",other,").replace(",flagged,", ",other,")]
         + lines[3:], "row 3: label 'other' not in declared classes"),
        (lambda lines: lines + [lines[2]], "row 5: id 's1' is already used by row 3"),
    ], ids=["id_column", "unknown_label", "duplicate_id"])
    def test_dataset_errors_name_the_file(self, tmp_path, change, message):
        corpus = synth_xor(n=3, seed=14)
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        lines = data_path.read_text().splitlines()
        data_path.write_text("\n".join(change(lines)) + "\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(data_path))}: {re.escape(message)}"):
            load_corpus(data_path, schema_path)

    def test_attach_network_features(self):
        corpus = synth_xor(n=6, seed=8)
        for i, rec in enumerate(corpus.records):
            rec["user"] = f"u{i % 3}"
        corpus.columns["user"] = ("UF", "categorical")
        g = SocialGraph()
        g.add_node("u0", followers=100, friends=10)
        g.add_node("u1", followers=5, friends=5)
        g.add_edge("u0", "u1")
        g.add_edge("u1", "u0")
        enriched = attach_network_features(corpus, g, "user")
        assert "nf_reciprocity" in enriched.columns
        assert enriched.records[0]["nf_followers"] == 100.0
        # u2 is absent from the graph: zero block
        assert enriched.records[2]["nf_followers"] == 0.0
        # an edge-less graph has no eigenvector centrality: that feature falls back to zero
        edgeless = SocialGraph()
        edgeless.add_node("u0", followers=7, friends=1)
        enriched = attach_network_features(corpus, edgeless, "user")
        assert enriched.records[0]["nf_followers"] == 7.0
        assert enriched.records[0]["nf_eigenvector"] == 0.0


def per_sample_attach(corpus, graph, user_column):
    """Reference: `node_features` called for every sample, key order kept."""
    hub_auth = hits(graph)
    try:
        eigen = eigenvector_centrality(graph)
    except DegenerateGraphError:
        eigen = {n: 0.0 for n in graph.nodes()}
    close, clust = closeness_scores(graph, graph.nodes()), clustering_scores(graph, graph.nodes())
    records = []
    for rec, text in zip(corpus.records, corpus.texts):
        rec = dict(rec)
        user = str(rec.get(user_column, ""))
        if user in graph.followers_count:
            values = node_features(graph, user, mentioned=re.findall(r"@(\w+)", text),
                                   hub_auth=hub_auth, eigen=eigen, closeness=close,
                                   clustering=clust)
        else:
            values = [0.0] * len(NF_FEATURE_NAMES)
        rec.update(zip(NF_FEATURE_NAMES, values))
        records.append(rec)
    return records


def social_graph(edges=True):
    g = SocialGraph()
    for i in range(8):
        g.add_node(f"u{i}", followers=3 ** i % 101, friends=i % 4)
    if edges:
        for src, dst in [(0, 1), (1, 0), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (5, 6),
                         (6, 5), (0, 7), (7, 1), (3, 0)]:
            g.add_edge(f"u{src}", f"u{dst}")
    return g


def posting_corpus():
    """Users post several times with different mentions; u8 and u9 are not in
    the graph, some mentions name accounts the graph does not know, and one
    sits inside a URL, where the power difference still reads it."""
    corpus = synth_xor(n=40, seed=4)
    mentions = ["", "@u1", "@u2 @u5", "@nobody", "@u0 @u0 @u3", "@u7 hi @zz", "https://x.com/@u4"]
    for i, rec in enumerate(corpus.records):
        rec["user"] = f"u{i % 10}"
        corpus.texts[i] = f"{corpus.texts[i]} {mentions[(i * 5) % len(mentions)]}"
    return corpus


class TestAttachPerUser:
    @pytest.mark.parametrize("edges", [True, False])
    def test_equals_per_sample_reference(self, edges):
        corpus, g = posting_corpus(), social_graph(edges)
        got = attach_network_features(corpus, g, "user")
        expected = per_sample_attach(corpus, g, "user")
        assert [list(r.items()) for r in got.records] == [list(r.items()) for r in expected]
        u0_power = {r["nf_power_difference"] for r in got.records if r["user"] == "u0"}
        assert len(u0_power) > 1  # a per-sample value, not a per-user one

    def test_unknown_user_column_rejected(self, tmp_path):
        g = SocialGraph()
        g.add_node("u0", followers=3, friends=1)
        corpus = synth_xor(n=4, seed=8)
        for i, rec in enumerate(corpus.records):
            rec["user"] = f"u{i}"
        with pytest.raises(SchemaError, match="'account'"):
            attach_network_features(corpus, g, "account")
        # a file-backed corpus is checked against its header, rows or not
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_corpus(corpus, data_path, schema_path)
        data_path.write_text(data_path.read_text().splitlines()[0] + ",user\n")
        header_only = load_corpus(data_path, schema_path)
        assert attach_network_features(header_only, g, "user").records == []
        with pytest.raises(SchemaError, match="'account'"):
            attach_network_features(header_only, g, "account")

    def test_graph_metrics_run_once_over_distinct_users(self, monkeypatch):
        calls = {"closeness_scores": [], "clustering_scores": []}
        for name in calls:
            original = getattr(data_mod, name)

            def counted(g, nodes, _name=name, _original=original):
                calls[_name].append(list(nodes))
                return _original(g, nodes)

            monkeypatch.setattr(data_mod, name, counted)
        corpus = posting_corpus()
        attach_network_features(corpus, social_graph(), "user")
        users_in_graph = {r["user"] for r in corpus.records} & set(social_graph().nodes())
        assert len(corpus) == 40 and len(users_in_graph) == 8
        for nodes in calls.values():
            assert len(nodes) == 1 and sorted(nodes[0]) == sorted(users_in_graph)


def test_in_memory_corpus_scores_with_its_own_checkpoint():
    corpus = synth_groups(n=80, seed=1)
    idx = np.arange(len(corpus))
    train, _, artifacts = encode_fold(corpus, idx, idx[:0], "WV+UF")
    model, _ = build_and_fit(train, tiny_config(max_epochs=2, patience=1), TINY_MODEL, artifacts)
    scored = encode_for_checkpoint(corpus, checkpoint_meta(model, TINY_MODEL, artifacts))
    np.testing.assert_array_equal(scored.text, train.text)
    np.testing.assert_array_equal(scored.meta, train.meta)


def varied_corpus():
    """synth_groups rows plus a categorical column, a numeric column with
    blank and unparseable cells, an affect column, and texts with URLs,
    mentions, emoticons and uppercase words for the tweet counters."""
    corpus = synth_groups(n=90, seed=21)
    extras = ["", " @u1 LOL :)", " https://x.co/A WOW", " #tag :-( @u2 @u3", " OK www.y.org"]
    for i, rec in enumerate(corpus.records):
        rec["client"] = ["web", "ios", "android", "bot"][i % 4]
        rec["age"] = ["", "3.5", "n/a", "1e3", "12"][i % 5]
        rec["anger_score"] = f"{(i % 7) / 7:.4f}" if i % 6 else ""
        corpus.texts[i] += extras[i % len(extras)]
    corpus.columns.update({"client": ("UF", "categorical"), "age": ("UF", "numeric")})
    corpus.affect = {"anger": "anger_score"}
    return corpus


def encoded_bytes(train, test, artifacts):
    return (train.text.tobytes(), train.meta.tobytes(), test.text.tobytes(), test.meta.tobytes(),
            artifacts["vocab"].tokens(), artifacts["spec"], artifacts["schema"])


class TestCorpusRowValues:
    def test_every_fold_from_one_cached_corpus_equals_a_fresh_corpus(self):
        cached = varied_corpus()
        folds = stratified_kfold(cached.labels, 4, seed=2)
        for i, test_idx in enumerate(folds):
            train_idx = np.sort(np.concatenate([f for j, f in enumerate(folds) if j != i]))
            got = encode_fold(cached, train_idx, test_idx, "WV+TF+UF")
            expected = encode_fold(varied_corpus(), train_idx, test_idx, "WV+TF+UF")
            assert encoded_bytes(*got) == encoded_bytes(*expected), i

    def test_transform_without_values_equals_transform_with_them(self):
        corpus = varied_corpus()
        pipe = FeaturePipeline(corpus.columns, corpus.affect).fit(corpus.records[:60])
        raw = pipe.transform(corpus.records, corpus.texts)
        cached = pipe.transform(corpus.records, corpus.texts, corpus.row_values())
        assert raw.schema == cached.schema
        assert raw.values.tobytes() == cached.values.tobytes()

    def test_attach_network_features_leaves_no_stale_values(self):
        # the corpus already has a column named like an NF feature, parsed
        # before attach_network_features overwrites it
        def corpus_with_stale_column():
            corpus = posting_corpus()
            for i, rec in enumerate(corpus.records):
                rec[NF_FEATURE_NAMES[0]] = str(i)
            corpus.columns[NF_FEATURE_NAMES[0]] = ("UF", "numeric")
            return corpus

        filled = corpus_with_stale_column()
        filled.row_values()
        idx = np.arange(len(filled))
        got = encode_fold(attach_network_features(filled, social_graph(), "user"), idx, idx[:0], "TF+NF")
        expected = encode_fold(attach_network_features(corpus_with_stale_column(), social_graph(), "user"),
                               idx, idx[:0], "TF+NF")
        assert got[2]["schema"] == expected[2]["schema"]
        assert got[0].meta.tobytes() == expected[0].meta.tobytes()
        # and the corpus the values were parsed from still reads its own column
        column = filled.row_values([NF_FEATURE_NAMES[0]]).columns[NF_FEATURE_NAMES[0]]
        np.testing.assert_array_equal(column, np.arange(len(filled)))


class TestKFold:
    def test_partition_exact(self):
        labels = np.random.default_rng(0).integers(0, 3, size=97)
        folds = stratified_kfold(labels, 10, seed=1)
        joined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(joined, np.arange(97))

    def test_class_proportions_within_one(self):
        labels = np.array([0] * 50 + [1] * 30 + [2] * 20)
        folds = stratified_kfold(labels, 10, seed=2)
        for fold in folds:
            counts = np.bincount(labels[fold], minlength=3)
            np.testing.assert_array_equal(counts, [5, 3, 2])

    def test_same_seed_same_folds(self):
        labels = np.random.default_rng(3).integers(0, 2, size=60)
        a = stratified_kfold(labels, 5, seed=7)
        b = stratified_kfold(labels, 5, seed=7)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_fewer_than_two_folds_rejected(self, k):
        labels = np.array([0, 1] * 10)
        with pytest.raises(ContractError, match=f"k={k}"):
            stratified_kfold(labels, k, seed=0)

    def test_fold_with_a_single_class_named_before_training(self):
        # the 4 flagged rows go to folds 0-3, so fold 4 tests benign rows only
        labels = np.array([0] * 25 + [1] * 4)
        with pytest.warns(UserWarning), pytest.raises(UndefinedMetricError, match="^fold 4: "):
            cv_folds(labels, 5, seed=0)
        assert len(cv_folds(labels, 4, seed=0)) == 4

    def test_small_class_warns(self):
        labels = np.array([0] * 50 + [1] * 4)
        with pytest.warns(UserWarning):
            stratified_kfold(labels, 10, seed=0)


class TestRunCv:
    def test_report_structure_and_mean(self):
        corpus = synth_groups(n=220, seed=10)
        report = run_cv(corpus, tiny_config(), TINY_MODEL, mask="WV+TF+UF", n_folds=3)
        assert len(report.folds) == 3
        for name in ("auc", "accuracy", "precision", "recall", "f1"):
            vals = [f[name] for f in report.folds]
            assert report.mean[name] == pytest.approx(float(np.mean(vals)))
            assert 0.0 <= report.mean[name] <= 1.0

    def test_same_seed_identical_reports(self):
        corpus = synth_groups(n=180, seed=11)
        a = run_cv(corpus, tiny_config(seed=5), TINY_MODEL, mask="UF", n_folds=3)
        b = run_cv(corpus, tiny_config(seed=5), TINY_MODEL, mask="UF", n_folds=3)
        assert a.to_dict() == b.to_dict()

    def test_mask_controls_model_form(self):
        corpus = synth_groups(n=150, seed=12)
        train_idx = np.arange(100)
        test_idx = np.arange(100, 150)
        train, test, artifacts = encode_fold(corpus, train_idx, test_idx, "WV")
        assert train.meta is None and train.text is not None
        train, test, artifacts = encode_fold(corpus, train_idx, test_idx, "UF")
        assert train.text is None and train.meta is not None
        train, test, artifacts = encode_fold(corpus, train_idx, test_idx, "WV+UF")
        assert train.text is not None and train.meta is not None


def three_class_corpus(n=180, seed=20):
    """Hand-rolled 3-class corpus: one marker token and one shifted feature per class."""
    rng = np.random.default_rng(seed)
    markers = ["alpha", "bravo", "charlie"]
    fillers = ["one", "two", "three", "four", "five", "six"]
    ids, texts, labels, records = [], [], [], []
    for i in range(n):
        label = int(rng.integers(0, 3))
        words = [fillers[int(j)] for j in rng.integers(0, len(fillers), size=5)]
        if rng.random() < 0.8:
            words.insert(int(rng.integers(0, 6)), markers[label])
        ids.append(f"m{i}")
        texts.append(" ".join(words))
        labels.append(label)
        records.append({"feat": f"{rng.normal(float(label), 0.8):.5f}"})
    return Corpus(ids=ids, texts=texts, labels=np.array(labels), classes=["a", "b", "c"],
                  records=records, columns={"feat": ("UF", "numeric")})


class TestMulticlass:
    def test_three_class_cv(self):
        corpus = three_class_corpus()
        report = run_cv(corpus, tiny_config(strategy="interleaved"), TINY_MODEL,
                        mask="WV+TF+UF", n_folds=3)
        assert len(report.folds) == 3
        assert 0.0 <= report.mean["auc"] <= 1.0
        assert report.mean["recall"] == report.mean["accuracy"]


class TestWorkers:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_fold_processes_share_out_the_cpus(self, monkeypatch, openblas, workers):
        # each fold process runs at most its share of the CPUs as GRU row
        # blocks, so k folds' threads together do not outnumber the CPUs;
        # a forked fold process keeps its parent's pinned OpenBLAS
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # what a spawned fold process reads
        layers.pin_blas()
        cpus = len(os.sched_getaffinity(0))
        share = max(1, cpus // workers)
        with fold_pool(workers) as pool:
            assert pool.submit(layers.blas_threads).result(timeout=120) == (openblas and 1)
            assert pool.submit(layers.block_cap).result(timeout=120) == share
            blocks = pool.submit(layers.recurrence_blocks, 64 * cpus, layers.MIN_BLOCK_CELLS).result(timeout=120)
        assert blocks == min(share, layers.recurrence_blocks(64 * cpus, layers.MIN_BLOCK_CELLS))
        assert layers.block_cap() == cpus  # this process keeps its own cap

    def test_pool_holds_no_more_processes_than_folds(self, monkeypatch):
        # a fork pool starts every worker at its first submit: three workers
        # for two folds make a pool of two, each with half the CPUs. The spy
        # runs the folds in this process and starts none.
        seen = []

        class SpyPool:
            def __init__(self, max_workers, initializer, initargs):
                seen.append((max_workers, initializer, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", SpyPool)
        report = run_cv(synth_groups(n=80, seed=17), tiny_config(seed=2), TINY_MODEL, mask="UF",
                        n_folds=2, workers=3)
        assert seen == [(2, layers.set_block_cap, (max(1, layers.cpu_count() // 2),))]
        assert len(report.folds) == 2

    def test_parallel_folds_match_serial(self):
        corpus = synth_groups(n=140, seed=15)
        serial = run_cv(corpus, tiny_config(seed=3), TINY_MODEL, mask="UF",
                        n_folds=3, workers=1)
        parallel = run_cv(corpus, tiny_config(seed=3), TINY_MODEL, mask="UF",
                          n_folds=3, workers=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_parallel_folds_from_a_fresh_corpus_match_serial(self):
        # the parallel run's corpus is filled by run_cv itself, before its jobs are sent
        config = tiny_config(seed=6, max_epochs=2, patience=1)
        serial = run_cv(varied_corpus(), config, TINY_MODEL, mask="WV+TF+UF", n_folds=2, workers=1)
        parallel = run_cv(varied_corpus(), config, TINY_MODEL, mask="WV+TF+UF", n_folds=2, workers=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_parallel_folds_match_serial_text_path(self):
        # the GRU, embedding scatter and Adam run inside each worker
        corpus = synth_groups(n=120, seed=16)
        config = tiny_config(seed=4, max_epochs=3, patience=2)
        serial = run_cv(corpus, config, TINY_MODEL, mask="WV+UF", n_folds=2, workers=1)
        parallel = run_cv(corpus, config, TINY_MODEL, mask="WV+UF", n_folds=2, workers=2)
        assert serial.to_dict() == parallel.to_dict()


class TestAblation:
    def test_default_grid_is_fifteen_rows(self):
        assert len(DEFAULT_ABLATION_MASKS) == 15

    def test_rows_sorted_by_auc(self):
        corpus = synth_groups(n=200, seed=13)
        rows = run_ablation(corpus, ["UF", "WV+TF+UF"], tiny_config(), TINY_MODEL, n_folds=2)
        assert len(rows) == 2
        assert rows[0]["auc"] <= rows[1]["auc"]
        names = {r["mask"] for r in rows}
        assert names == {"UF", "WV+TF+UF"}
