import re

import numpy as np
import pytest

from abusenet.features import (
    AFFECT_SLOTS,
    EMOTICONS,
    TF_FEATURE_NAMES,
    TWEET_COUNTER_NAMES,
    CategoricalEncoder,
    ConfigurationError,
    FeatureColumn,
    FeaturePipeline,
    NonFiniteFeatureError,
    assemble,
    parse_mask,
    tweet_counters,
)
from abusenet.text import URL_RE


_REFERENCE_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)


def reference_tweet_counters(text):
    """The counters as computed before URLs were matched by explicit letter
    classes in one ``subn`` scan."""
    n_urls = len(_REFERENCE_URL_RE.findall(text))
    stripped = _REFERENCE_URL_RE.sub(" ", text)
    n_mentions = len(re.findall(r"@\w+", stripped))
    n_hashtags = len(re.findall(r"#\w+", stripped))
    chunks = stripped.split()
    n_emoticons = sum(1 for c in chunks if c in EMOTICONS)
    n_upper = sum(1 for c in chunks if len(c) >= 2 and c.isalpha() and c == c.upper())
    return [float(n_hashtags), float(n_mentions), float(n_emoticons), float(n_upper), float(n_urls)]


def counters(text):
    return dict(zip(TWEET_COUNTER_NAMES, tweet_counters(text)))


def tf_features(text, affect=None):
    """One post's TF block by name, its affect cells passed as dataset columns."""
    affect = affect or {}
    pipe = FeaturePipeline({}, {slot: f"aff_{slot}" for slot in affect}).fit([])
    record = {f"aff_{slot}": value for slot, value in affect.items() if value is not None}
    table = pipe.transform([record], [text])
    return dict(zip(TF_FEATURE_NAMES, table.values[0].tolist()))


class TestTweetFeatures:
    def test_empty_text_all_zero(self):
        c = counters("")
        for name in ("n_hashtags", "n_mentions", "n_emoticons", "n_uppercase", "n_urls"):
            assert c[name] == 0.0

    def test_hand_traced_example(self):
        # "@a @b #x :) HTTP://t.co WOW": URL removed first so HTTP never counts
        # as an uppercase word; WOW is the only letters-only uppercase chunk.
        c = counters("@a @b #x :) HTTP://t.co WOW")
        assert c["n_mentions"] == 2.0
        assert c["n_hashtags"] == 1.0
        assert c["n_emoticons"] == 1.0
        assert c["n_urls"] == 1.0
        assert c["n_uppercase"] == 1.0

    def test_equals_reference_counters(self, fuzz_texts):
        for text in fuzz_texts:
            assert tweet_counters(text) == reference_tweet_counters(text), repr(text)

    def test_url_letter_classes_are_the_ignorecase_matches(self, all_code_points):
        # each class must hold exactly what its letter matches under
        # re.IGNORECASE, over every code point (for "s" that includes U+017F)
        classes = re.findall(r"\[[^\]]+\]", URL_RE.pattern)
        assert {c[1].lower() for c in classes} == set("htpsw")
        for cls in classes:
            matched = re.findall(cls, all_code_points)
            assert matched == re.findall(cls[1], all_code_points, re.IGNORECASE), cls
        for literal in ":/.":
            assert re.findall(re.escape(literal), all_code_points, re.IGNORECASE) == [literal]

    def test_plain_word_imputed_affect(self):
        c = tf_features("ok")
        assert all(c[slot] == 0.0 for slot in AFFECT_SLOTS)
        assert c["affect_present"] == 0.0

    def test_affect_passthrough(self):
        affect = {slot: 0.1 * i for i, slot in enumerate(AFFECT_SLOTS)}
        c = tf_features("ok", affect)
        for i, slot in enumerate(AFFECT_SLOTS):
            assert c[slot] == pytest.approx(0.1 * i)
        assert c["affect_present"] == 1.0

    @pytest.mark.parametrize("affect", [{"anger": 0.5, "joy": None}, {"anger": 0.5, "joy": float("nan")}])
    def test_partly_missing_affect_is_not_present(self, affect):
        c = tf_features("ok", affect)
        assert (c["anger"], c["joy"], c["affect_present"]) == (0.5, 0.0, 0.0)

    def test_plain_words_never_change_counters(self):
        base = counters("@a #x :)")
        grown = counters("@a #x :) some more plain words here")
        for name in ("n_hashtags", "n_mentions", "n_emoticons", "n_urls"):
            assert base[name] == grown[name]


def encode_categorical(values):
    enc = CategoricalEncoder.fit("value", values)
    return enc.transform(values), enc.output_names()


class TestEncodeCategorical:
    def test_two_values_one_hot(self):
        matrix, names = encode_categorical(["a", "b", "a"])
        assert names == ["value=a", "value=b"]
        np.testing.assert_array_equal(matrix, [[1, 0], [0, 1], [1, 0]])

    def test_single_value_constant_column(self):
        matrix, names = encode_categorical(["x", "x", "x"])
        assert names == ["value=x"]
        np.testing.assert_array_equal(matrix, [[1], [1], [1]])

    def test_high_cardinality_goes_ordinal_by_frequency(self):
        values = ["v0"] * 5 + ["v1"] * 3 + [f"u{i}" for i in range(19)]
        matrix, names = encode_categorical(values)
        assert names == ["value#rank"]
        assert matrix[0, 0] == 0.0  # most frequent
        assert matrix[5, 0] == 1.0  # second most frequent


class TestPipelineAndAssemble:
    def make_table(self):
        pipe = FeaturePipeline({
            "followers": ("UF", "numeric"),
            "country": ("UF", "categorical"),
            "recip": ("NF", "numeric"),
        })
        records = [
            {"followers": "10", "country": "ca", "recip": "0.5"},
            {"followers": "", "country": "us", "recip": "0.25"},
        ]
        texts = ["hi #x", "YO @b"]
        pipe.fit(records)
        return pipe.transform(records, texts)

    def test_no_nans_and_stable_schema(self):
        table = self.make_table()
        assert not np.isnan(table.values).any()
        assert len(table.schema) == table.values.shape[1]
        groups = {c.group for c in table.schema}
        assert groups == {"TF", "UF", "NF"}

    def test_missing_numeric_imputed_zero(self):
        table = self.make_table()
        col = [i for i, c in enumerate(table.schema) if c.name == "followers"][0]
        assert table.values[1, col] == 0.0

    @pytest.mark.parametrize("raw", ["inf", "1e39"])
    def test_non_finite_value_names_row_and_column(self, raw):
        pipe = FeaturePipeline({"followers": ("UF", "numeric"), "recip": ("NF", "numeric")})
        records = [{"followers": "10", "recip": "0.5"}, {"followers": "3", "recip": raw}]
        pipe.fit(records)
        with pytest.raises(NonFiniteFeatureError, match=r"row 1: metadata feature 'recip'"):
            pipe.transform(records, ["a", "b"])
        # unparseable cells are still imputed, not rejected
        table = pipe.transform([{"followers": "many", "recip": "nan"}], ["a"])
        assert np.all(table.values == 0.0)

    @pytest.mark.parametrize("raw, shown", [(10**400, "inf"), (-10**400, "-inf")],
                             ids=["positive", "negative"])
    def test_int_too_large_for_a_float_names_row_and_column(self, raw, shown):
        pipe = FeaturePipeline({"followers": ("UF", "numeric"), "recip": ("NF", "numeric")})
        records = [{"followers": 10, "recip": 0.5}, {"followers": 3, "recip": raw}]
        pipe.fit(records)
        with pytest.raises(NonFiniteFeatureError,
                           match=rf"row 1: metadata feature 'recip' is {shown}, "):
            pipe.transform(records, ["a", "b"])

    def test_assemble_single_group(self):
        table = self.make_table()
        sub, mask = assemble(table, "NF")
        assert mask == frozenset({"NF"})
        assert [c.group for c in sub.schema] == ["NF"]

    def test_assemble_wv_only_empty_metadata(self):
        table = self.make_table()
        sub, mask = assemble(table, "WV")
        assert sub.values.shape[1] == 0
        assert sub.schema == []

    def test_assemble_all_metadata(self):
        table = self.make_table()
        sub, _ = assemble(table, "TF+UF+NF")
        assert sub.values.shape[1] == table.values.shape[1]

    def test_assemble_full_mask(self):
        table = self.make_table()
        sub, mask = assemble(table, "WV+TF+UF+NF")
        assert mask == frozenset({"WV", "TF", "UF", "NF"})
        assert sub.values.shape[1] == table.values.shape[1]

    def test_missing_group_is_configuration_error(self):
        pipe = FeaturePipeline({"followers": ("UF", "numeric")})
        pipe.fit([{"followers": "1"}])
        table = pipe.transform([{"followers": "1"}], ["hey"])
        with pytest.raises(ConfigurationError):
            assemble(table, "NF")

    def test_empty_mask_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_mask("")

    def test_pipeline_round_trips_through_config(self):
        pipe = FeaturePipeline({"country": ("UF", "categorical")})
        records = [{"country": c} for c in ("us", "ca", "us")]
        pipe.fit(records)
        clone = FeaturePipeline.from_config(pipe.to_config())
        a = pipe.transform(records, ["x", "y", "z"])
        b = clone.transform(records, ["x", "y", "z"])
        np.testing.assert_array_equal(a.values, b.values)
        assert [c.name for c in a.schema] == [c.name for c in b.schema]


def row_wise_transform(pipe, records, texts):
    """Reference: one row at a time, as the pipeline encoded before it went
    column-wise. Returns (values, schema) or raises NonFiniteFeatureError."""

    def parse(raw):
        try:
            return float(raw) if raw not in (None, "") else float("nan")
        except (TypeError, ValueError):
            return float("nan")

    rows, schema = [], None
    for rec, text in zip(records, texts):
        affect = {slot: parse(rec.get(col)) for slot, col in pipe.affect.items()}
        present = (any(slot in affect for slot in AFFECT_SLOTS)
                   and all(not np.isnan(affect[slot]) for slot in AFFECT_SLOTS if slot in affect))
        values = tweet_counters(text) + [
            0.0 if np.isnan(affect.get(slot, np.nan)) else affect[slot] for slot in AFFECT_SLOTS]
        values.append(1.0 if present else 0.0)
        cols = [FeatureColumn(n, "TF")
                for n in (*TWEET_COUNTER_NAMES, *AFFECT_SLOTS, "affect_present")]
        for name in sorted(pipe.columns):
            group, kind = pipe.columns[name]
            if kind == "numeric":
                v = parse(rec.get(name))
                values.append(0.0 if np.isnan(v) else v)
                cols.append(FeatureColumn(name, group))
                continue
            enc, value = pipe.encoders[name], str(rec.get(name, ""))
            if enc.kind == "onehot":
                values.extend(1.0 if value == c else 0.0 for c in enc.categories)
            else:
                values.append(float(enc.ranks.get(value, len(enc.ranks))))
            cols.extend(FeatureColumn(n, group) for n in enc.output_names())
        rows.append(values)
        schema = schema or cols
    with np.errstate(over="ignore"):
        table = np.array(rows, dtype=np.float32)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise NonFiniteFeatureError(
            f"row {row}: metadata feature {schema[col].name!r} is {rows[row][col]!r}, "
            "which is not finite in float32")
    return table, schema


MIXED_COLUMNS = {
    "followers": ("UF", "numeric"),
    "recip": ("NF", "numeric"),
    "country": ("UF", "categorical"),  # few values: one-hot
    "city": ("UF", "categorical"),  # many values: frequency-rank ordinal
}

TEXTS = ["plain words only", "@a @b #x :) HTTP://t.co WOW", "SO ANGRY :( www.example.org/x?y=1 OK",
         "#one #two @c <3 xD", "", "MiXeD CaSe A I", "http://t.co/A1 https://x.io @d NO",
         "visit www.site.com :-) :-( #tag"]


def mixed_records(n):
    rng = np.random.default_rng(5)
    cells = ["1.5", "-0", "", "many", "nan", "2e3", " 7 ", None, 4.25, "1_000"]
    records = []
    for i in range(n):
        rec = {
            "followers": cells[i % len(cells)],
            "recip": f"{rng.normal():.6f}",
            # past the fitted first half both columns hold unseen values
            "country": ["ca", "us", "fr"][i % 3] if i % 7 else f"x{i // 20}",
            "city": f"c{i * 7 % 46 % 22}",
            "aff_anger": "" if i % 4 == 1 else ("nan" if i % 4 == 2 else f"{rng.random():.5f}"),
            "aff_joy": f"{rng.random():.5f}",
            "aff_fear": "n/a" if i % 5 == 0 else f"{rng.random():.5f}",
        }
        if i % 6 == 5:
            del rec["followers"], rec["country"]  # missing cells read as absent
        records.append(rec)
    return records


class TestColumnWiseTransform:
    @pytest.mark.parametrize("affect", [
        {},
        {"anger": "aff_anger", "joy": "aff_joy", "fear": "aff_fear"},
        {"joy": "aff_joy"},
        {slot: "aff_joy" for slot in AFFECT_SLOTS},
        {"toxicity": "aff_joy"},  # not an affect slot: ignored
    ])
    def test_equals_row_wise_reference_bitwise(self, affect):
        n = 48
        records = mixed_records(n)
        texts = [TEXTS[i % len(TEXTS)] for i in range(n)]
        pipe = FeaturePipeline(MIXED_COLUMNS, affect).fit(records[: n // 2])  # unseen values later
        assert pipe.encoders["country"].kind == "onehot"
        assert pipe.encoders["city"].kind == "ordinal"
        assert {"x2", "c4"}.isdisjoint({*pipe.encoders["country"].categories, *pipe.encoders["city"].ranks})
        table = pipe.transform(records, texts)
        values, schema = row_wise_transform(pipe, records, texts)
        assert table.values.dtype == np.float32
        assert table.values.shape == values.shape
        assert table.values.tobytes() == values.tobytes()
        assert table.schema == schema

    @pytest.mark.parametrize("cells", [
        # an earlier row's affect slot is reported before a later row's numeric
        {(2, "aff_joy"): "inf", (2, "followers"): "1e40", (3, "recip"): "-1e39"},
        {(4, "followers"): "-inf"},
        {(3, "recip"): "-1e39"},  # finite as parsed, overflows float32
    ])
    def test_non_finite_message_equals_row_wise_reference(self, cells):
        records = mixed_records(12)
        for (row, col), raw in cells.items():
            records[row][col] = raw
        texts = ["x"] * len(records)
        pipe = FeaturePipeline(MIXED_COLUMNS, {"joy": "aff_joy"}).fit(records)
        with pytest.raises(NonFiniteFeatureError) as reference:
            row_wise_transform(pipe, records, texts)
        with pytest.raises(NonFiniteFeatureError) as got:
            pipe.transform(records, texts)
        assert str(got.value) == str(reference.value)

    def test_zero_rows_give_full_schema(self):
        records = mixed_records(10)
        pipe = FeaturePipeline(MIXED_COLUMNS, {"joy": "aff_joy"}).fit(records)
        full = pipe.transform(records, ["x"] * len(records))
        empty = pipe.transform([], [])
        assert empty.values.shape == (0, full.values.shape[1])
        assert empty.values.dtype == np.float32
        assert empty.schema == full.schema
        sub, _ = assemble(empty, "TF+UF+NF")
        assert sub.values.shape == (0, full.values.shape[1])
