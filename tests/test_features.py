import numpy as np
import pytest

from abusenet.features import (
    AFFECT_SLOTS,
    ConfigurationError,
    FeaturePipeline,
    NonFiniteFeatureError,
    assemble,
    encode_categorical,
    parse_mask,
    tweet_features,
)


def counters(text):
    values, names = tweet_features(text)
    return dict(zip(names, values))


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

    def test_plain_word_imputed_affect(self):
        values, names = tweet_features("ok")
        c = dict(zip(names, values))
        assert all(c[slot] == 0.0 for slot in AFFECT_SLOTS)
        assert c["affect_present"] == 0.0

    def test_affect_passthrough(self):
        affect = {slot: 0.1 * i for i, slot in enumerate(AFFECT_SLOTS)}
        values, names = tweet_features("ok", affect)
        c = dict(zip(names, values))
        for i, slot in enumerate(AFFECT_SLOTS):
            assert c[slot] == pytest.approx(0.1 * i)
        assert c["affect_present"] == 1.0

    def test_plain_words_never_change_counters(self):
        base = counters("@a #x :)")
        grown = counters("@a #x :) some more plain words here")
        for name in ("n_hashtags", "n_mentions", "n_emoticons", "n_urls"):
            assert base[name] == grown[name]


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
