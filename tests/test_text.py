import re
from collections import Counter
from itertools import filterfalse

import numpy as np
import pytest

from abusenet.tensor import ContractError
from abusenet.text import (
    _TOKEN_RE,
    HASHTAG_TOKEN,
    NUMBER_TOKEN,
    UNK_INDEX,
    URL_TOKEN,
    USER_TOKEN,
    FormatError,
    ParseError,
    SequenceSpec,
    Vocabulary,
    choose_seq_len,
    embedding_table,
    encode_corpus,
    load_embeddings,
    parse_embedding_file,
    tokenize,
)


def reference_tokenize(text):
    """One ``_TOKEN_RE`` scan over the whole text, as tokenize did before it
    split the text into whitespace chunks."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "url":
            out.append(URL_TOKEN)
        elif kind == "mention":
            out.append(USER_TOKEN)
        elif kind == "number":
            out.append(NUMBER_TOKEN)
        elif kind == "hashtag":
            out.append(HASHTAG_TOKEN)
            out.append(m.group()[1:].lower())
        elif kind == "word":
            out.append(m.group().lower())
        else:
            out.append(m.group())
    return out


def reference_build(token_lists):
    """Vocabulary.build's index as it was built a token list at a time, with
    one sort on (-count, token)."""
    counts = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    kept = sorted((t for t, c in counts.items() if c >= 2), key=lambda t: (-counts[t], t))
    return {t: i + 2 for i, t in enumerate(kept)}


def reference_encode_pad(tokens, vocab, spec):
    n = spec.seq_len
    kept = tokens[:n]
    out = np.zeros(n, dtype=np.int32)
    if kept:
        out[n - len(kept):] = vocab.encode_tokens(kept)
    return out


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_markers(self):
        assert tokenize("see http://a.b @sam") == ["see", "<url>", "<user>"]

    def test_hashtag_splits_marker_and_word(self):
        assert tokenize("#GamerGate!") == ["<hashtag>", "gamergate", "!"]

    def test_numbers_and_punctuation(self):
        assert tokenize("win 100 times, now!") == ["win", "<number>", "times", ",", "now", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophes_stay_in_words(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_uppercase_url_detected(self):
        assert tokenize("HTTP://t.co down") == ["<url>", "down"]

    def test_equals_one_scan_of_the_whole_text(self, fuzz_texts):
        for text in fuzz_texts:
            assert tokenize(text) == reference_tokenize(text), repr(text)


class TestTokenizePremises:
    """Unicode facts the chunked tokenize rests on, checked over every code
    point, so that a Python whose Unicode tables change them fails here."""

    def test_split_separators_are_the_regex_whitespace(self, all_code_points):
        # str.split() must cut exactly where the pattern's \s stops a token;
        # the code points are distinct, so equal remainders mean equal sets
        no_space = "".join(filterfalse(str.isspace, all_code_points))
        assert "".join(all_code_points.split()) == no_space
        assert re.compile(r"\s", _TOKEN_RE.flags).sub("", all_code_points) == no_space

    def test_every_letter_is_a_word_token(self, all_code_points):
        letters = list(filter(str.isalpha, all_code_points))
        matches = list(_TOKEN_RE.finditer(" ".join(letters)))
        assert [m.group() for m in matches] == letters
        assert {m.lastgroup for m in matches} == {"word"}
        # and a chunk of letters is one word, whatever letters follow each other
        assert _TOKEN_RE.fullmatch("".join(letters)).lastgroup == "word"


class TestChooseSeqLen:
    def test_all_equal(self):
        assert choose_seq_len([7] * 20).seq_len == 7

    def test_one_to_hundred(self):
        assert choose_seq_len(list(range(1, 101))).seq_len == 95

    def test_tweet_shaped_corpus_gives_30(self):
        # 95 tweets at <=30 words, 5 longer outliers
        counts = [12] * 40 + [22] * 40 + [30] * 15 + [45, 60, 80, 120, 200]
        assert choose_seq_len(counts).seq_len == 30

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            choose_seq_len([])

    def test_monotone_under_longer_documents(self):
        rng = np.random.default_rng(4)
        counts = list(rng.integers(1, 50, size=99))
        base = choose_seq_len(counts).seq_len
        grown = choose_seq_len(counts + [max(counts) + 10]).seq_len
        assert grown >= base


class TestVocabulary:
    def test_hapaxes_never_indexed(self):
        vocab = Vocabulary.build([["a", "b", "a"], ["b", "c"]])
        assert "a" in vocab and "b" in vocab
        assert "c" not in vocab
        assert vocab.encode_tokens(["c"]) == [1]  # unknown

    def test_bijection_above_two(self):
        vocab = Vocabulary.build([["x", "y", "x", "y", "z", "z"]])
        idxs = vocab.encode_tokens(["x", "y", "z"])
        assert sorted(idxs) == [2, 3, 4]
        assert len(set(idxs)) == 3

    def test_full_coverage_when_no_hapaxes(self):
        docs = [["red", "blue"], ["red", "blue", "green"], ["green"]]
        vocab = Vocabulary.build(docs)
        assert min(vocab.encode_tokens(["red", "blue", "green"])) >= 2

    def test_deterministic_ordering(self):
        docs = [["b", "a", "b", "a"], ["c", "c"]]
        v1 = Vocabulary.build(docs)
        v2 = Vocabulary.build(docs)
        assert v1.tokens() == v2.tokens()


    @pytest.mark.parametrize("seed", range(4))
    def test_build_and_encode_equal_the_per_list_reference(self, seed):
        # a small alphabet gives many tied counts and hapaxes; lists run from
        # empty to past seq_len
        rng = np.random.default_rng(seed)
        alphabet = [f"t{i}" for i in range(40)] + ["T0", "<url>", "!", "é"]
        lists = [[alphabet[int(j)] for j in rng.integers(0, len(alphabet), size=int(rng.integers(0, 12)))]
                 for _ in range(60)]
        lists += [[], [], ["hapax"]]
        vocab = Vocabulary.build(lists)
        assert list(vocab.tokens()) == list(reference_build(lists))
        assert len(set(map(len, lists))) > 5 and any(not t for t in lists)
        for seq_len in (1, 5, 11, 20):
            spec = SequenceSpec(seq_len)
            expected = np.stack([reference_encode_pad(t, vocab, spec) for t in lists])
            got = encode_corpus(lists, vocab, spec)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


class TestEncodePad:
    def setup_method(self):
        self.vocab = Vocabulary.build([["cat", "sat", "cat", "sat", "mat", "mat"]])
        self.spec = SequenceSpec(seq_len=5)

    def encode_one(self, tokens, spec):
        return encode_corpus([tokens], self.vocab, spec)[0]

    def test_empty_is_all_padding(self):
        np.testing.assert_array_equal(self.encode_one([], self.spec), np.zeros(5, dtype=np.int32))

    def test_left_padding(self):
        out = self.encode_one(["cat", "sat"], SequenceSpec(4))
        assert list(out[:2]) == [0, 0]
        assert list(out[2:]) == self.vocab.encode_tokens(["cat", "sat"])

    def test_truncation_keeps_head(self):
        tokens = ["cat", "sat", "mat", "cat", "sat", "mat"]
        out = self.encode_one(tokens, SequenceSpec(4))
        expected = self.vocab.encode_tokens(tokens[:4])
        assert list(out) == expected

    def test_unknown_maps_to_one(self):
        out = self.encode_one(["dog"], SequenceSpec(2))
        assert list(out) == [0, 1]

    def test_tokens_follow_index_order(self):
        for vocab in (self.vocab, Vocabulary.from_tokens(["mat", "cat", "sat"])):
            assert vocab.encode_tokens(vocab.tokens()) == list(range(2, len(vocab)))
        assert Vocabulary.from_tokens(["mat", "cat", "sat"]).tokens() == ["mat", "cat", "sat"]

    def test_round_trip_recovers_known_tokens(self):
        tokens = ["cat", "sat", "mat"]
        out = self.encode_one(tokens, self.spec)
        by_index = [None, None, *self.vocab.tokens()]
        assert [by_index[i] for i in out if i] == tokens

    def test_corpus_equals_stacked_rows(self):
        # 0 tokens, exactly seq_len, more than seq_len, unknowns among them
        rows = [[], ["cat", "dog", "sat", "mat", "cat"], ["mat"] * 3 + ["dog"] * 4, ["dog"], ["sat", "cat"]]
        out = encode_corpus(rows, self.vocab, self.spec)
        expected = np.stack([reference_encode_pad(t, self.vocab, self.spec) for t in rows])
        assert out.dtype == expected.dtype == np.int32
        np.testing.assert_array_equal(out, expected)
        assert UNK_INDEX in out

    def test_empty_corpus(self):
        out = encode_corpus([], self.vocab, self.spec)
        assert out.shape == (0, 5) and out.dtype == np.int32


class TestLoadEmbeddings:
    def write(self, tmp_path, lines):
        p = tmp_path / "vectors.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def make_vocab(self):
        return Vocabulary.build([["cat", "dog", "cat", "dog", "emu", "emu"]])

    def test_readback(self, tmp_path):
        vec = " ".join(str(0.1 * i) for i in range(4))
        path = self.write(tmp_path, [f"cat {vec}"])
        vocab = self.make_vocab()
        emb = load_embeddings(path, vocab, dim=4, seed=0)
        np.testing.assert_allclose(emb.table.data[vocab.encode_tokens(["cat"])[0]],
                                   [0.0, 0.1, 0.2, 0.3], rtol=1e-6)

    def test_missing_tokens_get_small_random_rows(self, tmp_path):
        path = self.write(tmp_path, ["cat 1 2 3 4"])
        vocab = self.make_vocab()
        emb = load_embeddings(path, vocab, dim=4, seed=3)
        row = emb.table.data[vocab.encode_tokens(["dog"])[0]]
        assert (np.abs(row) < 0.05).all() and np.abs(row).max() > 0.0

    def test_same_seed_bit_identical(self, tmp_path):
        path = self.write(tmp_path, ["cat 1 2 3 4"])
        vocab = self.make_vocab()
        a = load_embeddings(path, vocab, dim=4, seed=9)
        b = load_embeddings(path, vocab, dim=4, seed=9)
        np.testing.assert_array_equal(a.table.data, b.table.data)

    def test_pad_row_zero(self, tmp_path):
        path = self.write(tmp_path, ["cat 1 2 3 4"])
        emb = load_embeddings(path, self.make_vocab(), dim=4, seed=0)
        np.testing.assert_array_equal(emb.table.data[0], np.zeros(4))

    def test_wrong_arity_reports_line(self, tmp_path):
        path = self.write(tmp_path, ["cat 1 2 3 4", "dog 1 2"])
        with pytest.raises(ParseError) as e:
            load_embeddings(path, self.make_vocab(), dim=4)
        assert "line 2" in str(e.value)

    def test_dim_mismatch_is_format_error(self, tmp_path):
        path = self.write(tmp_path, ["cat 1 2 3"])
        with pytest.raises(FormatError):
            load_embeddings(path, self.make_vocab(), dim=4)

    def test_non_numeric_reports_line(self, tmp_path):
        path = self.write(tmp_path, ["cat 1 2 3 4", "dog 1 2 x 4"])
        with pytest.raises(ParseError) as e:
            load_embeddings(path, self.make_vocab(), dim=4)
        assert "line 2" in str(e.value)

    @pytest.mark.parametrize("lines, error, message", [
        (["3 4", "cat 1 2 3 4"], FormatError, "line 1 is a word2vec 'count dim' header"),
        (["cat 1 2 3"], FormatError, "embedding file holds 3-dimensional vectors, expected 4"),
        (["cat 1 2 3 4", "dog 1 2"], ParseError, "line 2: expected 4 values, got 2"),
        (["cat 1 2 3 4", "", "dog 1 2 3 4 5"], ParseError, "line 3: expected 4 values, got 5"),
        (["cat 1 2 3 4", "dog 1 2 x 4"], ParseError, "line 2: could not convert string to float: 'x'"),
        (["cat 1 2 3 4", "dog 1 inf 3 4"], ParseError, "line 2: non-finite value 'inf'"),
    ], ids=["word2vec_header", "wrong_dim", "short_line", "long_line", "non_numeric", "non_finite"])
    def test_bad_file_names_path_and_line(self, tmp_path, lines, error, message):
        path = self.write(tmp_path, lines)
        with pytest.raises(error, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_embeddings(path, self.make_vocab(), dim=4)

    def test_kept_vectors_build_the_one_off_table(self, tmp_path):
        # a command keeps only its corpus's vectors and builds each fold's
        # table from them, with the draws of a one-off load
        path = self.write(tmp_path, ["cat 1 2 3 4", "yak 5 6 7 8", "emu 0 1 0 1"])
        vocab = self.make_vocab()
        kept = parse_embedding_file(path, 4, keep={"cat", "dog", "emu", "fox"})
        assert sorted(kept) == ["cat", "emu"]
        expected = load_embeddings(path, vocab, dim=4, seed=5).table.data
        assert embedding_table(kept, vocab, 4, seed=5).table.data.tobytes() == expected.tobytes()

    def test_lines_of_tokens_not_kept_are_still_checked(self, tmp_path):
        path = self.write(tmp_path, ["cat 1 2 3 4", "yak 1 nan 3 4"])
        with pytest.raises(ParseError, match="line 2: non-finite value 'nan'"):
            parse_embedding_file(path, 4, keep={"cat"})

    def test_two_integers_are_a_token_and_its_value_at_dim_1(self, tmp_path):
        path = self.write(tmp_path, ["3 4"])
        vocab = Vocabulary.from_tokens(["3"])
        assert load_embeddings(path, vocab, dim=1).table.data[2, 0] == 4.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e39"])
    def test_non_finite_reports_line(self, tmp_path, value):
        # 1e39 is finite as a double but past float32's range
        path = self.write(tmp_path, ["cat 1 2 3 4", f"dog 1 {value} 3 4"])
        with pytest.raises(ParseError) as e:
            load_embeddings(path, self.make_vocab(), dim=4)
        assert "line 2" in str(e.value) and value in str(e.value)
