import math
import tracemalloc

import numpy as np
import pytest

from abusenet.baseline import TermMatrix, TfidfModel, nb_fit, nb_predict, preprocess_baseline


def brute_force_posteriors(train_matrix, labels, test_matrix, alpha=1.0):
    """Independent Bayes computation with explicit loops."""
    n_classes = int(max(labels)) + 1
    n_terms = len(train_matrix[0])
    priors = [sum(1 for l in labels if l == c) / len(labels) for c in range(n_classes)]
    theta = []
    for c in range(n_classes):
        totals = [alpha] * n_terms
        for row, label in zip(train_matrix, labels):
            if label == c:
                for t in range(n_terms):
                    totals[t] += row[t]
        denom = sum(totals)
        theta.append([v / denom for v in totals])
    out = []
    for row in test_matrix:
        scores = []
        for c in range(n_classes):
            s = math.log(priors[c])
            for t in range(n_terms):
                if row[t] != 0.0:
                    s += row[t] * math.log(theta[c][t])
            scores.append(s)
        m = max(scores)
        exp = [math.exp(s - m) for s in scores]
        z = sum(exp)
        out.append([e / z for e in exp])
    return np.array(out)


class TestPreprocess:
    def test_stopword_removed(self):
        assert preprocess_baseline("The CAT") == ["cat"]

    def test_only_stopwords_empty(self):
        assert preprocess_baseline("the and of to") == []

    def test_mixed_tweet_hand_traced(self):
        got = preprocess_baseline("RT @user: Check https://x.co #Win now!!! 100%")
        assert got == ["rt", "check", "win", "now"]


def dense_tfidf(model, documents):
    """Row-by-row reference: counts over the vocabulary, times idf, unit L2 rows."""
    out = np.zeros((len(documents), len(model.vocabulary)))
    for i, doc in enumerate(documents):
        for t in doc:
            if t in model.vocabulary:
                out[i, model.vocabulary[t]] += 1.0
        out[i] *= model.idf
        norm = math.sqrt(sum(v * v for v in out[i]))
        if norm:
            out[i] /= norm
    return out


def random_documents(rng, n_docs, n_words, max_len):
    words = [f"w{i}" for i in range(n_words)]
    return [[words[j] for j in rng.integers(0, n_words, size=rng.integers(0, max_len + 1))]
            for _ in range(n_docs)]


class TestTfidf:
    def test_hand_computed_two_doc_matrix(self):
        docs = [["cat", "cat", "dog"], ["dog", "bird"]]
        model = TfidfModel(top_k=10)
        matrix = model.fit_transform(docs).toarray()
        # vocabulary sorted by count desc then alphabetically: cat, dog, bird
        assert list(model.vocabulary) == ["cat", "dog", "bird"]
        idf_rare = math.log(3 / 2) + 1.0
        row1 = np.array([2 * idf_rare, 1.0, 0.0])
        row1 /= math.sqrt((2 * idf_rare) ** 2 + 1.0)
        row2 = np.array([0.0, 1.0, idf_rare])
        row2 /= math.sqrt(1.0 + idf_rare ** 2)
        np.testing.assert_allclose(matrix[0], row1, atol=1e-12)
        np.testing.assert_allclose(matrix[1], row2, atol=1e-12)

    def test_everywhere_term_gets_minimal_idf(self):
        model = TfidfModel(top_k=10)
        model.fit([["x", "a"], ["x", "b"], ["x", "c"]])
        assert model.idf[model.vocabulary["x"]] == pytest.approx(1.0)

    def test_empty_document_zero_row(self):
        model = TfidfModel(top_k=10)
        matrix = model.fit_transform([["a", "a", "b"], []]).toarray()
        np.testing.assert_array_equal(matrix[1], np.zeros(matrix.shape[1]))

    def test_top_k_bound(self):
        docs = [[f"w{i}" for i in range(40)]]
        model = TfidfModel(top_k=10).fit(docs)
        assert len(model.vocabulary) == 10

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        with pytest.raises(ValueError, match=f"top_k must be at least 1, got {top_k}"):
            TfidfModel(top_k=top_k)

    def test_sparse_transform_equals_dense_reference(self):
        rng = np.random.default_rng(3)
        train = random_documents(rng, 40, 30, 8) + [[]]
        model = TfidfModel(top_k=12).fit(train)
        test = random_documents(rng, 20, 40, 8) + [[], ["w39", "w38"], ["unseen"]]
        for docs in (train, test):
            matrix = model.transform(docs)
            assert matrix.shape == (len(docs), 12)
            for i in range(len(docs)):
                cols = matrix.indices[matrix.indptr[i]:matrix.indptr[i + 1]]
                assert (np.diff(cols) > 0).all()
            np.testing.assert_allclose(matrix.toarray(), dense_tfidf(model, docs), rtol=0, atol=1e-12)
        # an empty document and documents of out-of-vocabulary words store nothing
        assert matrix.toarray()[-3:].tolist() == [[0.0] * 12] * 3
        np.testing.assert_array_equal(np.diff(matrix.indptr)[-3:], [0, 0, 0])

    def test_fit_transform_equals_fit_then_transform(self):
        docs = random_documents(np.random.default_rng(4), 30, 25, 6)
        once = TfidfModel(top_k=10).fit_transform(docs)
        model = TfidfModel(top_k=10).fit(docs)
        again = model.transform(docs)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(once, name), getattr(again, name))
        assert once.shape == again.shape

    def test_term_matrix_round_trips_a_dense_array(self):
        dense = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.5, 0.0, -3.0]])
        matrix = TermMatrix.from_dense(dense)
        assert matrix.indptr.tolist() == [0, 1, 1, 3]
        assert matrix.indices.tolist() == [1, 0, 2]
        assert matrix.nbytes == matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes
        np.testing.assert_array_equal(matrix.toarray(), dense)

    def test_inconsistent_term_matrix_rejected(self):
        with pytest.raises(ValueError, match="3 row pointers"):
            TermMatrix(np.array([0, 1, 2]), np.array([0]), np.array([1.0]), (2, 2))

    def test_scaling_invariance_via_row_normalization(self):
        model = TfidfModel(top_k=10)
        model.fit([["a", "b"], ["b", "c"]])
        once = model.transform([["a", "b", "c"]]).toarray()
        thrice = model.transform([["a", "a", "a", "b", "b", "b", "c", "c", "c"]]).toarray()
        np.testing.assert_allclose(once, thrice, atol=1e-12)


class TestNaiveBayes:
    def test_single_doc_per_class_classified_as_own(self):
        docs = [["spam", "offer"], ["meeting", "notes"]]
        model = TfidfModel(top_k=10)
        matrix = model.fit_transform(docs)
        nb = nb_fit(matrix, np.array([0, 1]))
        preds, _ = nb_predict(nb, matrix)
        np.testing.assert_array_equal(preds, [0, 1])

    def test_six_doc_corpus_matches_brute_force(self):
        docs = [
            ["win", "cash", "now"],
            ["win", "win", "prize"],
            ["cash", "prize", "offer"],
            ["lunch", "plan", "today"],
            ["today", "notes", "plan"],
            ["notes", "lunch", "meeting"],
        ]
        labels = np.array([0, 0, 0, 1, 1, 1])
        model = TfidfModel(top_k=20)
        matrix = model.fit_transform(docs)
        nb = nb_fit(matrix, labels)
        preds, posteriors = nb_predict(nb, matrix)
        dense = matrix.toarray().tolist()
        oracle = brute_force_posteriors(dense, labels.tolist(), dense)
        np.testing.assert_allclose(posteriors, oracle, atol=1e-12)
        np.testing.assert_array_equal(preds, oracle.argmax(axis=1))
        np.testing.assert_array_equal(preds, labels)

    def test_posterior_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((12, 6))
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]
        nb = nb_fit(matrix, labels, n_classes=3)
        _, post = nb_predict(nb, matrix)
        np.testing.assert_allclose(post.sum(axis=1), np.ones(12), atol=1e-9)

    def test_empty_row_predicts_argmax_prior(self):
        matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 0, 1])
        nb = nb_fit(matrix, labels)
        preds, post = nb_predict(nb, np.zeros((1, 2)))
        assert preds[0] == 0  # majority prior
        np.testing.assert_allclose(post[0], [2 / 3, 1 / 3], atol=1e-12)

    def test_tie_broken_by_lowest_class_index(self):
        matrix = np.array([[1.0], [1.0]])
        labels = np.array([0, 1])
        nb = nb_fit(matrix, labels)
        preds, _ = nb_predict(nb, np.array([[1.0]]))
        assert preds[0] == 0

    def test_disjoint_vocabularies_perfect_training_accuracy(self):
        docs = [["aa", "ab"], ["ab", "ac"], ["ba", "bb"], ["bb", "bc"]]
        labels = np.array([0, 0, 1, 1])
        matrix = TfidfModel(top_k=10).fit_transform(docs)
        nb = nb_fit(matrix, labels)
        preds, _ = nb_predict(nb, matrix)
        np.testing.assert_array_equal(preds, labels)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            nb_fit(np.ones((2, 2)), np.array([0, 0]), n_classes=2)

    def test_dense_and_term_matrix_inputs_agree(self):
        rng = np.random.default_rng(5)
        model = TfidfModel(top_k=20)
        train = model.fit_transform(random_documents(rng, 60, 35, 10))
        test = model.transform(random_documents(rng, 25, 40, 10) + [[]])
        labels = rng.integers(0, 3, size=60)
        labels[:3] = [0, 1, 2]
        sparse_nb = nb_fit(train, labels, n_classes=3)
        dense_nb = nb_fit(train.toarray(), labels, n_classes=3)
        np.testing.assert_allclose(dense_nb.log_likelihood, sparse_nb.log_likelihood, rtol=0, atol=1e-12)
        want_preds, want_post = nb_predict(sparse_nb, test)
        for nb in (sparse_nb, dense_nb):
            for matrix in (test, test.toarray()):
                preds, post = nb_predict(nb, matrix)
                np.testing.assert_array_equal(preds, want_preds)
                np.testing.assert_allclose(post, want_post, rtol=0, atol=1e-12)

    def test_narrow_integer_labels_fit_the_same_model(self):
        matrix = np.random.default_rng(6).random((9, 300))
        labels = np.arange(9) % 3
        wide = nb_fit(matrix, labels)
        narrow = nb_fit(matrix, labels.astype(np.int8))
        np.testing.assert_array_equal(narrow.log_likelihood, wide.log_likelihood)

    def test_empty_document_scores_exactly_the_prior(self):
        matrix = TermMatrix.from_dense([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
        nb = nb_fit(matrix, np.array([0, 1, 0, 1]))
        scores = nb.joint_log_scores(TermMatrix.from_dense(np.zeros((2, 2))))
        np.testing.assert_array_equal(scores, np.tile(nb.log_prior, (2, 1)))

    def test_row_and_label_counts_must_agree(self):
        with pytest.raises(ValueError, match="3 rows but there are 2 labels"):
            nb_fit(np.ones((3, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([False, True])])
    def test_labels_that_are_not_integers_rejected(self, labels):
        with pytest.raises(ValueError, match=f"labels must be integers, got {labels.dtype}"):
            nb_fit(np.eye(2), labels)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_outside_classes_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"label {bad} outside \[0, 2\) at row 2"):
            nb_fit(np.ones((3, 2)), np.array([0, 1, bad]), n_classes=2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_named_by_row_and_column(self, bad):
        matrix = np.ones((3, 4))
        matrix[2, 1] = bad
        for given in (matrix, TermMatrix.from_dense(matrix)):
            with pytest.raises(ValueError, match=f"non-finite matrix value {bad} at row 2, column 1"):
                nb_fit(given, np.array([0, 1, 0]))
        nb = nb_fit(np.ones((2, 4)), np.array([0, 1]))
        with pytest.raises(ValueError, match="row 2, column 1"):
            nb_predict(nb, matrix)

    def test_term_count_must_match_the_model(self):
        nb = nb_fit(np.ones((2, 4)), np.array([0, 1]))
        with pytest.raises(ValueError, match="matrix has 3 terms, the model 4"):
            nb_predict(nb, np.ones((1, 3)))


class TestScale:
    def test_memory_grows_with_tokens_not_documents_times_terms(self):
        # 5000 documents x 10000 terms would be 381 MiB as a dense float64 array
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(20000)]
        docs = [[words[j] for j in rng.integers(0, 20000, size=20)] for _ in range(5000)]
        labels = np.arange(5000) % 2
        tracemalloc.start()
        try:
            tfidf = TfidfModel(top_k=10000)
            nb = nb_fit(tfidf.fit_transform(docs), labels)
            preds, _ = nb_predict(nb, tfidf.transform(docs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tfidf.vocabulary) == 10000 and len(preds) == 5000
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"
