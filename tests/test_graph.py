import re

import numpy as np
import pytest

from abusenet.text import FormatError, ParseError
from abusenet.graph import (
    DegenerateGraphError,
    SocialGraph,
    closeness,
    clustering_coefficient,
    eigenvector_centrality,
    hits,
    node_features,
    power_difference,
    reciprocity,
)


def graph_from_edges(edges, nodes=()):
    g = SocialGraph()
    for n in nodes:
        g.add_node(n)
    for s, d in edges:
        g.add_edge(s, d)
    return g


def dominant_eigvec(m):
    # dense brute-force oracle: eigenvector of the largest-real eigenvalue,
    # L2-normalized and sign-fixed to be nonnegative
    vals, vecs = np.linalg.eig(m)
    idx = int(np.argmax(vals.real))
    v = vecs[:, idx].real
    v = v / np.linalg.norm(v)
    if v.sum() < 0:
        v = -v
    return vals.real[idx], v


class TestReciprocity:
    def test_mutual_pair(self):
        g = graph_from_edges([("a", "b"), ("b", "a")])
        assert reciprocity(g, "a") == 1.0

    def test_star_center_following_none(self):
        g = graph_from_edges([("a", "c"), ("b", "c"), ("d", "c")])
        assert reciprocity(g, "c") == 0.0

    def test_partial(self):
        g = graph_from_edges([("a", "u"), ("b", "u"), ("c", "u"), ("u", "a")])
        assert reciprocity(g, "u") == pytest.approx(1 / 3)

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            reciprocity(graph_from_edges([("a", "b")]), "zz")


class TestHits:
    def test_single_edge_structure(self):
        g = graph_from_edges([("a", "b")])
        hub, auth = hits(g)
        assert hub["a"] == pytest.approx(1.0)
        assert hub["b"] == pytest.approx(0.0)
        assert auth["b"] == pytest.approx(1.0)
        assert auth["a"] == pytest.approx(0.0)

    def test_symmetric_complete_digraph_equal_scores(self):
        edges = [(a, b) for a in "abc" for b in "abc" if a != b]
        hub, auth = hits(graph_from_edges(edges))
        assert len({round(v, 10) for v in hub.values()}) == 1
        assert len({round(v, 10) for v in auth.values()}) == 1

    def test_four_node_toy_matches_dense_eigensolver(self):
        g = graph_from_edges([("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")])
        a_mat, order = g.adjacency()
        hub, auth = hits(g, iters=500, tol=1e-14)
        lam_a, expect_auth = dominant_eigvec(a_mat.T @ a_mat)
        lam_h, expect_hub = dominant_eigvec(a_mat @ a_mat.T)
        # the toy graph has a clear spectral gap, so vectors compare directly
        got_auth = np.array([auth[n] for n in order])
        got_hub = np.array([hub[n] for n in order])
        np.testing.assert_allclose(got_auth, expect_auth, atol=1e-6)
        np.testing.assert_allclose(got_hub, expect_hub, atol=1e-6)

    def test_scores_nonnegative_and_normalized(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = int(rng.integers(3, 9))
            edges = {(f"n{i}", f"n{(i + 1) % n}") for i in range(n)}
            for _ in range(n):
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    edges.add((f"n{i}", f"n{j}"))
            hub, auth = hits(graph_from_edges(sorted(edges)), iters=500, tol=1e-12)
            hv = np.array(list(hub.values()))
            av = np.array(list(auth.values()))
            assert (hv >= -1e-12).all() and (av >= -1e-12).all()
            assert np.linalg.norm(hv) == pytest.approx(1.0, abs=1e-6)
            assert np.linalg.norm(av) == pytest.approx(1.0, abs=1e-6)


class TestEigenvector:
    def test_symmetric_cycle_uniform(self):
        edges = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("c", "a"), ("a", "c")]
        scores = eigenvector_centrality(graph_from_edges(edges))
        vals = list(scores.values())
        np.testing.assert_allclose(vals, [vals[0]] * 3, atol=1e-8)

    def test_strongly_connected_matches_dense_eigensolver(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")])
        a_mat, order = g.adjacency()
        _, expected = dominant_eigvec(a_mat.T)
        scores = eigenvector_centrality(g, iters=2000, tol=1e-14)
        got = np.array([scores[n] for n in order])
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_directed_line_mass_flows_downstream(self):
        scores = eigenvector_centrality(graph_from_edges([("a", "b"), ("b", "c")]),
                                        iters=4000, tol=0.0)
        assert scores["c"] > scores["b"] > scores["a"]

    def test_permutation_equivariance(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]
        relabel = {"a": "z9", "b": "q1", "c": "m5"}
        orig = eigenvector_centrality(graph_from_edges(edges), iters=1000, tol=1e-13)
        perm = eigenvector_centrality(
            graph_from_edges([(relabel[s], relabel[d]) for s, d in edges]), iters=1000, tol=1e-13)
        for old, new in relabel.items():
            assert orig[old] == pytest.approx(perm[new], abs=1e-10)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(DegenerateGraphError):
            eigenvector_centrality(graph_from_edges([], nodes=["a", "b"]))


class TestCloseness:
    def test_isolated_node(self):
        g = graph_from_edges([("a", "b")], nodes=["z"])
        assert closeness(g, "z") == 0.0

    def test_path_head_by_hand(self):
        # a reaches b (1) and c (2): (2/3) * (2/2) = 2/3
        g = graph_from_edges([("a", "b"), ("b", "c")])
        assert closeness(g, "a") == pytest.approx(2 / 3)

    def test_complete_graph_everyone_one(self):
        edges = [(a, b) for a in "abcd" for b in "abcd" if a != b]
        g = graph_from_edges(edges)
        for n in "abcd":
            assert closeness(g, n) == pytest.approx(1.0)

    def test_disconnection_scaling(self):
        # b reaches only c in a 4-node graph: (1/1) * (1/3)
        g = graph_from_edges([("a", "b"), ("b", "c")], nodes=["d"])
        assert closeness(g, "b") == pytest.approx(1 / 3)


class TestClustering:
    def test_triangle_all_ones(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        for n in "abc":
            assert clustering_coefficient(g, n) == 1.0

    def test_star_center_zero(self):
        g = graph_from_edges([("a", "s"), ("b", "s"), ("c", "s")])
        assert clustering_coefficient(g, "s") == 0.0

    def test_four_node_toy_matches_enumeration(self):
        # undirected projection: a-b, a-c, a-d, b-c; around a: pairs (b,c), (b,d), (c,d); one linked
        g = graph_from_edges([("a", "b"), ("c", "a"), ("a", "d"), ("b", "c")])
        assert clustering_coefficient(g, "a") == pytest.approx(1 / 3)

    def test_degree_below_two_zero(self):
        g = graph_from_edges([("a", "b")])
        assert clustering_coefficient(g, "a") == 0.0


class TestPowerDifference:
    def make(self):
        g = SocialGraph()
        g.add_node("u", followers=999)
        g.add_node("m", followers=9)
        g.add_node("e1", followers=999)
        g.add_edge("u", "m")
        return g

    def test_no_mentions_zero(self):
        assert power_difference(self.make(), "u", []) == 0.0

    def test_equal_counts_zero(self):
        assert power_difference(self.make(), "u", ["e1"]) == pytest.approx(0.0)

    def test_log_arithmetic(self):
        assert power_difference(self.make(), "u", ["m"]) == pytest.approx(2.0)


class TestGraphStructure:
    def test_self_loop_rejected(self):
        g = SocialGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_duplicate_edges_collapse(self):
        g = SocialGraph()
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        assert g.n_edges() == 1

    def test_from_files(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b\nb c\n")
        attrs = tmp_path / "nodes.txt"
        attrs.write_text("a 100 10\nb 5 5\nc 1 0\n")
        g = SocialGraph.from_files(edges, attrs)
        assert g.nodes() == ["a", "b", "c"]
        assert g.followers_count["a"] == 100
        assert g.has_edge("a", "b")

    def test_from_files_non_integer_count_reports_line(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b\n")
        attrs = tmp_path / "nodes.txt"
        attrs.write_text("# node followers friends\nb 5 5\na x 3\n")
        with pytest.raises(ValueError, match="attribute file line 3: .*'x'"):
            SocialGraph.from_files(edges, attrs)

    def test_negative_count_rejected(self):
        g = SocialGraph()
        with pytest.raises(ValueError, match="must be >= 0"):
            g.add_node("a", followers=-1, friends=3)
        with pytest.raises(ValueError, match="must be >= 0"):
            g.add_node("a", followers=1, friends=-3)
        assert len(g) == 0

    def test_from_files_negative_count_reports_line(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b\n")
        attrs = tmp_path / "nodes.txt"
        attrs.write_text("b 5 5\na -4 3\n")
        with pytest.raises(ValueError, match="attribute file line 2: node 'a'"):
            SocialGraph.from_files(edges, attrs)

    @pytest.mark.parametrize("edges, error, message", [
        ("a b\nb c d\n", ParseError, "edge file line 2: expected 'src dst'"),
        ("a\n", ParseError, "edge file line 1: expected 'src dst'"),
        ("# src dst\n\na b\nb b\n", ParseError, "edge file line 4: self-loop rejected: 'b'"),
        ("", FormatError, "edge file holds no edges"),
        ("# src dst\n\n", FormatError, "edge file holds no edges"),
    ], ids=["three_fields", "one_field", "self_loop", "empty", "comments_only"])
    def test_bad_edge_file_names_path_and_line(self, tmp_path, edges, error, message):
        path = tmp_path / "edges.txt"
        path.write_text(edges)
        with pytest.raises(error, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            SocialGraph.from_files(path)

    @pytest.mark.parametrize("nodes, message", [
        ("a 1 2\nb 1\n", "attribute file line 2: expected 'node followers friends'"),
        ("a 1 2 3\n", "attribute file line 1: expected 'node followers friends'"),
        ("# node followers friends\nb 5 5\na x 3\n", "attribute file line 3: invalid literal"),
        ("a 1.5 3\n", "attribute file line 1: invalid literal"),
        ("\nb 5 5\na -4 3\n", "attribute file line 3: node 'a': follower and friend counts"),
    ], ids=["two_fields", "four_fields", "non_integer", "fraction", "negative"])
    def test_bad_node_file_names_path_and_line(self, tmp_path, nodes, message):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b\n")
        path = tmp_path / "nodes.txt"
        path.write_text(nodes)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            SocialGraph.from_files(edges, path)

    def test_empty_edge_file_with_nodes_loads(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("")
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("a 3 1\n")
        g = SocialGraph.from_files(edges, nodes)
        assert (g.nodes(), g.n_edges()) == (["a"], 0)

    def test_node_features_block(self):
        g = graph_from_edges([("a", "b"), ("b", "a"), ("b", "c")])
        feats = node_features(g, "b", mentioned=["a"], hub_auth=hits(g),
                              eigen=eigenvector_centrality(g))
        assert len(feats) == 10
        assert all(np.isfinite(feats))
