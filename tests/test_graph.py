import re
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest

from abusenet import data as data_mod
from abusenet import graph as graph_mod
from abusenet.data import attach_network_features, synth_xor
from abusenet.text import MENTION_RE, FormatError, ParseError
from abusenet.graph import (
    DegenerateGraphError,
    SocialGraph,
    closeness_scores,
    clustering_scores,
    eigenvector_centrality,
    hits,
    logged_followers,
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


def reference_closeness(g, node):
    """One breadth-first search from ``node``, as in the per-node definition."""
    dist = {node: 0}
    queue = deque([node])
    while queue:
        cur = queue.popleft()
        for nxt in g.out_neighbors(cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    reachable = len(dist) - 1
    if reachable == 0 or len(g) < 2:
        return 0.0
    total = sum(dist.values())
    return (reachable / total) * (reachable / (len(g) - 1))


def reference_clustering(g, node):
    """Every pair of ``node``'s undirected neighbours, tested for an edge."""
    neighbors = (g.out_neighbors(node) | g.in_neighbors(node)) - {node}
    k = len(neighbors)
    if k < 2:
        return 0.0
    linked = 0
    ordered = sorted(neighbors)
    for i, u in enumerate(ordered):
        for v in ordered[i + 1:]:
            if g.has_edge(u, v) or g.has_edge(v, u):
                linked += 1
    return linked / (k * (k - 1) / 2)


def random_digraph(seed):
    """A seeded digraph of 1 to 150 nodes: sparse or dense, with isolated nodes,
    2-cycles, parts that do not touch, and edges added twice."""
    rng = np.random.default_rng(seed)
    n = 1 if seed == 0 else int(rng.integers(2, 151))
    g = SocialGraph()
    for i in range(n):
        g.add_node(f"n{i}")
    parts = int(rng.integers(1, 4))  # edges join only nodes equal modulo parts
    for _ in range(int(rng.integers(0, 4 * n))):
        i, j = rng.integers(0, n, size=2)
        if i == j or i % parts != j % parts:
            continue
        g.add_edge(f"n{i}", f"n{j}")
        if rng.random() < 0.2:
            g.add_edge(f"n{j}", f"n{i}")
        if rng.random() < 0.1:
            g.add_edge(f"n{i}", f"n{j}")
    return g


class TestBatchedMetrics:
    @pytest.mark.parametrize("bitset_bytes", [graph_mod.BITSET_BYTES, 1], ids=["one_chunk", "chunked"])
    def test_equal_per_node_references(self, monkeypatch, bitset_bytes):
        # 1 byte: 64 sources per chunk, and bit counts unpacked one row at a time
        monkeypatch.setattr(graph_mod, "BITSET_BYTES", bitset_bytes)
        for seed in range(30):
            g = random_digraph(seed)
            nodes = g.nodes()
            asked = nodes[::-1] + nodes[:3]  # some nodes listed twice
            close, clust = closeness_scores(g, asked), clustering_scores(g, asked)
            assert sorted(close) == sorted(clust) == nodes
            for node in nodes:
                assert close[node] == reference_closeness(g, node), (seed, node)
                assert clust[node] == reference_clustering(g, node), (seed, node)

    def test_subset_and_unknown_nodes(self):
        g = random_digraph(7)
        some = g.nodes()[5:9]
        assert closeness_scores(g, some) == {n: reference_closeness(g, n) for n in some}
        assert clustering_scores(g, []) == {}
        for metric in (closeness_scores, clustering_scores):
            with pytest.raises(KeyError, match="'zz'"):
                metric(g, [some[0], "zz"])

    def test_adjacency_from_edge_arrays(self):
        g = random_digraph(3)
        a_mat, order = g.adjacency()
        assert order == g.nodes()
        assert a_mat.sum() == g.n_edges()
        assert all(a_mat[i, j] == float(g.has_edge(u, v))
                   for i, u in enumerate(order) for j, v in enumerate(order))


def scale_graph(followers=None):
    """4000 nodes u0..u3999 and 24000 seeded random edges; each node's
    follower count is 0 unless ``followers`` gives the counts."""
    n, e = 4000, 24000
    rng = np.random.default_rng(18)
    g = SocialGraph()
    for i in range(n):
        g.add_node(f"u{i}", followers=0 if followers is None else int(followers[i]))
    pairs = {(int(s), int(d)) for s, d in rng.integers(0, n, size=(e + 200, 2)) if s != d}
    for src, dst in sorted(pairs)[:e]:
        g.add_edge(f"u{src}", f"u{dst}")
    return g


class TestScale:
    def test_all_nodes_in_seconds_and_memory_linear_in_nodes_and_edges(self):
        # A per-node BFS takes about 14 s for closeness alone at this size. `hits`
        # and `eigenvector_centrality` still build the dense adjacency, 122 MiB here.
        n, e = 4000, 24000
        g = scale_graph()
        nodes = g.nodes()
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            close, clust = closeness_scores(g, nodes), clustering_scores(g, nodes)
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_edges() == e
        assert len(close) == len(clust) == n and max(close.values()) > 0 < max(clust.values())
        assert seconds < 10, f"{seconds:.1f} s"
        # a bool nodes x nodes array alone would be 15 MiB
        bound = 4 * graph_mod.BITSET_BYTES + 200 * (n + e)
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


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
        assert closeness_scores(g, ["z"])["z"] == 0.0

    def test_path_head_by_hand(self):
        # a reaches b (1) and c (2): (2/3) * (2/2) = 2/3
        g = graph_from_edges([("a", "b"), ("b", "c")])
        assert closeness_scores(g, ["a"])["a"] == pytest.approx(2 / 3)

    def test_complete_graph_everyone_one(self):
        edges = [(a, b) for a in "abcd" for b in "abcd" if a != b]
        g = graph_from_edges(edges)
        for n in "abcd":
            assert closeness_scores(g, [n])[n] == pytest.approx(1.0)

    def test_disconnection_scaling(self):
        # b reaches only c in a 4-node graph: (1/1) * (1/3)
        g = graph_from_edges([("a", "b"), ("b", "c")], nodes=["d"])
        assert closeness_scores(g, ["b"])["b"] == pytest.approx(1 / 3)


class TestClustering:
    def test_triangle_all_ones(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        for n in "abc":
            assert clustering_scores(g, [n])[n] == 1.0

    def test_star_center_zero(self):
        g = graph_from_edges([("a", "s"), ("b", "s"), ("c", "s")])
        assert clustering_scores(g, ["s"])["s"] == 0.0

    def test_four_node_toy_matches_enumeration(self):
        # undirected projection: a-b, a-c, a-d, b-c; around a: pairs (b,c), (b,d), (c,d); one linked
        g = graph_from_edges([("a", "b"), ("c", "a"), ("a", "d"), ("b", "c")])
        assert clustering_scores(g, ["a"])["a"] == pytest.approx(1 / 3)

    def test_degree_below_two_zero(self):
        g = graph_from_edges([("a", "b")])
        assert clustering_scores(g, ["a"])["a"] == 0.0


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

    def test_mean_of_any_length_keeps_np_mean_bits(self):
        # a plain sum stands in for np.mean below 8 values, where numpy's
        # pairwise sum adds in sequence; from 8 on np.mean itself is taken
        rng = np.random.default_rng(22)
        g = SocialGraph()
        g.add_node("u", followers=int(rng.integers(0, 10**7)))
        names = [f"m{k}" for k in range(40)]
        for name in names:
            g.add_node(name, followers=int(rng.integers(0, 10**7)))
        logged = logged_followers(g)
        for length in range(1, 21):
            for _ in range(200):
                mentioned = list(rng.choice(names, size=length))
                expected = float(logged["u"] - np.mean([logged[m] for m in mentioned]))
                assert power_difference(g, "u", mentioned, logged).hex() == expected.hex()
                assert power_difference(g, "u", mentioned).hex() == expected.hex()

    def test_attached_column_equals_the_per_mention_formula_bitwise(self, monkeypatch):
        # attach_network_features logs each node's count once per call; every
        # sample keeps the bits of logging each mention's count where it is
        # read, over the same mentions in the same order
        g = scale_graph(followers=np.random.default_rng(19).integers(0, 10**7, size=4000))
        # the dense adjacency these build (122 MiB here) plays no part in the column
        monkeypatch.setattr(data_mod, "hits", lambda graph: ({n: 0.0 for n in graph.nodes()},) * 2)
        monkeypatch.setattr(data_mod, "eigenvector_centrality", lambda graph: {n: 0.0 for n in graph.nodes()})
        corpus = synth_xor(n=300, seed=20)
        rng = np.random.default_rng(21)
        for i, rec in enumerate(corpus.records):
            rec["user"] = f"u{rng.integers(0, 50)}" if i % 9 else "stranger"
            mentions = [f"@u{k}" for k in rng.integers(0, 4000, size=rng.integers(0, 5))]
            if i % 3 == 0:
                mentions += mentions[:1] + ["@nobody"]  # a repeated and an unknown mention
            corpus.texts[i] += " " + " ".join(mentions)
        got = attach_network_features(corpus, g, "user")
        counts = g.followers_count
        nonzero = 0
        for rec, text in zip(got.records, corpus.texts):
            known = [m[1:] for m in MENTION_RE.findall(text) if m[1:] in counts]
            expected = 0.0
            if rec["user"] in counts and known:
                own = np.log10(1.0 + counts[rec["user"]])
                expected = float(own - np.mean([np.log10(1.0 + counts[m]) for m in known]))
            assert rec["nf_power_difference"] == expected
            nonzero += expected != 0.0
        assert nonzero > 150


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
        ("a 10 2\nb 1 1\na 99 7\n", "attribute file line 3: node 'a' is listed twice"),
    ], ids=["two_fields", "four_fields", "non_integer", "fraction", "negative", "listed_twice"])
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
                              eigen=eigenvector_centrality(g), closeness=closeness_scores(g, ["b"]),
                              clustering=clustering_scores(g, ["b"]))
        assert len(feats) == 10
        assert all(np.isfinite(feats))
