"""Social-graph metrics from a follower edge list.

The graph is directed with edges follower -> followed. Nodes carry platform
follower/friend counts (which are not the same as graph degrees: the crawled
edge list is usually a small neighborhood of the real network).
"""

from __future__ import annotations

import numpy as np

from .text import FormatError, ParseError, not_utf8


# Bytes per bit array of `closeness_scores` and `clustering_scores`: each
# keeps one bit per source for every node or edge, so their sources go in
# chunks small enough that an array over all edges fits 1 MiB.
BITSET_BYTES = 1 << 20


class DegenerateGraphError(ValueError):
    """The requested metric has no meaningful value on this graph."""


class SocialGraph:
    """Directed graph (follower -> followed) with per-node platform counts."""

    def __init__(self):
        self._out: dict[str, set[str]] = {}
        self._in: dict[str, set[str]] = {}
        self.followers_count: dict[str, int] = {}
        self.friends_count: dict[str, int] = {}

    def add_node(self, node: str, followers: int = 0, friends: int = 0) -> None:
        node, followers, friends = str(node), int(followers), int(friends)
        if followers < 0 or friends < 0:
            raise ValueError(f"node {node!r}: follower and friend counts must be >= 0, "
                             f"got {followers} and {friends}")
        self._out.setdefault(node, set())
        self._in.setdefault(node, set())
        self.followers_count[node] = followers
        self.friends_count[node] = friends

    def add_edge(self, src: str, dst: str) -> None:
        src, dst = str(src), str(dst)
        if src == dst:
            raise ValueError(f"self-loop rejected: {src!r}")
        for n in (src, dst):
            if n not in self._out:
                self.add_node(n)
        self._out[src].add(dst)  # duplicates collapse
        self._in[dst].add(src)

    @classmethod
    def from_files(cls, edge_path, attr_path=None) -> "SocialGraph":
        """Edge file: "src dst" per line; attribute file: "node followers friends";
        blank and ``#`` lines are skipped. A malformed line is a ParseError naming
        the file and line (so is a node listed twice in the attribute file), a graph
        with no nodes a FormatError naming the edge file."""
        g = cls()

        def add_listed_node(node, followers, friends):
            if node in g.followers_count:  # attribute lines are read before edges
                raise ValueError(f"node {node!r} is listed twice")
            g.add_node(node, followers, friends)

        if attr_path is not None:
            _read_lines(attr_path, "attribute file", "node followers friends", add_listed_node)
        _read_lines(edge_path, "edge file", "src dst", g.add_edge)
        if len(g) == 0:
            raise FormatError(f"{edge_path}: edge file holds no edges, and no attribute file adds nodes")
        return g

    def nodes(self) -> list[str]:
        return sorted(self._out)

    def __len__(self) -> int:
        return len(self._out)

    def n_edges(self) -> int:
        return sum(len(v) for v in self._out.values())

    def has_edge(self, src: str, dst: str) -> bool:
        return dst in self._out.get(str(src), set())

    def out_neighbors(self, node: str) -> set[str]:
        self._require(node)
        return self._out[str(node)]

    def in_neighbors(self, node: str) -> set[str]:
        self._require(node)
        return self._in[str(node)]

    def _require(self, node: str) -> None:
        if str(node) not in self._out:
            raise KeyError(f"unknown node: {node!r}")

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Each edge nodes[src[i]] -> nodes[dst[i]] as int64 index arrays, with nodes()."""
        order = self.nodes()
        pos = {n: i for i, n in enumerate(order)}
        counts = [len(self._out[n]) for n in order]
        src = np.repeat(np.arange(len(order), dtype=np.int64), counts)
        dst = np.fromiter((pos[d] for n in order for d in self._out[n]),
                          dtype=np.int64, count=len(src))
        return src, dst, order

    def adjacency(self) -> tuple[np.ndarray, list[str]]:
        """Dense 0/1 matrix A with A[i, j] = 1 for edge nodes[i] -> nodes[j]."""
        src, dst, order = self.edge_arrays()
        a = np.zeros((len(order), len(order)), dtype=np.float64)
        a[src, dst] = 1.0
        return a, order


def _read_lines(path, kind: str, form: str, add) -> None:
    """Call ``add`` with each line's fields, which must be those ``form`` names."""
    width = len(form.split())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                if len(parts) != width:
                    raise ParseError(f"{path}: {kind} line {lineno}: expected {form!r}")
                try:
                    add(*parts)
                except ValueError as e:
                    raise ParseError(f"{path}: {kind} line {lineno}: {e}") from None
    except UnicodeDecodeError:
        raise ParseError(not_utf8(path, kind)) from None


def reciprocity(g: SocialGraph, node: str) -> float:
    """Fraction of the node's followers it follows back; 0 with no followers."""
    followers = g.in_neighbors(node)
    if not followers:
        return 0.0
    back = sum(1 for f in followers if g.has_edge(node, f))
    return back / len(followers)


def hits(g: SocialGraph, iters: int = 100, tol: float = 1e-8) -> tuple[dict[str, float], dict[str, float]]:
    """Hub/authority scores by alternating power iteration, L2-normalized."""
    if len(g) == 0:
        raise DegenerateGraphError("hits needs a nonempty graph")
    a_mat, order = g.adjacency()
    n = len(order)
    if g.n_edges() == 0:
        zeros = {node: 0.0 for node in order}
        return dict(zeros), dict(zeros)
    h = np.full(n, 1.0 / np.sqrt(n))
    auth = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iters):
        new_auth = a_mat.T @ h
        norm = np.linalg.norm(new_auth)
        if norm > 0:
            new_auth /= norm
        new_h = a_mat @ new_auth
        norm = np.linalg.norm(new_h)
        if norm > 0:
            new_h /= norm
        delta = max(np.abs(new_auth - auth).max(), np.abs(new_h - h).max())
        h, auth = new_h, new_auth
        if delta < tol:
            break
    return ({node: float(h[i]) for i, node in enumerate(order)},
            {node: float(auth[i]) for i, node in enumerate(order)})


def eigenvector_centrality(g: SocialGraph, iters: int = 100, tol: float = 1e-8) -> dict[str, float]:
    """Power iteration on the incoming-edge adjacency, L2-normalized.

    The iteration matrix is A^T + I: the identity shift preserves the
    dominant eigenvector of A^T while keeping the iteration away from the
    zero vector on graphs whose adjacency is nilpotent (e.g. directed paths).
    """
    if g.n_edges() == 0:
        raise DegenerateGraphError("eigenvector centrality needs at least one edge")
    a_mat, order = g.adjacency()
    if a_mat.sum(axis=0).max() == 0:
        raise DegenerateGraphError("no node has incoming edges")
    n = len(order)
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iters):
        new_x = a_mat.T @ x + x
        norm = np.linalg.norm(new_x)
        if norm == 0:
            raise DegenerateGraphError("power iteration collapsed to the zero vector")
        new_x /= norm
        delta = np.abs(new_x - x).max()
        x = new_x
        if delta < tol:
            break
    return {node: float(x[i]) for i, node in enumerate(order)}


def closeness_scores(g: SocialGraph, nodes: list[str]) -> dict[str, float]:
    """Out-reachability closeness with the Wasserman-Faust correction, per node.

    With r nodes reachable from u (excluding u) at total BFS distance s over
    n nodes: (r / s) * (r / (n - 1)); 0 when nothing is reachable. One
    level-synchronous BFS runs from all of ``nodes`` at once, one bit per
    source in each node's bit array (Then et al., VLDB 2014): a level ORs
    each edge's source bits into its target, and the bits not seen before
    count each source's nodes at that distance.
    """
    src, dst, order = g.edge_arrays()
    names, sources = _sources(g, order, nodes)
    n = len(order)
    reach = np.zeros(len(sources), dtype=np.int64)
    total = np.zeros(len(sources), dtype=np.int64)
    by_dst = np.argsort(dst, kind="stable")
    src, dst = src[by_dst], dst[by_dst]
    starts = np.flatnonzero(np.diff(dst, prepend=-1))  # each target's run of edges
    targets = dst[starts]
    for lo, hi, words in _chunks(len(sources), max(n, len(src))):
        front, octets = _bits(n, words)
        bit = np.arange(hi - lo)
        octets[sources[lo:hi], bit >> 3] = 1 << (bit & 7)
        seen = front.copy()
        level = 0
        while front.any():
            level += 1
            reached = np.zeros_like(front)
            reached[targets] = np.bitwise_or.reduceat(front[src], starts, axis=0)
            front = reached & ~seen
            seen |= front
            new = _bit_counts(front, hi - lo)
            reach[lo:hi] += new
            total[lo:hi] += level * new
    return {name: 0.0 if r == 0 or n < 2 else (r / s) * (r / (n - 1))
            for name, r, s in zip(names, reach.tolist(), total.tolist())}


def clustering_scores(g: SocialGraph, nodes: list[str]) -> dict[str, float]:
    """Local clustering on the undirected projection per node; 0 below degree 2.

    Each source's bit is set on its neighbours, so the links among a source's
    neighbours are the undirected edges with its bit set at both ends.
    """
    src, dst, order = g.edge_arrays()
    names, sources = _sources(g, order, nodes)
    n = len(order)
    pairs = np.sort(np.minimum(src, dst) * n + np.maximum(src, dst))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # a 2-cycle is one pair
    low, high = np.divmod(pairs, n)
    ends, others = np.r_[low, high], np.r_[high, low]
    neighbours = others[np.argsort(ends, kind="stable")]
    degree = np.bincount(ends, minlength=n)
    first = np.cumsum(degree) - degree
    k = degree[sources]
    linked = np.zeros(len(sources), dtype=np.int64)
    for lo, hi, words in _chunks(len(sources), max(n, len(pairs))):
        counts = k[lo:hi]
        # positions in `neighbours` of each source's run, and the source's bit
        offsets = np.cumsum(counts) - counts
        at = np.arange(counts.sum()) + np.repeat(first[sources[lo:hi]] - offsets, counts)
        bit = np.repeat(np.arange(hi - lo), counts)
        marks, octets = _bits(n, words)
        np.bitwise_or.at(octets, (neighbours[at], bit >> 3), (1 << (bit & 7)).astype(np.uint8))
        linked[lo:hi] = _bit_counts(marks[low] & marks[high], hi - lo)
    return {name: 0.0 if kk < 2 else links / (kk * (kk - 1) / 2)
            for name, kk, links in zip(names, k.tolist(), linked.tolist())}


def _sources(g: SocialGraph, order: list[str], nodes: list[str]) -> tuple[list[str], np.ndarray]:
    """``nodes`` without repeats, and their indices in ``order``; KeyError if unknown."""
    names = list(dict.fromkeys(str(x) for x in nodes))
    for name in names:
        g._require(name)
    pos = {n: i for i, n in enumerate(order)}
    return names, np.array([pos[name] for name in names], dtype=np.int64)


def _chunks(n_sources: int, rows: int):
    """(lo, hi, words): sources lo..hi-1 take bits 0.. of ``words``-word rows, so
    that an array of ``rows`` such rows stays within BITSET_BYTES."""
    step = 64 * max(1, BITSET_BYTES // (8 * max(rows, 1)))
    for lo in range(0, n_sources, step):
        hi = min(lo + step, n_sources)
        yield lo, hi, (hi - lo + 63) // 64


def _bits(rows: int, words: int) -> tuple[np.ndarray, np.ndarray]:
    """A zero bit array of little-endian 64-bit words, and its byte view, in which
    bit j sits in byte j >> 3 at bit j & 7."""
    bits = np.zeros((rows, words), dtype="<u8")
    return bits, bits.view(np.uint8)


def _bit_counts(bits: np.ndarray, count: int) -> np.ndarray:
    """Rows of ``bits`` with bit j set, for j < ``count``; unpacked a block of
    rows at a time, each block within BITSET_BYTES."""
    octets = bits.view(np.uint8)
    step = max(1, BITSET_BYTES // (8 * octets.shape[1]))
    out = np.zeros(count, dtype=np.int64)
    for lo in range(0, len(octets), step):
        block = np.unpackbits(octets[lo:lo + step], axis=1, count=count, bitorder="little")
        out += block.sum(axis=0, dtype=np.int32)
    return out


def logged_followers(g: SocialGraph, nodes=None) -> dict[str, float]:
    """log10(1 + followers) of each of ``nodes`` (default: every node), the
    counts `power_difference` compares. A caller scoring many samples builds
    the table once per graph state: it is not kept on the mutable graph."""
    counts = g.followers_count
    return {n: np.log10(1.0 + counts[n]) for n in (counts if nodes is None else nodes)}


def power_difference(g: SocialGraph, node: str, mentioned: list[str],
                     logged: dict[str, float] | None = None) -> float:
    """log10(1 + followers(u)) minus the mean over mentioned accounts; 0 with none.

    Reconstructed convention: logged counts bound the magnitude regardless of
    account size. ``logged`` is ``logged_followers(g)``; without it the
    counts of ``node`` and the mentioned accounts are logged here.
    """
    g._require(node)
    known = [m for m in (str(x) for x in mentioned) if m in g.followers_count]
    if not known:
        return 0.0
    if logged is None:
        logged = logged_followers(g, [str(node), *known])
    values = [logged[m] for m in known]
    # below 8 values numpy's pairwise sum adds in sequence, so a plain sum
    # gives np.mean's bits at a tenth of its cost
    mean = sum(values) / len(values) if len(values) < 8 else np.mean(values)
    return float(logged[str(node)] - mean)


NF_FEATURE_NAMES = (
    "nf_followers",
    "nf_friends",
    "nf_follower_friend_ratio",
    "nf_reciprocity",
    "nf_power_difference",
    "nf_hub",
    "nf_authority",
    "nf_eigenvector",
    "nf_closeness",
    "nf_clustering",
)


def node_features(g: SocialGraph, node: str, mentioned: list[str] | None = None, *,
                  hub_auth: tuple[dict, dict], eigen: dict[str, float],
                  closeness: dict[str, float], clustering: dict[str, float]) -> list[float]:
    """The NF block for one node, given the graph's ``hits`` scores and
    eigenvector centralities, which are computed once per graph, and the
    node's ``closeness_scores`` and ``clustering_scores``, which are computed
    once for all the nodes that need them."""
    g._require(node)
    node = str(node)
    followers = float(g.followers_count[node])
    friends = float(g.friends_count[node])
    ratio = followers / friends if friends > 0 else 0.0
    return [
        followers,
        friends,
        ratio,
        reciprocity(g, node),
        power_difference(g, node, mentioned or []),
        hub_auth[0][node],
        hub_auth[1][node],
        eigen[node],
        closeness[node],
        clustering[node],
    ]
