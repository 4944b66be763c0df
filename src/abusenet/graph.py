"""Social-graph metrics from a follower edge list.

The graph is directed with edges follower -> followed. Nodes carry platform
follower/friend counts (which are not the same as graph degrees: the crawled
edge list is usually a small neighborhood of the real network).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .text import FormatError, ParseError


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
                self._out[n] = set()
                self._in[n] = set()
                self.followers_count.setdefault(n, 0)
                self.friends_count.setdefault(n, 0)
        self._out[src].add(dst)  # duplicates collapse
        self._in[dst].add(src)

    @classmethod
    def from_files(cls, edge_path, attr_path=None) -> "SocialGraph":
        """Edge file: "src dst" per line; attribute file: "node followers friends";
        blank and ``#`` lines are skipped. A malformed line is a ParseError naming
        the file and line, a graph with no nodes a FormatError naming the edge file."""
        g = cls()
        if attr_path is not None:
            _read_lines(attr_path, "attribute file", "node followers friends", g.add_node)
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

    def adjacency(self) -> tuple[np.ndarray, list[str]]:
        """Dense 0/1 matrix A with A[i, j] = 1 for edge nodes[i] -> nodes[j]."""
        order = self.nodes()
        pos = {n: i for i, n in enumerate(order)}
        a = np.zeros((len(order), len(order)), dtype=np.float64)
        for src, dsts in self._out.items():
            for dst in dsts:
                a[pos[src], pos[dst]] = 1.0
        return a, order


def _read_lines(path, kind: str, form: str, add) -> None:
    """Call ``add`` with each line's fields, which must be those ``form`` names."""
    width = len(form.split())
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


def closeness(g: SocialGraph, node: str) -> float:
    """Out-reachability closeness with the Wasserman-Faust correction.

    With r nodes reachable from u (excluding u) at total BFS distance s over
    n nodes: (r / s) * (r / (n - 1)); 0 when nothing is reachable.
    """
    g._require(node)
    node = str(node)
    out = g._out  # neighbours are nodes of g: no per-step _require
    dist = {node: 0}
    queue = deque([node])
    while queue:
        cur = queue.popleft()
        for nxt in out[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    reachable = len(dist) - 1
    if reachable == 0 or len(g) < 2:
        return 0.0
    total = sum(dist.values())
    return (reachable / total) * (reachable / (len(g) - 1))


def clustering_coefficient(g: SocialGraph, node: str) -> float:
    """Local clustering on the undirected projection; 0 below degree 2."""
    g._require(node)
    node = str(node)
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


def power_difference(g: SocialGraph, node: str, mentioned: list[str]) -> float:
    """log10(1 + followers(u)) minus the mean over mentioned accounts; 0 with none.

    Reconstructed convention: logged counts bound the magnitude regardless of
    account size.
    """
    g._require(node)
    known = [m for m in (str(x) for x in mentioned) if m in g.followers_count]
    if not known:
        return 0.0
    own = np.log10(1.0 + g.followers_count[str(node)])
    others = np.mean([np.log10(1.0 + g.followers_count[m]) for m in known])
    return float(own - others)


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
                  hub_auth: tuple[dict, dict], eigen: dict[str, float]) -> list[float]:
    """The NF block for one node, given the graph's ``hits`` scores and
    eigenvector centralities, which are computed once per graph."""
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
        closeness(g, node),
        clustering_coefficient(g, node),
    ]
