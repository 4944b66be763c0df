"""Social-graph metrics on a toy follower network.

Run:  python3 demos/04_graph_metrics.py
"""

from abusenet.graph import (
    SocialGraph,
    closeness_scores,
    clustering_scores,
    eigenvector_centrality,
    hits,
    power_difference,
    reciprocity,
)

# edges point follower -> followed
g = SocialGraph()
g.add_node("alice", followers=950, friends=120)
g.add_node("bob", followers=48, friends=200)
g.add_node("cara", followers=3100, friends=80)
g.add_node("dan", followers=12, friends=300)
for src, dst in [("bob", "alice"), ("alice", "bob"), ("dan", "alice"),
                 ("dan", "cara"), ("bob", "cara"), ("alice", "cara")]:
    g.add_edge(src, dst)

hub, auth = hits(g)
eigen = eigenvector_centrality(g)
close = closeness_scores(g, g.nodes())
clust = clustering_scores(g, g.nodes())
print(f"{'node':>6} {'recip':>6} {'hub':>6} {'auth':>6} {'eigen':>6} {'close':>6} {'clust':>6}")
for node in g.nodes():
    print(f"{node:>6} {reciprocity(g, node):6.3f} {hub[node]:6.3f} {auth[node]:6.3f} "
          f"{eigen[node]:6.3f} {close[node]:6.3f} {clust[node]:6.3f}")

print("\npower difference of alice vs her mentions [bob, dan]:",
      round(power_difference(g, "alice", ["bob", "dan"]), 3))
