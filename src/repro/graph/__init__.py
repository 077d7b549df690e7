"""Distributed bipartite-graph substrate.

Edge lists are Spark DataFrames with columns ``u`` (upper-layer id, long),
``v`` (lower-layer id, long) and ``w`` (edge weight, double). The two id
spaces are disjoint by column position. The (α,β)-core, the BFS and the
offset and coreness decompositions each collect their edge set once and
run the paper's sequential peel or a BFS on the driver; Spark filters,
joins and stores the edge sets and indexes around them.
"""
from repro.graph.schema import (  # noqa: F401
    EDGE_COLS,
    degrees,
    edges_df,
    graph_stats,
    has_vertex,
    normalize,
)
