"""Distributed bipartite-graph substrate.

Edge lists are Spark DataFrames with columns ``u`` (upper-layer id, long),
``v`` (lower-layer id, long) and ``w`` (edge weight, double). The two id
spaces are disjoint by column position. The peel and BFS are bulk
DataFrame operations (aggregations + joins), iterated to a fixpoint with
``localCheckpoint`` to keep lineage bounded; the offset and coreness
decompositions collect the edge list once and peel it on the driver.
"""
from repro.graph.schema import (  # noqa: F401
    EDGE_COLS,
    degrees,
    edges_df,
    graph_stats,
    has_vertex,
    normalize,
)
