"""Distributed bipartite-graph substrate.

Edge lists are Spark DataFrames with columns ``u`` (upper-layer id, long),
``v`` (lower-layer id, long) and ``w`` (edge weight, double). The two id
spaces are disjoint by column position. The (α,β)-core, the BFS, the
offset and coreness decompositions and every index build
(``repro.core.index_*``) reach the driver one way,
``components.on_driver``: one checked collect of their edge set, the
paper's sequential peel or a BFS on the driver, and the rows back in a
fixed schema. Spark filters, stores and reads the edge sets and indexes
around them.
"""
from repro.graph.schema import (  # noqa: F401
    EDGE_COLS,
    degrees,
    edges_df,
    graph_stats,
    has_vertex,
    normalize,
)
