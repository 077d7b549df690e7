"""(α,β)-core computation (Definition 1) from one α-offset slice.

A vertex x is in the (α,β)-core exactly when ``s_a(x, α) ≥ β``
(Definition 6), and the core is the subgraph induced by its vertices. So
``abcore`` collects the edge set once (``components.on_driver``, one
Spark job), runs the sequential offset peel of the single slice α on the
driver (``decomposition.offset_peel``, the peel the index builds use) and
keeps the edges whose two endpoints reach β. Like the paper's ``Q_o``, it
costs one O(m) peel, whatever the cascade depth.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.graph.components import Edge, ends, on_driver
from repro.graph.decomposition import offset_peel
from repro.graph.schema import EDGE_SCHEMA, check_query


def abcore(edges: DataFrame, alpha: int, beta: int) -> DataFrame:
    """The (α,β)-core of ``edges`` as an edge DataFrame with columns
    ``(u, v, w)`` in that order; empty (same schema) when the core is.

    Raises ``ValueError`` for α < 1 or β < 1, and for the input
    ``components.collect_edges`` rejects.
    """
    check_query("u", alpha, beta)

    def core(rows: list[Edge]) -> list[Edge]:
        off = {(side, i): s for _, side, i, s in offset_peel(rows, [alpha], "u")}
        return [e for e in rows if min(off[x] for x in ends(e)) >= beta]

    return on_driver(edges, core, EDGE_SCHEMA)
