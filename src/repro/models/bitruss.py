"""Butterfly counting and k-bitruss decomposition (paper refs [17, 18]).

A butterfly is a 2x2 biclique; the support of edge (u, v) is the number of
butterflies containing it:

    support(u, v) = Σ_{u' ∈ N(v) \\ {u}} ( |N(u) ∩ N(u')| - 1 ).

``butterfly_support`` is that formula as a dataflow: a self-join on ``v``
yields wedge endpoints, aggregated into common-neighbour pair counts
``P(u, u')``; a second wedge join sums ``P - 1`` per edge.

The k-bitruss is the maximal subgraph in which every edge has support
>= k. ``k_bitruss`` and ``bitruss_community`` reach it in one
``components.on_driver`` call (one Spark job, the checked collect), with
the bottom-up peel of the bitruss decomposition (refs [17, 18]) on the
driver: ``bitruss_peel`` counts each edge's support from the same wedge
counts once, then removes the edges below k with a stack, and each
removal takes one butterfly from the other three edges of every
butterfly the removed edge was still part of.
"""
from __future__ import annotations

from collections import defaultdict

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.components import Edge, component, incidence, on_driver
from repro.graph.schema import EDGE_SCHEMA


def butterfly_support(edges: DataFrame) -> DataFrame:
    """Per-edge butterfly count ``(u, v, support)`` (0-support edges included)."""
    e = edges.select("u", "v")
    e2 = e.select(F.col("u").alias("u2"), "v")
    wedges = e.join(e2, "v").where(F.col("u") != F.col("u2"))
    pair_counts = wedges.groupBy("u", "u2").agg(F.count(F.lit(1)).alias("cn"))
    sup = (
        wedges.join(pair_counts, ["u", "u2"])
        .groupBy("u", "v")
        .agg(F.sum(F.col("cn") - 1).alias("support"))
    )
    return e.join(sup, ["u", "v"], "left").select(
        "u", "v", F.coalesce(F.col("support"), F.lit(0)).cast("long").alias("support")
    )


def butterfly_count(edges: DataFrame) -> int:
    """Total butterflies in the graph (each counted once)."""
    total = butterfly_support(edges).agg(F.sum("support")).first()[0] or 0
    assert total % 4 == 0
    return int(total) // 4


def bitruss_peel(rows: list[Edge], k: int) -> list[Edge]:
    """The edges of ``rows`` (no ``(u, v)`` pair twice) in its k-bitruss,
    in input order.

    Each edge leaves once, so the peel ends after at most ``len(rows)``
    removals.
    """
    nu: dict[int, dict[int, int]] = defaultdict(dict)  # u -> {v: edge}
    nv: dict[int, dict[int, int]] = defaultdict(dict)  # v -> {u: edge}
    for i, (u, v, _) in enumerate(rows):
        nu[u][v] = i
        nv[v][u] = i
    common: dict[tuple[int, int], int] = defaultdict(int)  # |N(u) ∩ N(u')|
    for us in nv.values():
        for a in us:
            for b in us:
                if a != b:
                    common[a, b] += 1
    support = [
        sum(common[u, u2] - 1 for u2 in nv[v] if u2 != u) for u, v, _ in rows
    ]
    gone = [s < k for s in support]
    stack = [i for i, out in enumerate(gone) if out]
    while stack:
        u, v, _ = rows[stack.pop()]
        del nu[u][v], nv[v][u]
        # every butterfly (u, v, u2, v2) whose three other edges are left
        for u2, j in nv[v].items():
            for v2, l in nu[u2].items():
                m = nu[u].get(v2)
                if m is None:
                    continue
                for x in (j, l, m):
                    support[x] -= 1
                    if support[x] < k and not gone[x]:
                        gone[x] = True
                        stack.append(x)
    return [e for e, out in zip(rows, gone) if not out]


def k_bitruss(edges: DataFrame, k: int) -> DataFrame:
    """Maximal subgraph where every edge lies in >= k butterflies, as
    columns ``(u, v, w)``.

    Raises ``ValueError`` for the input ``components.collect_edges``
    rejects (a duplicate ``(u, v)`` pair, a non-finite weight).
    """
    return on_driver(edges, lambda rows: bitruss_peel(rows, k), EDGE_SCHEMA)


def bitruss_community(
    edges: DataFrame, q: int, qside: str, k: int
) -> DataFrame:
    """Connected component of q in the k-bitruss (the Table II protocol),
    as columns ``(u, v, w)``; empty when q has no edge there. Raises like
    ``k_bitruss``."""

    def community(rows: list[Edge]) -> list[Edge]:
        kept = bitruss_peel(rows, k)
        return component(kept, incidence(kept), (qside, q))

    return on_driver(edges, community, EDGE_SCHEMA)
