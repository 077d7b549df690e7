"""Butterfly counting and k-bitruss decomposition (paper refs [17, 18]).

A butterfly is a 2x2 biclique; the support of edge (u, v) is the number of
butterflies containing it:

    support(u, v) = Σ_{u' ∈ N(v) \\ {u}} ( |N(u) ∩ N(u')| - 1 ).

Dataflow: a self-join on ``v`` yields wedge endpoints, aggregated into
common-neighbour pair counts ``P(u, u')``; a second wedge join sums
``P - 1`` per edge. The k-bitruss is the fixpoint of removing edges with
support < k, run by the Spark fixpoint ``peel_edges`` (support recomputed
from scratch per round — the cascades are shallow at reproduction scale).
"""
from __future__ import annotations

from collections.abc import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.components import component_of
from repro.graph.schema import checkpoint


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


def peel_edges(edges: DataFrame, keep: Callable[[DataFrame], DataFrame]) -> DataFrame:
    """Apply ``keep`` (a semi-join of its input) until no edge is removed;
    the result is checkpointed.

    Stops: the edge count strictly drops each round or the loop returns.
    """
    cur = checkpoint(edges)
    n = cur.count()
    while n:
        nxt = checkpoint(keep(cur))
        n2 = nxt.count()
        if n2 == n:
            return nxt
        cur, n = nxt, n2
    return cur


def k_bitruss(edges: DataFrame, k: int) -> DataFrame:
    """Maximal subgraph where every edge lies in >= k butterflies."""
    if k <= 0:
        return edges

    def keep(cur: DataFrame) -> DataFrame:
        good = butterfly_support(cur).where(F.col("support") >= k).select("u", "v")
        return cur.join(good, ["u", "v"], "semi")

    return peel_edges(edges, keep)


def bitruss_community(
    edges: DataFrame, q: int, qside: str, k: int
) -> DataFrame:
    """Connected component of q in the k-bitruss (the Table II protocol)."""
    return component_of(k_bitruss(edges, k), q, qside)
