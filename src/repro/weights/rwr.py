"""Random-walk-with-restart relevance weights (paper ref [23], Table III RW).

The paper generates weights for unweighted datasets with the random walk
with restart model. Running a separate walk per source vertex is O(n·m);
DESIGN.md §4 substitutes the closest bulk equivalent: a global
degree-normalized relevance (PageRank-style power iteration with restart
probability ``1 - DAMPING``) over the bipartite graph, with the weight of an
edge derived from its endpoints' stationary relevances. What Table III's RW
row exercises — weights *correlated with graph structure*, as opposed to the
independent UF/SK draws — is preserved.

Implemented as an iterative DataFrame computation: one join + aggregation
per power-iteration step.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.schema import adjacency, checkpoint, degrees

DAMPING = 0.85
ITERS = 12  # power-iteration steps


def rwr_scores(edges: DataFrame) -> DataFrame:
    """Stationary relevance score per vertex: ``(side, id, score)``."""
    du, dv = degrees(edges)
    verts = du.select(
        F.lit("u").alias("side"), F.col("u").alias("id"),
        F.col("deg").alias("deg"),
    ).unionByName(
        dv.select(
            F.lit("v").alias("side"), F.col("v").alias("id"),
            F.col("deg").alias("deg"),
        )
    )
    verts = checkpoint(verts)
    n = verts.count()
    restart = (1.0 - DAMPING) / n
    scores = verts.select("side", "id", "deg", F.lit(1.0 / n).alias("score"))

    adj = checkpoint(adjacency(edges))
    for _ in range(ITERS):
        outflow = adj.join(
            scores.select(
                F.col("side").alias("xs"), F.col("id").alias("xi"),
                (F.col("score") / F.col("deg")).alias("contrib"),
            ),
            ["xs", "xi"],
        )
        inflow = outflow.groupBy(
            F.col("ys").alias("side"), F.col("yi").alias("id")
        ).agg(F.sum("contrib").alias("inflow"))
        scores = checkpoint(
            verts.join(inflow, ["side", "id"], "left").select(
                "side", "id", "deg",
                (
                    F.lit(restart)
                    + F.lit(DAMPING) * F.coalesce(F.col("inflow"), F.lit(0.0))
                ).alias("score"),
            )
        )
    return scores.select("side", "id", "score")


def rwr_weights(edges: DataFrame) -> DataFrame:
    """Replace ``w`` with structure-derived weights in (0, 1].

    ``w(u, v)`` is the min-max-normalized sum of the endpoints' relevance
    scores, so edges between globally central vertices get large weights.
    """
    s = rwr_scores(edges)
    su = s.where(F.col("side") == "u").select(
        F.col("id").alias("u"), F.col("score").alias("su")
    )
    sv = s.where(F.col("side") == "v").select(
        F.col("id").alias("v"), F.col("score").alias("sv")
    )
    joined = edges.join(su, "u").join(sv, "v").withColumn(
        "raw", F.col("su") + F.col("sv")
    )
    lo, hi = joined.agg(F.min("raw"), F.max("raw")).first()
    if hi == lo:
        return joined.select("u", "v", F.lit(1.0).alias("w"))
    return joined.select(
        "u",
        "v",
        ((F.col("raw") - F.lit(lo)) / F.lit(hi - lo) * 0.999 + 0.001).alias("w"),
    )
