"""(α,β)-core computation by cascading peel (Definition 1).

Each round aggregates per-side degrees and semi-joins the edge list with the
vertices that still meet their threshold; the fixpoint (no edge removed) is
the (α,β)-core. This is the bulk-synchronous analogue of the sequential
bucket peel the paper uses inside ``Q_o`` and the SCS feasibility checks.
"""
from __future__ import annotations

from collections.abc import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.schema import checkpoint, degrees


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


def abcore(edges: DataFrame, alpha: int, beta: int) -> DataFrame:
    """The (α,β)-core of ``edges`` as a (checkpointed) edge DataFrame.

    Returns an empty DataFrame with the same schema when the core is empty.
    """
    if alpha <= 1 and beta <= 1:
        # Every incident edge trivially satisfies (1,1); nothing to peel.
        return checkpoint(edges)

    def keep(cur: DataFrame) -> DataFrame:
        du, dv = degrees(cur)
        good_u = du.where(F.col("deg") >= alpha).select("u")
        good_v = dv.where(F.col("deg") >= beta).select("v")
        return cur.join(good_u, "u", "semi").join(good_v, "v", "semi")

    return peel_edges(edges, keep)
