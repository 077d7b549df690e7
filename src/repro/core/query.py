"""(α,β)-community retrieval: ``Q_o``, ``Q_v``, ``Q_bs``, ``Q_opt``.

All four return the edge DataFrame of ``C_αβ(q)`` with columns ``(u, v, w)``
in that order (empty when q is outside the (α,β)-core). They differ in what
they must touch:

* ``q_online`` (Q_o, Ding et al. [16]) — no index: peel the whole graph to
  the (α,β)-core (``abcore``), then BFS from q. Per-query cost ∝ m.
* ``q_bicore`` (Q_v over I_v, Liu et al. [15]) — index gives the core's
  *vertex set*; the community's edges must be recovered by semi-joining the
  full edge list in Spark (touches all of E once), then BFS from q.
* ``q_bs`` (over I_bs^α / I_bs^β) — filter the α partition by
  ``off >= β`` (α <= β) or the β partition by ``off >= α``, BFS from q.
  Optimal per the paper, but the index behind it is O(α_max·m).
* ``q_opt`` (Q_opt over I_δ) — pick side by min(α,β), filter one τ
  partition, BFS from q. Optimal with an O(δ·m) index.

Every BFS is ``component_of``: one collect, then a walk on the driver.

Each rejects α < 1, β < 1 and a side other than ``u``/``v`` with
``ValueError`` before it touches Spark.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.index_bicore import core_vertices, slice_of
from repro.core.index_delta import core_edges
from repro.graph.components import component_of
from repro.graph.peel import abcore
from repro.graph.schema import check_query


def q_online(
    edges: DataFrame, q: int, qside: str, alpha: int, beta: int
) -> DataFrame:
    """Index-free online retrieval: full-graph peel, then BFS."""
    check_query(qside, alpha, beta)
    return component_of(abcore(edges, alpha, beta), q, qside)


def q_bicore(
    iv: DataFrame, edges: DataFrame, q: int, qside: str, alpha: int, beta: int
) -> DataFrame:
    """Bicore-index retrieval: vertex set from I_v, edges from the graph."""
    check_query(qside, alpha, beta)
    verts = core_vertices(iv, alpha, beta)
    keep_u = verts.where(F.col("side") == "u").select(F.col("id").alias("u"))
    keep_v = verts.where(F.col("side") == "v").select(F.col("id").alias("v"))
    sub = edges.join(keep_u, "u", "semi").join(keep_v, "v", "semi")
    return component_of(sub, q, qside)


def q_bs(
    ibs_alpha: DataFrame,
    ibs_beta: DataFrame,
    q: int,
    qside: str,
    alpha: int,
    beta: int,
) -> DataFrame:
    """Retrieval over the basic indexes. Like ``q_opt``, read the slice of
    the smaller of α, β (the α part when α <= β); when that part lacks the
    slice (a capped build), read the other part's slice instead. Raises
    ``ValueError`` when neither part holds its slice: both builds were
    capped below the query, or both α and β exceed their side's maximum
    (the (α,β)-core is empty)."""
    check_query(qside, alpha, beta)
    parts = [(ibs_alpha, "alpha", alpha, beta), (ibs_beta, "beta", beta, alpha)]
    if slice_of(alpha, beta)[0] == "b":
        parts.reverse()
    for idx, col, s, lo in parts:
        sl = idx.where(F.col(col) == s)
        if sl.limit(1).count():
            sub = sl.where((F.col("off_u") >= lo) & (F.col("off_v") >= lo))
            return component_of(sub.select("u", "v", "w"), q, qside)
    raise ValueError(
        f"neither I_bs part holds the slice of ({alpha},{beta}): both builds "
        "were capped below it, or the (α,β)-core is empty"
    )


def q_opt(
    idelta: DataFrame, q: int, qside: str, alpha: int, beta: int
) -> DataFrame:
    """Retrieval over I_δ: one τ partition, one offset filter, BFS."""
    check_query(qside, alpha, beta)
    sub = core_edges(idelta, alpha, beta).select("u", "v", "w")
    return component_of(sub, q, qside)
