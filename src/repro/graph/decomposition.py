"""Offset and coreness decomposition via monotone h-index fixpoints.

The sequential paper computes α-offsets ``s_a(x, α)`` (Definition 6: the
largest β with x in the (α,β)-core) by bin-sort peeling once per α. The
distributed reformulation used here is a *greatest-fixpoint iteration*
(the bipartite, fixed-α generalization of the distributed k-core
decomposition of Montresor et al. / the h-index iteration of Lü et al.):

    val(v ∈ L) = h-index of { val(u) : u ∈ N(v) }
    val(u ∈ U) = 0 if deg(u) < α else the α-th largest of { val(v) : v ∈ N(u) }

started from degree upper bounds. Correctness sketch (verified against the
sequential reference in tests):

* the true offsets are a fixpoint — if s_a(v,α) were smaller than the
  h-index of its neighbours' offsets, v would have ≥ s_a+1 neighbours inside
  the (α, s_a+1)-core and could be added to it, contradicting maximality
  (and symmetrically for the α-th-largest rule on U);
* any fixpoint is ≤ the true offsets — the vertices with value ≥ β induce a
  subgraph meeting the (α,β) degree constraints, hence lie in the (α,β)-core;
* the iteration is monotone non-increasing from the upper bounds, so it
  converges to the greatest fixpoint, which by the two points above equals
  the true offsets.

Every requested α slice is computed in a *single* fixpoint by crossing the
edge list with the α range and grouping by ``(alpha, vertex)`` — index
construction is then a handful of Spark jobs instead of α_max sequential
peels.
"""
from __future__ import annotations

from collections.abc import Iterable

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.graph.schema import adjacency, checkpoint, degrees


def _hindex(vals: Column) -> Column:
    """h-index of an array column: max h with at least h elements >= h."""
    arr = F.sort_array(vals, asc=False)
    flags = F.zip_with(
        arr, F.sequence(F.lit(1), F.size(arr)), lambda x, i: x >= i
    )
    return F.size(F.filter(flags, lambda b: b))


def _kth_largest(vals: Column, k: Column) -> Column:
    """k-th largest element of an array column, 0 when fewer than k items."""
    arr = F.sort_array(vals, asc=False)
    return F.coalesce(F.get(arr, k - F.lit(1)), F.lit(0))


def alpha_offsets(edges: DataFrame, alphas: Iterable[int]) -> DataFrame:
    """``s_a(x, α)`` for every vertex and every α in ``alphas``.

    Returns ``(alpha: int, side: 'u'|'v', id: long, off: int)`` including
    zero offsets (callers filter ``off >= 1`` for (α,1)-core membership).
    """
    return _offsets_fixpoint(edges, alphas, swap=False)


def beta_offsets(edges: DataFrame, betas: Iterable[int]) -> DataFrame:
    """``s_b(x, β)`` for every vertex and every β in ``betas`` — symmetric to
    :func:`alpha_offsets`, returned as ``(beta, side, id, off)``."""
    swapped = edges.select(
        F.col("v").alias("u"), F.col("u").alias("v"), "w"
    )
    out = _offsets_fixpoint(swapped, betas, swap=True)
    return out.withColumnRenamed("alpha", "beta")


def _offsets_fixpoint(
    edges: DataFrame, alphas: Iterable[int], *, swap: bool
) -> DataFrame:
    """Shared fixpoint engine. With ``swap=True`` the caller has exchanged
    the layers, so output sides are flipped back before returning.

    Stops: values only fall (``least``), so their sum, a non-negative
    integer, drops every sweep until it stays equal, where the loop returns.
    """
    spark = edges.sparkSession
    alist = sorted({int(a) for a in alphas})
    if not alist:
        return spark.createDataFrame([], "alpha int, side string, id long, off int")
    alphas_df = spark.createDataFrame([(a,) for a in alist], "alpha int")
    du, dv = degrees(edges)
    ea = checkpoint(edges.select("u", "v").crossJoin(alphas_df))

    # Upper bounds: L side starts at its degree; U side at the α-th largest
    # neighbour degree, gated by deg(u) >= α (one operator application).
    vals_v = checkpoint(
        dv.crossJoin(alphas_df).select(
            "alpha", "v", F.col("deg").cast("int").alias("val")
        )
    )
    vals_u = checkpoint(_update_u(ea, vals_v, du, prev=None))

    prev_total = None
    while True:
        vals_v = checkpoint(_update_v(ea, vals_u, prev=vals_v))
        vals_u = checkpoint(_update_u(ea, vals_v, du, prev=vals_u))
        total = (
            vals_u.agg(F.sum("val")).first()[0] or 0
        ) + (vals_v.agg(F.sum("val")).first()[0] or 0)
        if total == prev_total:
            u_side, v_side = ("v", "u") if swap else ("u", "v")
            out_u = vals_u.select(
                "alpha", F.lit(u_side).alias("side"),
                F.col("u").alias("id"), F.col("val").alias("off"),
            )
            out_v = vals_v.select(
                "alpha", F.lit(v_side).alias("side"),
                F.col("v").alias("id"), F.col("val").alias("off"),
            )
            return out_u.unionByName(out_v)
        prev_total = total


def _update_v(ea: DataFrame, vals_u: DataFrame, *, prev: DataFrame) -> DataFrame:
    """L-side sweep: h-index of neighbour U values, clamped non-increasing."""
    agg = (
        ea.join(vals_u, ["alpha", "u"])
        .groupBy("alpha", "v")
        .agg(_hindex(F.collect_list("val")).alias("nval"))
    )
    return agg.join(prev, ["alpha", "v"]).select(
        "alpha", "v", F.least("nval", "val").alias("val")
    )


def _update_u(
    ea: DataFrame, vals_v: DataFrame, du: DataFrame, *, prev: DataFrame | None
) -> DataFrame:
    """U-side sweep: α-th largest neighbour L value, 0 when deg(u) < α."""
    agg = (
        ea.join(vals_v, ["alpha", "v"])
        .groupBy("alpha", "u")
        .agg(_kth_largest(F.collect_list("val"), F.col("alpha")).alias("nval"))
    )
    gated = agg.join(du, "u").select(
        "alpha",
        "u",
        F.when(F.col("deg") >= F.col("alpha"), F.col("nval"))
        .otherwise(F.lit(0))
        .cast("int")
        .alias("nval"),
    )
    if prev is None:
        return gated.withColumnRenamed("nval", "val")
    return gated.join(prev, ["alpha", "u"]).select(
        "alpha", "u", F.least("nval", "val").alias("val")
    )


def coreness(edges: DataFrame) -> DataFrame:
    """k-core number of every vertex of the graph viewed as unipartite.

    The (τ,τ)-core equals the k-core with k = τ, so this single fixpoint
    yields the paper's degeneracy δ (= max coreness) and every (τ,τ)-core
    (vertices with coreness ≥ τ). Returns ``(side, id, core: int)``.

    Stops: values only fall (``least``), so their sum, a non-negative
    integer, drops every sweep until it stays equal, where the loop returns.
    """
    adj = checkpoint(adjacency(edges))
    vals = checkpoint(
        adj.groupBy("xs", "xi").agg(F.count(F.lit(1)).cast("int").alias("val"))
    )
    prev_total = None
    while True:
        nbr = adj.join(
            vals.select(
                F.col("xs").alias("ys"), F.col("xi").alias("yi"), "val"
            ),
            ["ys", "yi"],
        )
        agg = nbr.groupBy("xs", "xi").agg(
            _hindex(F.collect_list("val")).alias("nval")
        )
        vals = checkpoint(
            agg.join(vals, ["xs", "xi"]).select(
                "xs", "xi", F.least("nval", "val").alias("val")
            )
        )
        total = vals.agg(F.sum("val")).first()[0] or 0
        if total == prev_total:
            return vals.select(
                F.col("xs").alias("side"),
                F.col("xi").alias("id"),
                F.col("val").alias("core"),
            )
        prev_total = total


def delta(edges: DataFrame, *, coreness_df: DataFrame | None = None) -> int:
    """Degeneracy δ (Definition 7). 0 for an empty graph."""
    c = coreness_df if coreness_df is not None else coreness(edges)
    row = c.agg(F.max("core")).first()
    return int(row[0]) if row[0] is not None else 0


def alpha_max(edges: DataFrame) -> int:
    """Largest α with a non-empty (α,1)-core: the max upper-layer degree
    (β=1 removals never cascade back into the upper layer)."""
    du, _ = degrees(edges)
    row = du.agg(F.max("deg")).first()
    return int(row[0]) if row[0] is not None else 0


def beta_max(edges: DataFrame) -> int:
    """Largest β with a non-empty (1,β)-core: the max lower-layer degree."""
    _, dv = degrees(edges)
    row = dv.agg(F.max("deg")).first()
    return int(row[0]) if row[0] is not None else 0


def tau_tau_core(edges: DataFrame, coreness_df: DataFrame, tau: int) -> DataFrame:
    """Edge set of the (τ,τ)-core ``R_ττ``: edges whose endpoints both have
    coreness ≥ τ (the k-core is vertex-induced)."""
    keep_u = coreness_df.where(
        (F.col("side") == "u") & (F.col("core") >= tau)
    ).select(F.col("id").alias("u"))
    keep_v = coreness_df.where(
        (F.col("side") == "v") & (F.col("core") >= tau)
    ).select(F.col("id").alias("v"))
    return edges.join(keep_u, "u", "semi").join(keep_v, "v", "semi")
