"""Bicore-index baseline ``I_v`` (Liu et al., WWW'19 [15]).

The bicore index answers "give me the *vertex set* of the (α,β)-core" in
optimal time but stores no edges, so the query ``Q_v`` must afterwards
re-scan the graph's edge list to materialise the community — the
extra-edge-touching cost the paper's ``I_δ`` eliminates.

Our analogue stores vertex offsets only, degeneracy-bounded like the
original (O(m)-ish): rows ``(kind, tau, side, id, off)`` where kind ``a``
holds ``s_a(·,τ) >= τ`` and kind ``b`` holds ``s_b(·,τ) > τ`` for
τ in [1, δ]. This is the only place the δ-slice offset peels run:
``I_δ`` is ``I_v`` joined onto the edge list (``repro.core.index_delta``).
Both indexes are read through :func:`slice_of`.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.decomposition import alpha_offsets, beta_offsets, coreness, delta


def slice_of(alpha: int, beta: int) -> tuple[str, int, int]:
    """The slice that serves an (α,β) query: ``(part, τ, bound)``.

    Part ``a`` at τ=α when α <= β, else part ``b`` at τ=β; the vertices of
    ``R_αβ`` are those of the slice with offset ``>= bound`` (the other of
    α, β). Every non-empty (α,β)-core has min(α,β) <= δ (Lemma 4)."""
    return ("a", alpha, beta) if alpha <= beta else ("b", beta, alpha)


def build_iv(edges: DataFrame, *, delta_val: int | None = None) -> DataFrame:
    """Construct ``I_v`` (see module doc for schema)."""
    d = delta_val if delta_val is not None else delta(edges, coreness_df=coreness(edges))
    taus = range(1, d + 1)
    sa = alpha_offsets(edges, taus).where(F.col("off") >= F.col("alpha"))
    sb = beta_offsets(edges, taus).where(F.col("off") > F.col("beta"))
    part_a = sa.select(
        F.lit("a").alias("kind"), F.col("alpha").alias("tau"), "side", "id", "off"
    )
    part_b = sb.select(
        F.lit("b").alias("kind"), F.col("beta").alias("tau"), "side", "id", "off"
    )
    return part_a.unionByName(part_b)


def core_vertices(iv: DataFrame, alpha: int, beta: int) -> DataFrame:
    """``V(R_αβ)`` as ``(side, id)`` via the index (empty if min(α,β) > δ)."""
    part, tau, bound = slice_of(alpha, beta)
    return iv.where(
        (F.col("kind") == part) & (F.col("tau") == tau) & (F.col("off") >= bound)
    ).select("side", "id")
