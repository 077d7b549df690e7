"""Degeneracy-bounded index ``I_δ`` (paper Section III-B, Alg. 3).

Two parts, each with slices τ in [1, δ]:

* side ``a`` (for queries with α <= β, i.e. min(α,β) = α = τ): edges of the
  (τ,τ)-core whose endpoints both have α-offset ``s_a(·,τ) >= τ``;
* side ``b`` (for queries with β < α, τ = β): edges whose endpoints both
  have β-offset ``s_b(·,τ) > τ`` (strict, mirroring the paper's bound — a
  query on this side always filters ``>= α > τ``).

Those endpoint sets are exactly the slices of the bicore index ``I_v``, so
``I_δ = I_v ⋈ E``: each edge of a slice carries both endpoints' offsets from
``I_v``. Rows are ``(side, tau, u, v, w, off_u, off_v)``. Since every
non-empty (α,β)-core has min(α,β) <= δ (Lemma 4), these 2δ slices cover
every (α,β)-community; each slice is O(size(R_ττ)) so the index is O(δ·m)
(Lemma 5), built from ``I_v``'s 2δ offset peels (Lemma 6's O(δ·m) bound).
The join runs once, in :func:`build_idelta`, which returns the index
materialised: saving it or querying it in memory reads those rows.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.index_bicore import build_iv, slice_of
from repro.core.index_bs import _annotate
from repro.graph.schema import checkpoint


def build_idelta(edges: DataFrame, *, delta_val: int | None = None) -> DataFrame:
    """Construct ``I_δ`` as a single materialised DataFrame (see module
    doc for schema)."""
    iv = build_iv(edges, delta_val=delta_val)
    # One join per part: annotating both parts in one join wrote up to twice
    # the Parquet files of a saved index.
    side_a, side_b = (
        _annotate(edges, iv.where(F.col("kind") == part), ["kind", "tau"])
        for part in ("a", "b")
    )
    return checkpoint(side_a.unionByName(side_b).withColumnRenamed("kind", "side"))


def core_edges(idelta: DataFrame, alpha: int, beta: int) -> DataFrame:
    """``E(R_αβ)`` as rows of ``I_δ``: one slice, one offset filter (empty
    if min(α,β) > δ)."""
    part, tau, bound = slice_of(alpha, beta)
    return idelta.where(
        (F.col("side") == part)
        & (F.col("tau") == tau)
        & (F.col("off_u") >= bound)
        & (F.col("off_v") >= bound)
    )
