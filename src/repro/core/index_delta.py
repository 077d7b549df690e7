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
:func:`build_idelta` is one ``on_driver`` call: one checked collect, then
on the driver ``I_v``'s slices (``index_bicore.iv_slices``) joined onto the
collected edges by ``index_bs.annotate``, returned materialised in the
shared index layout.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.index_bicore import iv_slices, slice_of
from repro.core.index_bs import annotate, index_on_driver
from repro.graph.components import Edge
from repro.graph.schema import struct

_IDELTA = struct(
    "side string, tau int, u long, v long, w double, off_u int, off_v int"
)


def build_idelta(edges: DataFrame, *, delta_val: int | None = None) -> DataFrame:
    """Construct ``I_δ`` as a single materialised DataFrame (see module
    doc for schema), ordered by ``(side, tau, v, u)``."""

    def kernel(rows: list[Edge]) -> list[tuple]:
        return [
            (part, *row)
            for part, offsets, lo in iv_slices(rows, delta_val)
            for row in annotate(rows, offsets, lo)
        ]

    return index_on_driver(edges, kernel, _IDELTA)


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
