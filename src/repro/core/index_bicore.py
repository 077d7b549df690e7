"""Bicore-index baseline ``I_v`` (Liu et al., WWW'19 [15]).

The bicore index answers "give me the *vertex set* of the (α,β)-core" in
optimal time but stores no edges, so the query ``Q_v`` must afterwards
re-scan the graph's edge list to materialise the community — the
extra-edge-touching cost the paper's ``I_δ`` eliminates.

Our analogue stores vertex offsets only, degeneracy-bounded like the
original (O(m)-ish): rows ``(kind, tau, side, id, off)`` where kind ``a``
holds ``s_a(·,τ) >= τ`` and kind ``b`` holds ``s_b(·,τ) > τ`` for
τ in [1, δ]. :func:`iv_slices` is the one place that rule and the δ-slice
offset peels live: ``I_δ`` is ``I_v`` joined onto the edge list on the
driver (``repro.core.index_delta``). Both indexes are read through
:func:`slice_of`. A build is one ``on_driver`` call: one checked collect,
δ from the collected rows unless given, the peels, and the rows back in
the shared index layout (``index_bs.index_on_driver``).
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.index_bs import index_on_driver
from repro.graph.components import Edge
from repro.graph.decomposition import core_peel, offset_peel
from repro.graph.schema import struct

_IV = struct("kind string, tau int, side string, id long, off int")


def slice_of(alpha: int, beta: int) -> tuple[str, int, int]:
    """The slice that serves an (α,β) query: ``(part, τ, bound)``.

    Part ``a`` at τ=α when α <= β, else part ``b`` at τ=β; the vertices of
    ``R_αβ`` are those of the slice with offset ``>= bound`` (the other of
    α, β). Every non-empty (α,β)-core has min(α,β) <= δ (Lemma 4)."""
    return ("a", alpha, beta) if alpha <= beta else ("b", beta, alpha)


def iv_slices(
    rows: list[Edge], delta_val: int | None
) -> list[tuple[str, Iterator[tuple[int, str, int, int]], Callable[[int], int]]]:
    """``I_v``'s two parts as ``(part, offsets, lo)``: the offset-peel rows
    ``(τ, side, id, off)`` for τ in [1, δ], and ``lo(τ)``, the least offset
    of a vertex in slice τ — τ for part ``a`` (``s_a(·,τ) >= τ``), τ+1 for
    part ``b`` (``s_b(·,τ) > τ``). δ comes from ``rows`` when
    ``delta_val`` is None."""
    d = delta_val
    if d is None:
        d = max((core for *_, core in core_peel(rows)), default=0)
    taus = range(1, d + 1)
    return [
        ("a", offset_peel(rows, taus, "u"), lambda t: t),
        ("b", offset_peel(rows, taus, "v"), lambda t: t + 1),
    ]


def build_iv(edges: DataFrame, *, delta_val: int | None = None) -> DataFrame:
    """Construct ``I_v`` (see module doc for schema), ordered by
    ``(kind, tau, side, id)``."""

    def kernel(rows: list[Edge]) -> list[tuple]:
        return sorted(
            (part, tau, side, i, off)
            for part, offsets, lo in iv_slices(rows, delta_val)
            for tau, side, i, off in offsets
            if off >= lo(tau)
        )

    return index_on_driver(edges, kernel, _IV)


def core_vertices(iv: DataFrame, alpha: int, beta: int) -> DataFrame:
    """``V(R_αβ)`` as ``(side, id)`` via the index (empty if min(α,β) > δ)."""
    part, tau, bound = slice_of(alpha, beta)
    return iv.where(
        (F.col("kind") == part) & (F.col("tau") == tau) & (F.col("off") >= bound)
    ).select("side", "id")
