"""Offset and coreness decomposition by the paper's sequential peels.

The α-offset ``s_a(x, α)`` (Definition 6) is the largest β with x in the
(α,β)-core; the β-offset ``s_b(x, β)`` is the largest α with x in the
(α,β)-core. The paper computes one slice of them by a bin-sort peel
(Alg. 1/3): hold one layer's bound at τ, raise the other layer's bound one
step at a time, and record for each vertex the last bound it survived.
Every edge is removed once, so a slice costs O(m) and the 2δ slices of
``I_δ`` cost O(δ·m) (Lemma 6). The k-core numbers (:func:`coreness`, whose
maximum is the degeneracy δ) come from the same peel with both bounds
raised together — Batagelj–Zaversnik's O(m) k-core algorithm.

Each entry point collects the edge list's ``(u, v)`` pairs once (one Spark
job), runs the pure-Python peel (:func:`offset_peel`, :func:`core_peel`)
on the driver and returns the result through ``createDataFrame`` with
non-null columns. The driver therefore holds the edge list and every
requested slice's offsets, which is fine at this repo's ≤ 25,000 edges
(``repro.datasets`` builds every graph in driver memory anyway).
"""
from __future__ import annotations

from collections.abc import Iterable

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.schema import degrees

_Vertex = tuple[str, int]  # (side, id)


def _graph(pairs: list[tuple[int, int]]) -> tuple[list[_Vertex], list[list[int]]]:
    """The edge list as dense adjacency lists: vertex ``x`` is ``keys[x]``
    and ``adj[x]`` lists its neighbours, one entry per edge."""
    index: dict[_Vertex, int] = {}
    adj: list[list[int]] = []
    for u, v in pairs:
        ends = []
        for key in (("u", u), ("v", v)):
            x = index.setdefault(key, len(adj))
            if x == len(adj):
                adj.append([])
            ends.append(x)
        a, b = ends
        adj[a].append(b)
        adj[b].append(a)
    return list(index), adj


def _peel(adj: list[list[int]], held: list[int]) -> list[int]:
    """Each vertex's last survived bound.

    A vertex ``x`` with ``held[x] > 0`` keeps the bound ``held[x]``; every
    other vertex has the rising bound ``b`` = 1, 2, .... A vertex leaves
    once its degree among the remaining vertices falls below its bound; one
    that leaves while the rising bound is ``b`` gets ``b - 1``. Rising
    vertices wait in bins by degree (degrees only fall, so a stale bin
    entry has already left); each edge is removed once, when its first
    endpoint leaves.
    """
    deg = [len(a) for a in adj]
    last: list[int | None] = [None] * len(adj)
    bins: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for x, d in enumerate(deg):
        if not held[x]:
            bins[d].append(x)
    leaving = []

    def leave(x: int, b: int) -> None:
        last[x] = b - 1
        leaving.append(x)

    for x, d in enumerate(deg):
        if held[x] and d < held[x]:
            leave(x, 1)
    for b in range(1, len(bins) + 1):
        for x in bins[b - 1]:
            if last[x] is None:
                leave(x, b)
        while leaving:
            for y in adj[leaving.pop()]:
                if last[y] is None:
                    deg[y] -= 1
                    if deg[y] < (held[y] or b):
                        leave(y, b)
                    elif not held[y]:
                        bins[deg[y]].append(y)
    return last


def offset_peel(
    pairs: list[tuple[int, int]], taus: Iterable[int], held: str
) -> list[tuple[int, str, int, int]]:
    """Rows ``(τ, side, id, off)`` for every vertex of the ``(u, v)`` edge
    list and every τ in ``taus`` (each at least 1), zero offsets included.

    ``held="u"`` holds the upper layer's bound at α=τ and raises β, which
    gives ``s_a(·, τ)``; ``held="v"`` holds β=τ and raises α, which gives
    ``s_b(·, τ)``.
    """
    keys, adj = _graph(pairs)
    rows = []
    for tau in taus:
        last = _peel(adj, [tau if side == held else 0 for side, _ in keys])
        rows += [(tau, side, i, off) for (side, i), off in zip(keys, last)]
    return rows


def core_peel(pairs: list[tuple[int, int]]) -> list[tuple[str, int, int]]:
    """Rows ``(side, id, core)``: the k-core number of every vertex of the
    ``(u, v)`` edge list viewed as unipartite."""
    keys, adj = _graph(pairs)
    last = _peel(adj, [0] * len(keys))
    return [(side, i, core) for (side, i), core in zip(keys, last)]


def _pairs(edges: DataFrame) -> list[tuple[int, int]]:
    """The edge list's ``(u, v)`` pairs on the driver (one Spark job)."""
    return [(int(u), int(v)) for u, v in edges.select("u", "v").collect()]


def _frame(edges: DataFrame, rows: list[tuple], schema: str) -> DataFrame:
    """``rows`` in the DDL ``schema``, through pandas and Arrow."""
    names = [field.split()[0] for field in schema.split(",")]
    return edges.sparkSession.createDataFrame(
        pd.DataFrame(rows, columns=names), schema
    )


def _offsets(
    edges: DataFrame, taus: Iterable[int], held: str, col: str
) -> DataFrame:
    tlist = sorted({int(t) for t in taus})
    rows = offset_peel(_pairs(edges), tlist, held) if tlist else []
    return _frame(
        edges, rows,
        f"{col} int not null, side string not null, id long not null, "
        "off int not null",
    )


def alpha_offsets(edges: DataFrame, alphas: Iterable[int]) -> DataFrame:
    """``s_a(x, α)`` for every vertex and every α in ``alphas``.

    Returns ``(alpha: int, side: 'u'|'v', id: long, off: int)`` including
    zero offsets (callers filter ``off >= 1`` for (α,1)-core membership).
    """
    return _offsets(edges, alphas, "u", "alpha")


def beta_offsets(edges: DataFrame, betas: Iterable[int]) -> DataFrame:
    """``s_b(x, β)`` for every vertex and every β in ``betas`` — symmetric to
    :func:`alpha_offsets`, returned as ``(beta, side, id, off)``."""
    return _offsets(edges, betas, "v", "beta")


def coreness(edges: DataFrame) -> DataFrame:
    """k-core number of every vertex of the graph viewed as unipartite.

    The (τ,τ)-core equals the k-core with k = τ, so this one peel yields
    the paper's degeneracy δ (= max coreness) and every (τ,τ)-core
    (vertices with coreness ≥ τ). Returns ``(side, id, core: int)``.
    """
    return _frame(
        edges, core_peel(_pairs(edges)),
        "side string not null, id long not null, core int not null",
    )


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
