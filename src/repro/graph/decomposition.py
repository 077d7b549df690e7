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

The peels (:func:`offset_peel`, :func:`core_peel`) are pure Python over
edge rows. Each Spark entry point is one ``components.on_driver`` call:
the library's one checked collect of the edge list (one Spark job; a
duplicate ``(u, v)`` pair or a non-finite weight raises ``ValueError``),
the peel on the driver, and its rows back as non-null columns. The index
builds (``repro.core.index_*``) run these peels inside their own
``on_driver`` call. The driver therefore holds the edge list and every
requested slice's offsets, which is fine at this repo's ≤ 25,000 edges
(``repro.datasets`` builds every graph in driver memory anyway).

The scalar statistics come from rows already on the driver, with no Spark
job after the collect: :func:`delta` is the largest ``core`` in the rows
of :func:`coreness` (a local relation, so reading it runs no job), and
:func:`alpha_max` / :func:`beta_max` are the largest degree of one layer
in the collected edge rows (:func:`max_degree`, which the ``I_bs`` builds
also use).
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from pyspark.sql import DataFrame

from repro.graph.components import Edge, Vertex, collect_edges, on_driver
from repro.graph.schema import struct


def _graph(edges: Iterable[tuple]) -> tuple[list[Vertex], list[list[int]]]:
    """The ``(u, v, ...)`` edge rows as dense adjacency lists: vertex ``x``
    is ``keys[x]`` and ``adj[x]`` lists its neighbours, one entry per edge."""
    index: dict[Vertex, int] = {}
    adj: list[list[int]] = []
    for u, v, *_ in edges:
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
    edges: Iterable[tuple], taus: Iterable[int], held: str
) -> Iterator[tuple[int, str, int, int]]:
    """Rows ``(τ, side, id, off)`` for every vertex of the ``(u, v, ...)``
    edge rows and every τ in ``taus`` (each at least 1), zero offsets
    included, one τ after another in the order of ``taus``.

    ``held="u"`` holds the upper layer's bound at α=τ and raises β, which
    gives ``s_a(·, τ)``; ``held="v"`` holds β=τ and raises α, which gives
    ``s_b(·, τ)``. The rows are yielded slice by slice, so a caller that
    keeps only some of them never holds every slice's offsets at once.
    """
    keys, adj = _graph(edges)
    for tau in taus:
        last = _peel(adj, [tau if side == held else 0 for side, _ in keys])
        yield from ((tau, side, i, off) for (side, i), off in zip(keys, last))


def core_peel(edges: Iterable[tuple]) -> list[tuple[str, int, int]]:
    """Rows ``(side, id, core)``: the k-core number of every vertex of the
    ``(u, v, ...)`` edge rows viewed as unipartite."""
    keys, adj = _graph(edges)
    last = _peel(adj, [0] * len(keys))
    return [(side, i, core) for (side, i), core in zip(keys, last)]


_ALPHA_OFFSETS = struct("alpha int, side string, id long, off int")
_BETA_OFFSETS = struct("beta int, side string, id long, off int")
_CORENESS = struct("side string, id long, core int")


def alpha_offsets(edges: DataFrame, alphas: Iterable[int]) -> DataFrame:
    """``s_a(x, α)`` for every vertex and every α in ``alphas``.

    Returns ``(alpha: int, side: 'u'|'v', id: long, off: int)`` including
    zero offsets (callers filter ``off >= 1`` for (α,1)-core membership).
    """
    taus = sorted({int(a) for a in alphas})
    return on_driver(edges, lambda rows: offset_peel(rows, taus, "u"), _ALPHA_OFFSETS)


def beta_offsets(edges: DataFrame, betas: Iterable[int]) -> DataFrame:
    """``s_b(x, β)`` for every vertex and every β in ``betas`` — symmetric to
    :func:`alpha_offsets`, returned as ``(beta, side, id, off)``."""
    taus = sorted({int(b) for b in betas})
    return on_driver(edges, lambda rows: offset_peel(rows, taus, "v"), _BETA_OFFSETS)


def coreness(edges: DataFrame) -> DataFrame:
    """k-core number of every vertex of the graph viewed as unipartite.

    The (τ,τ)-core equals the k-core with k = τ, so this one peel yields
    the paper's degeneracy δ (= max coreness) and every (τ,τ)-core
    (vertices with coreness ≥ τ). Returns ``(side, id, core: int)``.
    """
    return on_driver(edges, core_peel, _CORENESS)


def delta(edges: DataFrame, *, coreness_df: DataFrame | None = None) -> int:
    """Degeneracy δ (Definition 7): the largest ``core`` in the rows of
    ``coreness_df`` (by default ``coreness(edges)``). 0 for an empty graph.

    The rows are read on the driver, not aggregated in Spark: ``coreness``
    returns a local relation, so collecting it runs no Spark job, where a
    ``max`` over it runs two. ``delta(edges)`` is ``coreness``'s one
    collect.
    """
    c = coreness_df if coreness_df is not None else coreness(edges)
    return max((row["core"] for row in c.collect()), default=0)


def max_degree(rows: list[Edge], side: str) -> int:
    """The largest degree in layer ``side`` (``"u"`` or ``"v"``) of the
    edge rows; 0 when there are none."""
    layer = "uv".index(side)
    return max(Counter(e[layer] for e in rows).values(), default=0)


def alpha_max(edges: DataFrame) -> int:
    """Largest α with a non-empty (α,1)-core: the max upper-layer degree
    (β=1 removals never cascade back into the upper layer), from one
    checked collect."""
    return max_degree(collect_edges(edges), "u")


def beta_max(edges: DataFrame) -> int:
    """Largest β with a non-empty (1,β)-core: the max lower-layer degree,
    from one checked collect."""
    return max_degree(collect_edges(edges), "v")
