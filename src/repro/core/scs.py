"""Significant (α,β)-community search: SCS-Peel, SCS-Expand, SCS-Baseline.

All three compute the unique ``R`` of Definition 5. Step 1 of the paper
(retrieving ``C_αβ(q)`` through an index) is ``repro.core.query``. Step 2
runs here, on the driver: each entry point collects its search space once
(``components.on_driver``) — the community for ``scs_peel`` and
``scs_expand``, the whole graph for ``scs_baseline`` — runs a sequential
kernel over those rows and returns ``R`` as an edge DataFrame. A search
therefore costs one collect plus driver work in proportion to the size of
its search space, not one Spark barrier per weight threshold. The search
space is a subgraph of a graph that is itself built in driver memory
(``repro.datasets``), so it always fits there.

* ``peel_kernel`` — Alg. 4 (SCS-Peel) literally: sort the edges by weight
  once, remove each distinct-weight batch followed by a degree-driven
  cascade that removes every edge at most once, and record the batch that
  removed each edge. When q drops out in batch ``b``, the graph at the
  start of ``b`` (the edges removed in ``b`` or later) is an (α,β)-core
  containing q, and ``R`` is q's component in it. O(m log m).
* ``expand_kernel`` — Alg. 5 (SCS-Expand): insert edges by descending
  weight, one whole tie batch at a time, into a union-find that counts
  edges and vertices per component. Only at the ε=2 rungs of
  ``_expand_ladder`` does it test q's component ``C*``: Lemma 7 from the
  union-find counters, Lemma 8 from the degrees inside ``C*``, then a peel
  of ``C*``. The first rung where q survives the peel holds ``R``, which
  ``peel_kernel`` on ``C*`` returns. Each check costs O(size(C*)), and the
  rungs double the inserted edge count, so the checks cost O(size(C)).
* ``scs_baseline`` — the same expansion over q's component of the whole
  graph (no step-1 community; the shared BFS ``components.component``
  finds it): cost anchored to size(G).

With all weights equal every kernel returns q's component of the
(α,β)-core: the first batch removes every edge.

The entry points reject α < 1, β < 1, a side other than ``u``/``v``,
non-finite weights and a duplicate ``(u, v)`` pair with ``ValueError``.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from itertools import groupby

from pyspark.sql import DataFrame

from repro.graph.components import (
    Edge, Vertex, component, ends, incidence, on_driver,
)
from repro.graph.schema import EDGE_SCHEMA, check_query
# Unused here; perfbench/layers.py looks up scs.has_vertex by name to trace it.
from repro.graph.schema import has_vertex  # noqa: F401

EPS = 2.0  # SCS-Expand's rung growth factor ε (the paper's Alg. 5 value)


def peel_kernel(
    edges: list[Edge], q: int, qside: str, alpha: int, beta: int
) -> list[Edge]:
    """SCS-Peel (paper Alg. 4) over an edge list; ``[]`` when q is not in
    its (α,β)-core."""
    need = {"u": alpha, "v": beta}
    inc = incidence(edges)
    deg = {x: len(ids) for x, ids in inc.items()}
    removed_in: list[int | None] = [None] * len(edges)

    def drop(i: int, batch: int, dying: list[Vertex]) -> None:
        removed_in[i] = batch
        for x in ends(edges[i]):
            deg[x] -= 1
            if deg[x] == need[x[0]] - 1:  # fell below its bound just now
                dying.append(x)

    def cascade(dying: list[Vertex], batch: int) -> None:
        while dying:
            for i in inc[dying.pop()]:
                if removed_in[i] is None:
                    drop(i, batch, dying)

    qk = (qside, q)
    cascade([x for x, d in deg.items() if d < need[x[0]]], -1)  # to the core
    if deg.get(qk, 0) < need[qside]:
        return []
    order = sorted(range(len(edges)), key=lambda i: edges[i][2])
    for b, (_, batch) in enumerate(groupby(order, key=lambda i: edges[i][2])):
        dying: list[Vertex] = []
        for i in batch:
            if removed_in[i] is None:
                drop(i, b, dying)
        cascade(dying, b)
        if deg[qk] < need[qside]:
            return component(
                edges, inc, qk, lambda i: removed_in[i] is None or removed_in[i] >= b
            )
    raise AssertionError("q survived its last incident edge")  # unreachable


def _lemma7_ok(m: int, n_u: int, n_l: int, alpha: int, beta: int) -> bool:
    """Lemma 7: R ⊆ C* requires αβ - α - β <= |E(C*)| - |U(C*)| - |L(C*)|."""
    return alpha * beta - alpha - beta <= m - n_u - n_l


def _lemma8_ok(cstar: list[Edge], q: Vertex, alpha: int, beta: int) -> bool:
    """Lemma 8: C* must contain >= β U-vertices of degree >= α and >= α
    L-vertices of degree >= β, with q among the qualifying vertices."""
    du = Counter(u for u, _, _ in cstar)
    dv = Counter(v for _, v, _ in cstar)
    qdeg, q_min = (du, alpha) if q[0] == "u" else (dv, beta)
    return (
        sum(d >= alpha for d in du.values()) >= beta
        and sum(d >= beta for d in dv.values()) >= alpha
        and qdeg[q[1]] >= q_min
    )


def _expand_ladder(hist: list[tuple[float, int]], eps: float) -> list[int]:
    """Indices (into the ascending weight array) of the descending candidate
    thresholds: prefix edge count grows by >= ε between consecutive rungs,
    and the bottom rung (index 0 — the full graph) is always included."""
    ladder: list[int] = []
    cum, target = 0, 1
    for i in range(len(hist) - 1, -1, -1):
        cum += hist[i][1]
        if cum >= target:
            ladder.append(i)
            target = max(cum * eps, target * eps)
    if not ladder or ladder[-1] != 0:
        ladder.append(0)
    return ladder


def expand_kernel(
    edges: list[Edge], q: int, qside: str, alpha: int, beta: int
) -> list[Edge]:
    """SCS-Expand (paper Alg. 5) over an edge list; ``[]`` when q is not in
    its (α,β)-core."""
    if not edges:
        return []
    qk = (qside, q)
    hist = [(w, len(list(g))) for w, g in groupby(sorted(e[2] for e in edges))]
    order = sorted(edges, key=lambda e: e[2], reverse=True)
    inserted: list[Edge] = []
    inc: dict[Vertex, list[int]] = defaultdict(list)
    parent: dict[Vertex, Vertex] = {}
    counts: dict[Vertex, list[int]] = {}  # root -> [|E|, |U|, |L|]

    def find(x: Vertex) -> Vertex:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def insert(e: Edge) -> None:
        roots = []
        for x in ends(e):
            inc[x].append(len(inserted))
            if x not in parent:
                parent[x] = x
                counts[x] = [0, int(x[0] == "u"), int(x[0] == "v")]
            roots.append(find(x))
        inserted.append(e)
        a, b = roots
        if a != b:
            if sum(counts[a]) < sum(counts[b]):
                a, b = b, a
            parent[b] = a
            counts[a] = [x + y for x, y in zip(counts[a], counts.pop(b))]
        counts[a][0] += 1

    for i in _expand_ladder(hist, EPS):
        while len(inserted) < len(order) and order[len(inserted)][2] >= hist[i][0]:
            insert(order[len(inserted)])
        if qk not in parent or not _lemma7_ok(*counts[find(qk)], alpha, beta):
            continue
        cstar = component(inserted, inc, qk)
        if not _lemma8_ok(cstar, qk, alpha, beta):
            continue
        r = peel_kernel(cstar, q, qside, alpha, beta)
        if r:
            return r
    return []


def scs_peel(
    community: DataFrame, q: int, qside: str, alpha: int, beta: int
) -> DataFrame:
    """SCS-Peel (paper Alg. 4) given ``C_αβ(q)`` (e.g. from ``q_opt``)."""
    check_query(qside, alpha, beta)
    return on_driver(community, lambda es: peel_kernel(es, q, qside, alpha, beta),
                     EDGE_SCHEMA)


def scs_expand(
    community: DataFrame, q: int, qside: str, alpha: int, beta: int
) -> DataFrame:
    """SCS-Expand (paper Alg. 5) given ``C_αβ(q)``."""
    check_query(qside, alpha, beta)
    return on_driver(community, lambda es: expand_kernel(es, q, qside, alpha, beta),
                     EDGE_SCHEMA)


def scs_baseline(
    edges: DataFrame, q: int, qside: str, alpha: int, beta: int
) -> DataFrame:
    """SCS-Baseline: expansion from q's component of the WHOLE graph —
    no index, no step-1 restriction (the paper's baseline)."""
    check_query(qside, alpha, beta)
    return on_driver(edges, lambda es: expand_kernel(
        component(es, incidence(es), (qside, q)), q, qside, alpha, beta),
        EDGE_SCHEMA)
