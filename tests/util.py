"""Shared test helpers: seeded random bipartite graphs, handcrafted fixtures,
and edge-set comparison utilities used across the suite."""
from __future__ import annotations

import math
import uuid

import numpy as np

from repro.reference import ref_graph as R


def rand_bipartite(
    seed: int, *, n_u: int = 12, n_l: int = 10, m: int = 70, wlevels: int = 4
) -> list[tuple[int, int, float]]:
    """Small random bipartite edge list with integer weights in [1, wlevels]."""
    g = np.random.default_rng(seed)
    es = sorted(
        {
            (int(u), int(v))
            for u, v in zip(g.integers(0, n_u, m), g.integers(0, n_l, m))
        }
    )
    return [(u, v, float(g.integers(1, wlevels + 1))) for u, v in es]


def paper_figure2_like() -> list[tuple[int, int, float]]:
    """A handcrafted graph in the spirit of the paper's Figure 2 example:

    a 3x3 biclique {u1,u2,u3} x {v1,v2,v3} (w=3, except (u3,v1) and (u3,v2)
    at w=5), u4 attached to v1 and v2 at w=5, and a weakly attached v4.
    The significant (2,2)-community of u3 is exactly
    {(u3,v1), (u3,v2), (u4,v1), (u4,v2)} with significance 5 — mirroring the
    paper's red subgraph (Example 1).
    """
    edges = []
    for u in (1, 2, 3):
        for v in (1, 2, 3):
            w = 5.0 if (u == 3 and v in (1, 2)) else 3.0
            edges.append((u, v, w))
    edges += [(4, 1, 5.0), (4, 2, 5.0), (1, 4, 1.0), (2, 4, 1.0)]
    return edges


def bad_fig2(fig2_edges, bad):
    """fig2 with (u3, v1) listed twice (``dup``) or weighted NaN (``nan``)."""
    if bad == "dup":
        return fig2_edges + [(3, 1, 2.0)]
    return [(u, v, math.nan if (u, v) == (3, 1) else w) for u, v, w in fig2_edges]


def spark_jobs(spark, fn) -> int:
    """The number of Spark jobs ``fn()`` submits, read from the status
    tracker under a job group of its own."""
    sc = spark.sparkContext
    group = f"spark-jobs-{uuid.uuid4()}"
    sc.setLocalProperty("spark.jobGroup.id", group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


def ref_slices(edges):
    """``(part, τ, s_u, s_v, lo)`` for every slice of ``I_v`` / ``I_δ``,
    from the sequential offsets: part ``a`` holds ``s_a(·,τ) >= τ``, part
    ``b`` holds ``s_b(·,τ) > τ``; vertices keep offset ``>= lo``."""
    for tau in range(1, R.delta(edges) + 1):
        yield ("a", tau, *R.alpha_offsets(edges, tau), tau)
        yield ("b", tau, *R.beta_offsets(edges, tau), tau + 1)


def eset(edges) -> set[tuple[int, int]]:
    """(u, v) pairs of a python edge list."""
    return {(u, v) for u, v, *_ in edges}


def eset_df(df) -> set[tuple[int, int]]:
    """(u, v) pairs of a Spark edge DataFrame."""
    return {(int(r["u"]), int(r["v"])) for r in df.select("u", "v").collect()}


def eset_result(df) -> set[tuple[int, int]]:
    """(u, v) pairs of a query or search result, whose columns must be
    exactly ``EDGE_SCHEMA``'s ``(u, v, w)`` in that order: a positional
    union or tuple unpacking of ``(v, u, w)`` would swap the layers."""
    assert df.columns == ["u", "v", "w"], df.columns
    return eset_df(df)


def wset_df(df) -> set[tuple[int, int, float]]:
    """(u, v, w) triples of a Spark edge DataFrame."""
    return {
        (int(r["u"]), int(r["v"]), float(r["w"]))
        for r in df.select("u", "v", "w").collect()
    }
