"""Connected-component retrieval around a query vertex, on the driver.

``on_driver`` collects an edge set once (one Spark job; ``collect_edges``,
the library's only collect, rejects bad input), runs a kernel over the
rows and returns the kernel's rows as a DataFrame in a given schema. The
offset and coreness decompositions (``repro.graph.decomposition``), the
(α,β)-core (``repro.graph.peel``), every index build
(``repro.core.index_*``), retrieval (``repro.core.query``), search
(``repro.core.scs``) and the k-bitruss (``repro.models.bitruss``) all
reach the driver through it. ``component_of``
runs the library's one BFS that way, so a retrieval costs one collect
plus driver work in proportion to the edges it is handed, not one Spark
barrier per BFS level. Those edges are a subgraph of a graph built in
driver memory (``repro.datasets``), so they fit there.
"""
from __future__ import annotations

import math
from collections import defaultdict

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.graph.schema import EDGE_SCHEMA

Edge = tuple[int, int, float]
Vertex = tuple[str, int]  # (side, id)


def collect_edges(df: DataFrame) -> list[Edge]:
    """The edge set's ``(u, v, w)`` rows on the driver (one Spark action).

    Raises ``ValueError`` on a weight that is null, NaN or infinite, and on
    a ``(u, v)`` pair that occurs twice: a peel would count that neighbour
    twice in a degree and return a wrong core.
    """
    rows = df.select("u", "v", "w").collect()
    if any(w is None or not math.isfinite(w) for _, _, w in rows):
        raise ValueError("edge weights must be finite")
    if len({(u, v) for u, v, _ in rows}) < len(rows):
        raise ValueError("duplicate (u, v) edge pair")
    return [(int(u), int(v), float(w)) for u, v, w in rows]


def ends(e: Edge) -> tuple[Vertex, Vertex]:
    return ("u", e[0]), ("v", e[1])


def incidence(edges: list[Edge]) -> dict[Vertex, list[int]]:
    """Each vertex's incident edges, as indices into ``edges``."""
    inc: dict[Vertex, list[int]] = defaultdict(list)
    for i, e in enumerate(edges):
        for x in ends(e):
            inc[x].append(i)
    return inc


def component(
    edges: list[Edge], inc: dict[Vertex, list[int]], q: Vertex, keep=None
) -> list[Edge]:
    """Edges of q's connected component, over the edges ``i`` listed in
    ``inc`` for which ``keep(i)`` holds (all of them when ``keep`` is None);
    ``[]`` when q has no such edge."""
    seen, stack, out = {q}, [q], set()
    while stack:
        for i in inc.get(stack.pop(), ()):
            if i in out or (keep is not None and not keep(i)):
                continue
            out.add(i)
            for y in ends(edges[i]):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return [edges[i] for i in sorted(out)]


def on_driver(df: DataFrame, kernel, schema: T.StructType) -> DataFrame:
    """``kernel`` run over the collected edge set ``df``; the rows it
    returns come back as a DataFrame with ``schema``.

    The rows go through pandas and Arrow, which makes a local relation:
    reading it back runs no Spark job. From a Python list, every read ran a
    Python worker: creating and reading 1,675 edges took 0.32 s against
    0.04 s (4 vCPUs, ``local[2]``).

    A ``collect()`` or a filter of the result runs no Spark job; an
    aggregate or a ``count()`` of it runs two. So a caller that wants a
    scalar (δ, a row count) reduces the collected rows on the driver.
    """
    out = pd.DataFrame(kernel(collect_edges(df)), columns=schema.names)
    return df.sparkSession.createDataFrame(out, schema)


def component_of(edges: DataFrame, q: int, qside: str = "u") -> DataFrame:
    """Edges of the connected component containing ``(qside, q)``, as
    columns ``(u, v, w)`` in that order.

    Returns an empty edge DataFrame when ``q`` is not incident to any edge.
    """
    return on_driver(
        edges, lambda es: component(es, incidence(es), (qside, q)), EDGE_SCHEMA
    )
