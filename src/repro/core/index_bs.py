"""Basic indexes ``I_bs^α`` and ``I_bs^β`` (paper Section III-A, Alg. 1).

``I_bs^α`` materialises, for every α in [1, α_max], the edges of the
(α,1)-core annotated with both endpoints' α-offsets:

    (alpha, u, v, w, off_u, off_v)    with off_u >= 1 and off_v >= 1.

The sequential index stores per-vertex adjacency lists sorted by offset so a
scan can stop early; the dataflow analogue is the ``off >= β`` filter over
the α partition (sortedness is irrelevant to a filter, partition pruning
replaces the per-α lookup). Size is O(Σ_α size((α,1)-core)) = O(α_max · m),
exactly the blow-up on high-degree layers that motivates ``I_δ``.

Each build, like every index build, is one ``components.on_driver`` call
(DESIGN.md §2): one checked collect of the edge list, then on the driver
one offset peel per slice and :func:`annotate`, which keeps each edge whose
two endpoints are in the slice. :func:`index_on_driver` gives every index
the same materialised layout.
"""
from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from itertools import groupby
from operator import itemgetter

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.graph.components import Edge, on_driver
from repro.graph.decomposition import max_degree, offset_peel
from repro.graph.schema import checkpoint, struct

_IBS_ALPHA = struct("alpha int, u long, v long, w double, off_u int, off_v int")
_IBS_BETA = struct("beta int, u long, v long, w double, off_u int, off_v int")


def index_on_driver(edges: DataFrame, kernel, schema: T.StructType) -> DataFrame:
    """The index that ``kernel`` builds from the collected edge rows, in the
    layout every index build returns: the kernel's rows in its order (by
    slice, then by ``(v, u)`` or ``(side, id)``), in one partition,
    materialised. That is two Spark jobs, the collect and the checkpoint;
    a save then writes one Parquet file per slice without re-running any
    plan."""
    return checkpoint(on_driver(edges, kernel, schema).coalesce(1))


def annotate(
    rows: list[Edge],
    offsets: Iterable[tuple[int, str, int, int]],
    lo: Callable[[int], int],
) -> list[tuple]:
    """Rows ``(τ, u, v, w, off_u, off_v)``: for each slice τ of ``offsets``
    (rows ``(τ, side, id, off)`` with each τ's rows together, as
    ``offset_peel`` yields them), every edge of ``rows`` whose two
    endpoints have offsets at least ``lo(τ)``, ordered by ``(v, u)``.

    This is the join of per-vertex offsets onto the edge list, on the
    driver: one pass over the edges per slice, O(m) like the slice's peel.
    """
    edges = sorted(rows, key=lambda e: (e[1], e[0]))
    out = []
    for tau, group in groupby(offsets, key=itemgetter(0)):
        bound = lo(tau)
        off = {(side, i): o for _, side, i, o in group if o >= bound}
        out += [
            (tau, u, v, w, off[("u", u)], off[("v", v)])
            for u, v, w in edges if ("u", u) in off and ("v", v) in off
        ]
    return out


def _ibs(edges: DataFrame, held: str, cap: int | None, schema) -> DataFrame:
    """The basic index whose slices hold ``held``'s bound at 1, 2, ... up
    to that layer's largest degree (or ``cap``): each slice is the
    (α,1)-core (or (1,β)-core) with both endpoints' offsets."""
    def kernel(rows: list[Edge]) -> list[tuple]:
        top = max_degree(rows, held)
        n = top if cap is None else min(top, cap)
        return annotate(rows, offset_peel(rows, range(1, n + 1), held), lambda _: 1)

    return index_on_driver(edges, kernel, schema)


def build_ibs_alpha(edges: DataFrame, *, max_alpha: int | None = None) -> DataFrame:
    """``I_bs^α`` over α in [1, α_max] (or a cap, for the paper's
    time-limited builds on huge-α_max graphs); α_max, the largest
    upper-layer degree, comes from the collected rows."""
    return _ibs(edges, "u", max_alpha, _IBS_ALPHA)


def build_ibs_beta(edges: DataFrame, *, max_beta: int | None = None) -> DataFrame:
    """``I_bs^β`` over β in [1, β_max] — the symmetric basic index."""
    return _ibs(edges, "v", max_beta, _IBS_BETA)


def save_index(idx: DataFrame, path: str, partition_cols: list[str]) -> None:
    """Persist an index partitioned by its slice column(s) so queries read
    only their slice (partition pruning = the paper's per-α lookup)."""
    idx.write.mode("overwrite").partitionBy(*partition_cols).parquet(path)


def load_index(spark: SparkSession, path: str) -> DataFrame:
    return spark.read.parquet(path)


def index_disk_bytes(path: str) -> int:
    """Total on-disk size of a persisted index (for the Fig 11-shaped bench)."""
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total
