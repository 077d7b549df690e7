"""Basic indexes ``I_bs^α`` and ``I_bs^β`` (paper Section III-A, Alg. 1).

``I_bs^α`` materialises, for every α in [1, α_max], the edges of the
(α,1)-core annotated with both endpoints' α-offsets:

    (alpha, u, v, w, off_u, off_v)    with off_u >= 1 and off_v >= 1.

The sequential index stores per-vertex adjacency lists sorted by offset so a
scan can stop early; the dataflow analogue is the ``off >= β`` filter over
the α partition (sortedness is irrelevant to a filter, partition pruning
replaces the per-α lookup). Size is O(Σ_α size((α,1)-core)) = O(α_max · m),
exactly the blow-up on high-degree layers that motivates ``I_δ``.

All α slices come from one call of ``alpha_offsets`` — one collect of the
edge list and one offset peel per slice on the driver (DESIGN.md §2) —
then a single join against the edge list.
"""
from __future__ import annotations

import os

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.decomposition import alpha_max, alpha_offsets, beta_max, beta_offsets


def _annotate(edges: DataFrame, offs: DataFrame, keys: list[str]) -> DataFrame:
    """Join per-(slice, vertex) offsets onto the edge list for every slice;
    ``keys`` are the slice columns of ``offs``."""
    off_u = offs.where(F.col("side") == "u").select(
        *keys, F.col("id").alias("u"), F.col("off").alias("off_u")
    )
    off_v = offs.where(F.col("side") == "v").select(
        *keys, F.col("id").alias("v"), F.col("off").alias("off_v")
    )
    return (
        edges.join(off_u, "u")
        .join(off_v, [*keys, "v"])
        .select(*keys, "u", "v", "w", "off_u", "off_v")
    )


def build_ibs_alpha(edges: DataFrame, *, max_alpha: int | None = None) -> DataFrame:
    """``I_bs^α`` over α in [1, α_max] (or a cap, for the paper's
    time-limited builds on huge-α_max graphs)."""
    am = alpha_max(edges)
    if max_alpha is not None:
        am = min(am, max_alpha)
    offs = alpha_offsets(edges, range(1, am + 1))
    out = _annotate(edges, offs, ["alpha"])
    return out.where((F.col("off_u") >= 1) & (F.col("off_v") >= 1))


def build_ibs_beta(edges: DataFrame, *, max_beta: int | None = None) -> DataFrame:
    """``I_bs^β`` over β in [1, β_max] — the symmetric basic index."""
    bm = beta_max(edges)
    if max_beta is not None:
        bm = min(bm, max_beta)
    offs = beta_offsets(edges, range(1, bm + 1))
    out = _annotate(edges, offs, ["beta"])
    return out.where((F.col("off_u") >= 1) & (F.col("off_v") >= 1))


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
