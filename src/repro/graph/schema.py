"""Edge-list schema helpers.

The canonical bipartite edge list is a DataFrame ``(u: long, v: long,
w: double)``; ``u`` ids live in the upper layer's namespace, ``v`` ids in the
lower layer's. A vertex is addressed by ``(side, id)`` with side ``"u"`` or
``"v"`` wherever both layers must share a namespace.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

EDGE_COLS = ("u", "v", "w")

_TYPES = {
    "long": T.LongType(), "int": T.IntegerType(),
    "double": T.DoubleType(), "string": T.StringType(),
}


def struct(ddl: str) -> T.StructType:
    """The schema ``"name type, ..."`` (types ``long``, ``int``, ``double``,
    ``string``) with every column not null. Unlike Spark's DDL parser it
    needs no running JVM, so modules can hold their schemas as constants."""
    return T.StructType([
        T.StructField(name, _TYPES[kind], False)
        for name, kind in (field.split() for field in ddl.split(","))
    ])


EDGE_SCHEMA = struct("u long, v long, w double")


def edges_df(spark: SparkSession, edges: list[tuple[int, int, float]]) -> DataFrame:
    """Build a canonical edge DataFrame from in-memory ``(u, v, w)``
    tuples."""
    rows = [(int(u), int(v), float(w)) for u, v, w in edges]
    return spark.createDataFrame(rows, EDGE_SCHEMA)


def check_query(qside: str, alpha: int, beta: int) -> None:
    """Reject a query with α < 1, β < 1 or a side other than ``u``/``v``
    (``ValueError``); runs no Spark job."""
    if alpha < 1 or beta < 1:
        raise ValueError(f"alpha and beta must be >= 1, got ({alpha}, {beta})")
    if qside not in ("u", "v"):
        raise ValueError(f"qside must be 'u' or 'v', got {qside!r}")


def normalize(df: DataFrame) -> DataFrame:
    """Project/cast to the canonical schema and collapse duplicate (u, v)
    pairs, keeping the maximum weight (bipartite graphs here are simple)."""
    out = df.select(
        F.col("u").cast("long").alias("u"),
        F.col("v").cast("long").alias("v"),
        F.col("w").cast("double").alias("w"),
    )
    return out.groupBy("u", "v").agg(F.max("w").alias("w"))


def degrees(edges: DataFrame) -> tuple[DataFrame, DataFrame]:
    """Per-side degree tables ``(deg_u(u, deg), deg_v(v, deg))``."""
    du = edges.groupBy("u").agg(F.count(F.lit(1)).alias("deg"))
    dv = edges.groupBy("v").agg(F.count(F.lit(1)).alias("deg"))
    return du, dv


def graph_stats(edges: DataFrame) -> dict[str, int]:
    """``{m, n_u, n_l}`` of the edge list, counted on the driver from one
    checked collect (``components.collect_edges``), not by a Spark
    aggregate."""
    from repro.graph.components import collect_edges  # it imports this module

    rows = collect_edges(edges)
    return {
        "m": len(rows),
        "n_u": len({u for u, _, _ in rows}),
        "n_l": len({v for _, v, _ in rows}),
    }


def has_vertex(edges: DataFrame, q: int, qside: str) -> bool:
    """True if the query vertex is incident to at least one edge."""
    col = "u" if qside == "u" else "v"
    return edges.where(F.col(col) == q).limit(1).count() > 0


def checkpoint(df: DataFrame) -> DataFrame:
    """Eagerly materialise a DataFrame and truncate its lineage.

    Callers use it to pin a result that later steps read more than once
    (a loaded graph, an index): without it, each read recomputes the
    plan.
    """
    return df.localCheckpoint(eager=True)
