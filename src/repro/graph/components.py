"""Connected-component retrieval around a query vertex.

``component_of`` runs a frontier BFS over the edge list with alternating
semi-joins (U-frontier discovers L-vertices and vice versa). The round count
is the eccentricity of the query vertex, which is small on the
small-diameter graphs community search targets. The component's edge set is
the edges whose endpoints are both reachable — exact for a connected
component, since components are vertex-induced.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.schema import EDGE_COLS, checkpoint


def component_of(edges: DataFrame, q: int, qside: str = "u") -> DataFrame:
    """Edges of the connected component containing ``(qside, q)``, as
    columns ``(u, v, w)`` in that order.

    Returns an empty edge DataFrame when ``q`` is not incident to any edge.
    Stops: ``seen`` strictly grows each round or the loop returns.
    """
    spark = edges.sparkSession
    empty = spark.createDataFrame([], "id long")
    seed = spark.createDataFrame([(int(q),)], "id long")
    seen_u, seen_v = (seed, empty) if qside == "u" else (empty, seed)
    frontier_u, frontier_v = seen_u, seen_v

    while True:
        new_v = (
            edges.join(frontier_u.withColumnRenamed("id", "u"), "u", "semi")
            .select(F.col("v").alias("id"))
            .distinct()
            .join(seen_v, "id", "anti")
        )
        new_u = (
            edges.join(frontier_v.withColumnRenamed("id", "v"), "v", "semi")
            .select(F.col("u").alias("id"))
            .distinct()
            .join(seen_u, "id", "anti")
        )
        new_u, new_v = checkpoint(new_u), checkpoint(new_v)
        if new_u.count() + new_v.count() == 0:
            # Broadcast the reached vertex ids (one component's worth): the
            # edge filter then needs no shuffle and no runtime bloom filter.
            # As a shuffle join, collecting a DT community took 7 Spark jobs
            # instead of 3 and grew the driver's live heap by ~3.5 MB each.
            # A USING join puts its key first: project back to (u, v, w).
            return edges.join(
                F.broadcast(seen_u.withColumnRenamed("id", "u")), "u", "semi"
            ).join(
                F.broadcast(seen_v.withColumnRenamed("id", "v")), "v", "semi"
            ).select(*EDGE_COLS)
        seen_u = checkpoint(seen_u.union(new_u))
        seen_v = checkpoint(seen_v.union(new_v))
        frontier_u, frontier_v = new_u, new_v
