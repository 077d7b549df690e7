"""Contracts of the decompositions and index builds that hold whatever the
graph: their output schema on a graph without edges, and a Spark job count
that does not grow with δ."""
import pytest

from repro.core.index_bicore import build_iv
from repro.core.index_bs import build_ibs_alpha, build_ibs_beta
from repro.core.index_delta import build_idelta
from repro.graph.decomposition import alpha_offsets, coreness
from repro.graph.schema import EDGE_SCHEMA, edges_df
from repro.reference import ref_graph as R
from tests.util import rand_bipartite

_EDGE = [("u", "bigint"), ("v", "bigint"), ("w", "double")]
_OFFS = [("off_u", "int"), ("off_v", "int")]


@pytest.mark.parametrize("build,dtypes", [
    (coreness, [("side", "string"), ("id", "bigint"), ("core", "int")]),
    (lambda e: alpha_offsets(e, [1, 2]),
     [("alpha", "int"), ("side", "string"), ("id", "bigint"), ("off", "int")]),
    (build_iv, [("kind", "string"), ("tau", "int"), ("side", "string"),
                ("id", "bigint"), ("off", "int")]),
    (build_idelta, [("side", "string"), ("tau", "int"), *_EDGE, *_OFFS]),
    (build_ibs_alpha, [("alpha", "int"), *_EDGE, *_OFFS]),
    (build_ibs_beta, [("beta", "int"), *_EDGE, *_OFFS]),
], ids=["coreness", "alpha_offsets", "build_iv", "build_idelta",
        "build_ibs_alpha", "build_ibs_beta"])
def test_empty_graph_gives_no_rows_with_schema(spark, build, dtypes):
    out = build(spark.createDataFrame([], EDGE_SCHEMA))
    assert out.dtypes == dtypes
    assert out.count() == 0


@pytest.mark.parametrize("build", [coreness, build_iv, build_idelta])
def test_job_count_independent_of_delta(spark, fig2_df, fig2_edges, build):
    """A build submits the same Spark jobs on fig2 (δ = 3) and on a denser
    drawn graph: every slice is peeled on the driver, not by per-sweep
    Spark jobs."""
    sc = spark.sparkContext
    dense = rand_bipartite(11, n_u=12, n_l=12, m=300)
    assert R.delta(dense) > R.delta(fig2_edges) == 3
    jobs = []
    for name, df in (("fig2", fig2_df), ("dense", edges_df(spark, dense))):
        group = f"build-jobs-{build.__name__}-{name}"
        sc.setLocalProperty("spark.jobGroup.id", group)
        try:
            build(df).count()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
    assert jobs[0] == jobs[1] > 0
