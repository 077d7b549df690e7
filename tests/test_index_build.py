"""Contracts of the decompositions, graph statistics and index builds that
hold whatever the graph: their output on a graph without edges, loud
failure on bad input, a Spark job count that does not grow with δ, and the
layout of a saved index."""
import os

import pytest

from repro.core.index_bicore import build_iv
from repro.core.index_bs import build_ibs_alpha, build_ibs_beta, save_index
from repro.core.index_delta import build_idelta
from repro.graph.decomposition import (
    alpha_max,
    alpha_offsets,
    beta_max,
    beta_offsets,
    coreness,
    delta,
)
from repro.graph.schema import EDGE_SCHEMA, edges_df, graph_stats
from repro.reference import ref_graph as R
from tests.util import bad_fig2, rand_bipartite, spark_jobs

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


@pytest.mark.parametrize("stat,zero", [
    (delta, 0), (alpha_max, 0), (beta_max, 0),
    (graph_stats, {"m": 0, "n_u": 0, "n_l": 0}),
], ids=["delta", "alpha_max", "beta_max", "graph_stats"])
def test_empty_graph_statistics_are_zero(spark, stat, zero):
    assert stat(spark.createDataFrame([], EDGE_SCHEMA)) == zero


_BUILDS = {
    "coreness": coreness,
    "alpha_offsets": lambda e: alpha_offsets(e, [1, 2]),
    "beta_offsets": lambda e: beta_offsets(e, [1, 2]),
    "build_iv": build_iv,
    "build_idelta": build_idelta,
    "build_ibs_alpha": build_ibs_alpha,
    "build_ibs_beta": build_ibs_beta,
    "delta": delta,
    "alpha_max": alpha_max,
    "beta_max": beta_max,
    "graph_stats": graph_stats,
}


@pytest.mark.parametrize("bad,match", [("dup", "duplicate"), ("nan", "finite")])
@pytest.mark.parametrize("build", list(_BUILDS))
def test_bad_edges_raise(spark, fig2_edges, build, bad, match):
    """A duplicate (u, v) pair would be counted twice in a peel degree and
    listed twice in an index, and a NaN weight would be stored in one: both
    fail loudly instead of returning a wrong decomposition, statistic or
    index."""
    df = edges_df(spark, bad_fig2(fig2_edges, bad))
    with pytest.raises(ValueError, match=match):
        _BUILDS[build](df)


# (build(edges DataFrame, edge list), the most Spark jobs it may submit):
# a decomposition is its collect; a statistic is one collect reduced on the
# driver (δ reads the local relation ``coreness`` returns, which runs no
# job); an index build is its collect and the checkpoint of its
# materialised result.
_JOBS = {
    "coreness": (lambda df, es: coreness(df), 1),
    "alpha_offsets": (
        lambda df, es: alpha_offsets(df, range(1, R.delta(es) + 1)), 1),
    "build_iv": (lambda df, es: build_iv(df), 2),
    "build_idelta": (lambda df, es: build_idelta(df), 2),
    "build_iv-delta_val": (
        lambda df, es: build_iv(df, delta_val=R.delta(es)), 2),
    "build_idelta-delta_val": (
        lambda df, es: build_idelta(df, delta_val=R.delta(es)), 2),
    "build_ibs_alpha": (lambda df, es: build_ibs_alpha(df), 2),
    "build_ibs_beta": (lambda df, es: build_ibs_beta(df), 2),
    "delta": (lambda df, es: delta(df), 1),
    "delta-coreness_df": (
        lambda df, es: delta(df, coreness_df=coreness(df)), 1),
    "alpha_max": (lambda df, es: alpha_max(df), 1),
    "beta_max": (lambda df, es: beta_max(df), 1),
    "graph_stats": (lambda df, es: graph_stats(df), 1),
}


@pytest.mark.parametrize("build", list(_JOBS))
def test_job_count_independent_of_delta(spark, fig2_edges, build):
    """A build or statistic submits the same Spark jobs on fig2 (δ = 3) and
    on a denser drawn graph, with or without δ given: every slice is peeled
    and joined onto the edges, and every statistic reduced, on the driver,
    not by per-sweep, per-slice or aggregate Spark jobs."""
    run, most = _JOBS[build]
    dense = rand_bipartite(11, n_u=12, n_l=12, m=300)
    assert R.delta(dense) > R.delta(fig2_edges) == 3
    jobs = [
        spark_jobs(spark, lambda: run(edges_df(spark, es), es))
        for es in (fig2_edges, dense)
    ]
    assert 0 < jobs[0] == jobs[1] <= most


@pytest.mark.parametrize("graph", ["fig2", "drawn"])
@pytest.mark.parametrize("build,cols", [
    (build_idelta, ["side", "tau"]),
    (build_ibs_alpha, ["alpha"]),
], ids=["build_idelta", "build_ibs_alpha"])
def test_saved_index_has_one_file_per_slice(
    spark, fig2_edges, tmp_path, build, cols, graph
):
    """A build returns its index in one partition, so a save writes one
    Parquet file into each non-empty slice's directory and none elsewhere."""
    es = fig2_edges if graph == "fig2" else rand_bipartite(5, m=120)
    idx = build(edges_df(spark, es))
    slices = {tuple(r) for r in idx.select(*cols).distinct().collect()}
    save_index(idx, str(tmp_path), cols)
    files = {
        os.path.relpath(root, tmp_path): [f for f in fs if f.endswith(".parquet")]
        for root, _, fs in os.walk(tmp_path)
    }
    written = {d: fs for d, fs in files.items() if fs}
    assert len(slices) > 1
    assert set(written) == {
        os.path.join(*(f"{c}={x}" for c, x in zip(cols, s))) for s in slices
    }
    assert all(len(fs) == 1 for fs in written.values())
