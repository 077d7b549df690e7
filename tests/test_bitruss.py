"""Butterfly counting / k-bitruss vs the sequential reference and the
DuckDB oracle (butterfly support is SQL-expressible)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.schema import edges_df
from repro.models.bitruss import (
    bitruss_community,
    bitruss_peel,
    butterfly_count,
    butterfly_support,
    k_bitruss,
)
from repro.oracle import assert_equivalent
from repro.reference.ref_bitruss import (
    butterfly_count as bc_ref,
    butterfly_support as bs_ref,
    k_bitruss as kb_ref,
)
from tests.util import bad_fig2, eset, eset_df, rand_bipartite, spark_jobs

_B33 = [(u, v, 1.0) for u in (1, 2, 3) for v in (1, 2, 3)]
# ref_bitruss's cascade case: a pendant path on the 3x3 biclique
_PENDANT = _B33 + [(9, 1, 1.0), (9, 9, 1.0)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_support_matches_reference(rand_edges, rand_dfs, seed):
    got = {(r.u, r.v): r.support for r in butterfly_support(rand_dfs[seed]).collect()}
    assert got == bs_ref(rand_edges[seed])


def test_support_oracle_sql(spark):
    """Cross-check the join formulation against a pure-SQL computation."""
    edges = rand_bipartite(5, n_u=8, n_l=8, m=40)
    pdf = pd.DataFrame(edges, columns=["u", "v", "w"])
    got = butterfly_support(edges_df(spark, edges)).select(
        "u", "v", F.col("support").cast("long").alias("support")
    )
    sql = """
        WITH wedges AS (
            SELECT e1.u AS u, e1.v AS v, e2.u AS u2
            FROM edges e1 JOIN edges e2 USING (v) WHERE e1.u <> e2.u
        ), pairs AS (
            SELECT u, u2, count(*) AS cn FROM wedges GROUP BY u, u2
        )
        SELECT e.u, e.v,
               coalesce((SELECT sum(p.cn - 1)
                         FROM wedges w JOIN pairs p USING (u, u2)
                         WHERE w.u = e.u AND w.v = e.v), 0) AS support
        FROM edges e
    """
    assert_equivalent(got, sql, edges=pdf)


# (1, 5): the reference peels drawn graph 1 in six rounds, down to 32 edges
@pytest.mark.parametrize("seed,k", [
    (1, 1), (1, 2), (2, 1), (3, 2), (1, 5), ("b33+pendant", 4),
    ("b33+pendant", 5),
])
def test_k_bitruss_matches_reference(spark, rand_edges, seed, k):
    es = _PENDANT if seed == "b33+pendant" else rand_edges[seed]
    got = eset_df(k_bitruss(edges_df(spark, es), k))
    assert got == eset(kb_ref(es, k))


def test_butterfly_count_biclique(spark):
    assert butterfly_count(edges_df(spark, _B33)) == 9


def test_zero_support_edges_present(spark):
    star = edges_df(spark, [(1, v, 1.0) for v in range(4)])
    sup = butterfly_support(star)
    assert sup.count() == 4
    assert sup.agg(F.max("support")).first()[0] == 0


def test_k_bitruss_zero_k_identity(fig2_df, fig2_edges):
    assert eset_df(k_bitruss(fig2_df, 0)) == eset(fig2_edges)


def test_bitruss_community(spark):
    other = [(u, v, 1.0) for u in (7, 8) for v in (7, 8)]
    df = edges_df(spark, _B33 + other + [(9, 1, 1.0)])
    got = eset_df(bitruss_community(df, 1, "u", k=1))
    assert got == eset(_B33)  # the 2x2 block and stray edge peel away or disconnect


def test_bitruss_community_reference(rand_edges, rand_dfs):
    from repro.reference.ref_graph import component_of as comp_ref

    edges = rand_edges[2]
    kb = kb_ref(edges, 1)
    if not kb:
        pytest.skip("empty bitruss")
    q = kb[0][0]
    got = eset_df(bitruss_community(rand_dfs[2], q, "u", k=1))
    assert got == eset(comp_ref(kb, q, "u"))


_MODELS = {
    "k_bitruss": lambda df: k_bitruss(df, 4),
    "bitruss_community": lambda df: bitruss_community(df, 1, "u", k=4),
}


@pytest.mark.parametrize("model", list(_MODELS))
def test_one_spark_job(spark, fig2_edges, model):
    """The peel runs on the driver: one collect, whatever the cascade, on
    fig2 and on a denser drawn graph."""
    dense = rand_bipartite(11, n_u=12, n_l=12, m=300)
    jobs = [spark_jobs(spark, lambda: _MODELS[model](edges_df(spark, es)))
            for es in (fig2_edges, dense)]
    assert jobs == [1, 1]


@pytest.mark.parametrize("bad,match", [("dup", "duplicate"), ("nan", "finite")])
@pytest.mark.parametrize("model", list(_MODELS))
def test_bad_edges_raise(spark, fig2_edges, model, bad, match):
    """A duplicate (u, v) pair would count its butterflies twice, and a NaN
    weight would be returned in the community: both fail loudly."""
    df = edges_df(spark, bad_fig2(fig2_edges, bad))
    with pytest.raises(ValueError, match=match):
        _MODELS[model](df)


def test_peel_kernel_matches_reference():
    """The driver peel alone, on drawn graphs at every k from none removed
    to all removed, cascades included."""
    for seed in range(20):
        es = rand_bipartite(seed, n_u=10, n_l=10, m=20 + 3 * seed)
        for k in range(10):
            assert eset(bitruss_peel(es, k)) == eset(kb_ref(es, k)), (seed, k)
