"""All four (α,β)-community retrieval paths vs the reference community.

The paper's guarantee: Q_o, Q_v, Q_bs and Q_opt return the identical
``C_αβ(q)``; they differ only in cost. Equality on every tested input is
therefore the complete correctness statement.
"""
import functools

import pytest

from repro.core.index_bicore import build_iv
from repro.core.index_bs import build_ibs_alpha, build_ibs_beta
from repro.core.index_delta import build_idelta
from repro.core.query import q_bicore, q_bs, q_online, q_opt
from repro.core.scs import scs_baseline
from repro.graph.schema import edges_df
from repro.reference import ref_graph as R
from repro.reference import ref_scs as RS
from tests.util import bad_fig2, eset, eset_df, eset_result


_BUILDERS = {
    "iv": build_iv,
    "idelta": build_idelta,
    "ibs_a": build_ibs_alpha,
    "ibs_b": build_ibs_beta,
}


@pytest.fixture(scope="module")
def indexed(graphs):
    """``indexed(key, name)``: an index of a shared graph (``"fig2"`` or a
    random-graph seed), built when a test first asks for it and kept for
    the module."""

    @functools.cache
    def index(key, name):
        return _BUILDERS[name](graphs[key][1]).cache()

    return index


CASES = [(1, 2, 2), (1, 2, 3), (1, 3, 2), (2, 2, 2), (3, 2, 2), (3, 3, 3)]


def _expected(edges, q, alpha, beta):
    return eset(R.community(edges, q, "u", alpha, beta))


def _query_vertex(edges, alpha, beta):
    core = R.abcore(edges, alpha, beta)
    return core[0][0] if core else None


@pytest.mark.parametrize("seed,alpha,beta", CASES)
def test_q_online(rand_edges, rand_dfs, seed, alpha, beta):
    q = _query_vertex(rand_edges[seed], alpha, beta)
    if q is None:
        pytest.skip("empty core")
    got = eset_result(q_online(rand_dfs[seed], q, "u", alpha, beta))
    assert got == _expected(rand_edges[seed], q, alpha, beta)


@pytest.mark.parametrize("seed,alpha,beta", CASES)
def test_q_opt(rand_edges, indexed, seed, alpha, beta):
    q = _query_vertex(rand_edges[seed], alpha, beta)
    if q is None:
        pytest.skip("empty core")
    got = eset_result(q_opt(indexed(seed, "idelta"), q, "u", alpha, beta))
    assert got == _expected(rand_edges[seed], q, alpha, beta)


@pytest.mark.parametrize("seed,alpha,beta", CASES)
def test_q_bicore(rand_edges, rand_dfs, indexed, seed, alpha, beta):
    q = _query_vertex(rand_edges[seed], alpha, beta)
    if q is None:
        pytest.skip("empty core")
    got = eset_result(
        q_bicore(indexed(seed, "iv"), rand_dfs[seed], q, "u", alpha, beta)
    )
    assert got == _expected(rand_edges[seed], q, alpha, beta)


@pytest.mark.parametrize("seed,alpha,beta", CASES[:4])
def test_q_bs(rand_edges, indexed, seed, alpha, beta):
    q = _query_vertex(rand_edges[seed], alpha, beta)
    if q is None:
        pytest.skip("empty core")
    got = eset_result(
        q_bs(indexed(seed, "ibs_a"), indexed(seed, "ibs_b"), q, "u", alpha, beta)
    )
    assert got == _expected(rand_edges[seed], q, alpha, beta)


def test_q_bs_capped_alpha_part_reads_beta_part(rand_edges, rand_dfs, indexed):
    """An α part capped below the query's slice must not answer it: a (2,2)
    query on ``max_alpha=1`` used to return no edges."""
    q = _query_vertex(rand_edges[1], 2, 2)
    capped = build_ibs_alpha(rand_dfs[1], max_alpha=1)
    got = eset_df(q_bs(capped, indexed(1, "ibs_b"), q, "u", 2, 2))
    assert got and got == _expected(rand_edges[1], q, 2, 2)


def test_q_bs_both_parts_capped_raises(rand_edges, rand_dfs):
    q = _query_vertex(rand_edges[1], 2, 2)
    capped_a = build_ibs_alpha(rand_dfs[1], max_alpha=1)
    capped_b = build_ibs_beta(rand_dfs[1], max_beta=1)
    with pytest.raises(ValueError, match="neither I_bs part"):
        q_bs(capped_a, capped_b, q, "u", 2, 2)


_PATHS = {
    "q_online": lambda ix, df, *a: q_online(df, *a),
    "q_bicore": lambda ix, df, *a: q_bicore(ix(1, "iv"), df, *a),
    "q_bs": lambda ix, df, *a: q_bs(ix(1, "ibs_a"), ix(1, "ibs_b"), *a),
    "q_opt": lambda ix, df, *a: q_opt(ix(1, "idelta"), *a),
}


@pytest.mark.parametrize("path", list(_PATHS))
@pytest.mark.parametrize(
    "qside,alpha,beta,match",
    [("u", 0, 2, "alpha and beta"), ("u", 2, 0, "alpha and beta"),
     ("x", 2, 2, "qside")],
    ids=["alpha0", "beta0", "side_x"],
)
def test_bad_query_raises(rand_edges, rand_dfs, indexed, path, qside, alpha,
                          beta, match):
    """α < 1, β < 1 and an unknown side fail at the entry point: unchecked,
    an unknown side is read as ``v`` and α = 0 reads a τ = 0 slice that does
    not exist, and both return an answer."""
    q = _query_vertex(rand_edges[1], 2, 2)
    with pytest.raises(ValueError, match=match):
        _PATHS[path](indexed, rand_dfs[1], q, qside, alpha, beta)


class TestFig2:
    def test_community_fig2_22(self, fig2_df, fig2_edges):
        got = eset_df(q_online(fig2_df, 3, "u", 2, 2))
        assert got == eset(fig2_edges)  # whole graph survives (2,2)

    def test_community_fig2_33(self, fig2_df):
        got = eset_df(q_online(fig2_df, 1, "u", 3, 3))
        assert got == {(u, v) for u in (1, 2, 3) for v in (1, 2, 3)}

    def test_q_opt_beta_side(self, indexed, fig2_edges):
        """α > β routes through the I_δ^β part."""
        got = eset_df(q_opt(indexed("fig2", "idelta"), 1, "u", 3, 2))
        assert got == eset(R.community(fig2_edges, 1, "u", 3, 2))

    def test_query_not_in_core(self, indexed):
        assert q_opt(indexed("fig2", "idelta"), 4, "u", 3, 3).count() == 0

    def test_lower_side_query(self, indexed):
        got = eset_df(q_opt(indexed("fig2", "idelta"), 1, "v", 3, 3))
        assert got == {(u, v) for u in (1, 2, 3) for v in (1, 2, 3)}


def test_disconnected_core_returns_only_q_component(spark):
    """Two separate bicliques: the community must not leak across."""
    from repro.graph.schema import edges_df

    b1 = [(u, v, 1.0) for u in (1, 2) for v in (1, 2)]
    b2 = [(u, v, 1.0) for u in (8, 9) for v in (8, 9)]
    df = edges_df(spark, b1 + b2)
    idx = build_idelta(df)
    assert eset_df(q_opt(idx, 1, "u", 2, 2)) == eset(b1)
    assert eset_df(q_opt(idx, 8, "u", 2, 2)) == eset(b2)


@pytest.mark.parametrize("bad,match", [("dup", "duplicate"), ("nan", "finite")])
@pytest.mark.parametrize("path", ["q_online", "q_opt"])
def test_bad_edges_raise(spark, fig2_edges, path, bad, match):
    """A duplicate (u, v) pair would be counted twice in a peel degree, and
    a NaN weight has no place in a significance order: both fail loudly
    instead of returning a community."""
    df = edges_df(spark, bad_fig2(fig2_edges, bad))
    with pytest.raises(ValueError, match=match):
        if path == "q_online":
            q_online(df, 3, "u", 2, 2).collect()
        else:
            q_opt(build_idelta(df), 3, "u", 2, 2).collect()


def _tailed_biclique(n):
    """K_{2,2} on u0, u1 × v0, v1 with a path of 2n edges hanging off v1:
    u_{i+1} joins v_i and v_{i+1}. The (2,2)-core is the biclique, reached
    by a cascade 2n removals deep; the whole graph is one path-like
    component of eccentricity ~2n from u0."""
    edges = [(u, v, float(1 + (u + v) % 3)) for u in (0, 1) for v in (0, 1)]
    for i in range(1, n + 1):
        edges += [(i + 1, i, 1.0), (i + 1, i + 1, 1.0)]
    return edges


_DEPTH_PATHS = {
    # the BFS walks the whole graph: the (1,1)-core is all of it
    "q_opt": (lambda df, idx: q_opt(idx, 0, "u", 1, 1),
              lambda es: R.community(es, 0, "u", 1, 1)),
    # the peel cascades down the whole tail
    "q_online": (lambda df, idx: q_online(df, 0, "u", 2, 2),
                 lambda es: R.community(es, 0, "u", 2, 2)),
    # the BFS walks the whole graph, then the expansion runs on it
    "scs_baseline": (lambda df, idx: scs_baseline(df, 0, "u", 2, 2),
                     lambda es: RS.scs_peel(es, 0, "u", 2, 2)),
}


@pytest.mark.parametrize("path", list(_DEPTH_PATHS))
def test_job_count_independent_of_depth(spark, path):
    """A retrieval or search submits the same Spark jobs on a shallow and on
    a deep graph: the BFS and the (α,β)-core peel run on the driver, not by
    per-level Spark jobs."""
    run, expect = _DEPTH_PATHS[path]
    sc = spark.sparkContext
    jobs = []
    for n in (1, 12):
        edges = _tailed_biclique(n)
        df = edges_df(spark, edges)
        idx = build_idelta(df) if path == "q_opt" else None
        group = f"depth-jobs-{path}-{n}"
        sc.setLocalProperty("spark.jobGroup.id", group)
        try:
            got = eset_result(run(df, idx))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert got == eset(expect(edges))
        jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
    assert jobs[0] == jobs[1] > 0
