"""All four (α,β)-community retrieval paths vs the reference community.

The paper's guarantee: Q_o, Q_v, Q_bs and Q_opt return the identical
``C_αβ(q)``; they differ only in cost. Equality on every tested input is
therefore the complete correctness statement.
"""
import pytest

from repro.core.index_bicore import build_iv
from repro.core.index_bs import build_ibs_alpha, build_ibs_beta
from repro.core.index_delta import build_idelta
from repro.core.query import q_bicore, q_bs, q_online, q_opt
from repro.reference import ref_graph as R
from tests.util import eset, eset_df


@pytest.fixture(scope="module")
def indexed(rand_dfs):
    """Pre-built indexes for the shared random graphs."""
    out = {}
    for seed, df in rand_dfs.items():
        out[seed] = {
            "iv": build_iv(df).cache(),
            "idelta": build_idelta(df).cache(),
            "ibs_a": build_ibs_alpha(df).cache(),
            "ibs_b": build_ibs_beta(df).cache(),
        }
    return out


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
    got = eset_df(q_online(rand_dfs[seed], q, "u", alpha, beta))
    assert got == _expected(rand_edges[seed], q, alpha, beta)


@pytest.mark.parametrize("seed,alpha,beta", CASES)
def test_q_opt(rand_edges, indexed, seed, alpha, beta):
    q = _query_vertex(rand_edges[seed], alpha, beta)
    if q is None:
        pytest.skip("empty core")
    got = eset_df(q_opt(indexed[seed]["idelta"], q, "u", alpha, beta))
    assert got == _expected(rand_edges[seed], q, alpha, beta)


@pytest.mark.parametrize("seed,alpha,beta", CASES)
def test_q_bicore(rand_edges, rand_dfs, indexed, seed, alpha, beta):
    q = _query_vertex(rand_edges[seed], alpha, beta)
    if q is None:
        pytest.skip("empty core")
    got = eset_df(
        q_bicore(indexed[seed]["iv"], rand_dfs[seed], q, "u", alpha, beta)
    )
    assert got == _expected(rand_edges[seed], q, alpha, beta)


@pytest.mark.parametrize("seed,alpha,beta", CASES[:4])
def test_q_bs(rand_edges, indexed, seed, alpha, beta):
    q = _query_vertex(rand_edges[seed], alpha, beta)
    if q is None:
        pytest.skip("empty core")
    got = eset_df(
        q_bs(indexed[seed]["ibs_a"], indexed[seed]["ibs_b"], q, "u", alpha, beta)
    )
    assert got == _expected(rand_edges[seed], q, alpha, beta)


def test_q_bs_capped_alpha_part_reads_beta_part(rand_edges, rand_dfs, indexed):
    """An α part capped below the query's slice must not answer it: a (2,2)
    query on ``max_alpha=1`` used to return no edges."""
    q = _query_vertex(rand_edges[1], 2, 2)
    capped = build_ibs_alpha(rand_dfs[1], max_alpha=1)
    got = eset_df(q_bs(capped, indexed[1]["ibs_b"], q, "u", 2, 2))
    assert got and got == _expected(rand_edges[1], q, 2, 2)


def test_q_bs_both_parts_capped_raises(rand_edges, rand_dfs):
    q = _query_vertex(rand_edges[1], 2, 2)
    capped_a = build_ibs_alpha(rand_dfs[1], max_alpha=1)
    capped_b = build_ibs_beta(rand_dfs[1], max_beta=1)
    with pytest.raises(ValueError, match="neither I_bs part"):
        q_bs(capped_a, capped_b, q, "u", 2, 2)


class TestFig2:
    def test_community_fig2_22(self, fig2_df, fig2_edges):
        got = eset_df(q_online(fig2_df, 3, "u", 2, 2))
        assert got == eset(fig2_edges)  # whole graph survives (2,2)

    def test_community_fig2_33(self, fig2_df):
        got = eset_df(q_online(fig2_df, 1, "u", 3, 3))
        assert got == {(u, v) for u in (1, 2, 3) for v in (1, 2, 3)}

    def test_q_opt_beta_side(self, fig2_df, fig2_edges):
        """α > β routes through the I_δ^β part."""
        idx = build_idelta(fig2_df)
        got = eset_df(q_opt(idx, 1, "u", 3, 2))
        assert got == eset(R.community(fig2_edges, 1, "u", 3, 2))

    def test_query_not_in_core(self, fig2_df):
        idx = build_idelta(fig2_df)
        assert q_opt(idx, 4, "u", 3, 3).count() == 0

    def test_lower_side_query(self, fig2_df):
        idx = build_idelta(fig2_df)
        got = eset_df(q_opt(idx, 1, "v", 3, 3))
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
