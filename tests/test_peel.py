"""(α,β)-core from one offset-peel slice vs the sequential reference."""
import pytest

from repro.graph.peel import abcore
from repro.reference import ref_graph as R
from tests.util import eset, eset_df, eset_result


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "alpha,beta", [(1, 1), (2, 2), (3, 2), (2, 4), (1, 4), (4, 1), (5, 5)]
)
def test_matches_reference(rand_edges, rand_dfs, seed, alpha, beta):
    """Also pins the column order ``(u, v, w)``."""
    got = eset_result(abcore(rand_dfs[seed], alpha, beta))
    assert got == eset(R.abcore(rand_edges[seed], alpha, beta))


def test_fig2_33_core_is_biclique(fig2_df):
    got = eset_df(abcore(fig2_df, 3, 3))
    assert got == {(u, v) for u in (1, 2, 3) for v in (1, 2, 3)}


def test_fig2_44_empty(fig2_df):
    assert abcore(fig2_df, 4, 4).count() == 0


def test_cascade_chain(spark):
    from repro.graph.schema import edges_df

    chain = [(1, 1, 1.0), (2, 1, 1.0), (2, 2, 1.0), (3, 2, 1.0)]
    assert abcore(edges_df(spark, chain), 2, 2).count() == 0


def test_weights_preserved(fig2_df, fig2_edges):
    got = {(r.u, r.v): r.w for r in abcore(fig2_df, 3, 3).collect()}
    exp = {(u, v): w for u, v, w in fig2_edges if u <= 3 and v <= 3}
    assert got == exp


def test_trivial_11_shortcut(fig2_df, fig2_edges):
    """The (1,1)-core keeps every edge (no shortcut is taken for it)."""
    assert eset_df(abcore(fig2_df, 1, 1)) == eset(fig2_edges)


def test_result_is_reusable(fig2_df):
    """The returned core supports further Spark ops."""
    core = abcore(fig2_df, 2, 2)
    assert core.where("w >= 5").count() == 4


@pytest.mark.parametrize("alpha,beta", [(0, 2), (2, 0)])
def test_bound_below_one_raises(fig2_df, alpha, beta):
    with pytest.raises(ValueError, match="alpha and beta"):
        abcore(fig2_df, alpha, beta)
