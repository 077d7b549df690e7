"""Driver-side BFS component retrieval vs the sequential reference."""
import pytest

from repro.graph.components import component_of
from repro.graph.schema import edges_df
from repro.reference import ref_graph as R
from tests.util import eset, eset_df


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_reference_upper(rand_edges, rand_dfs, seed):
    q = rand_edges[seed][0][0]
    got = eset_df(component_of(rand_dfs[seed], q, "u"))
    assert got == eset(R.component_of(rand_edges[seed], q, "u"))


@pytest.mark.parametrize("seed", [1, 2])
def test_matches_reference_lower(rand_edges, rand_dfs, seed):
    q = rand_edges[seed][0][1]
    got = eset_df(component_of(rand_dfs[seed], q, "v"))
    assert got == eset(R.component_of(rand_edges[seed], q, "v"))


def test_isolated_query(fig2_df):
    assert component_of(fig2_df, 99, "u").count() == 0


def test_two_components(spark):
    edges = [(1, 1, 1.0), (2, 1, 1.0), (3, 2, 1.0), (4, 2, 1.0)]
    df = edges_df(spark, edges)
    assert eset_df(component_of(df, 1, "u")) == {(1, 1), (2, 1)}
    assert eset_df(component_of(df, 2, "v")) == {(3, 2), (4, 2)}


def test_long_path(spark):
    """A path graph: the deepest BFS for its edge count."""
    edges = [(i, i, 1.0) for i in range(8)] + [(i + 1, i, 1.0) for i in range(7)]
    df = edges_df(spark, edges)
    assert eset_df(component_of(df, 0, "u")) == eset(edges)


def test_weights_preserved(fig2_df, fig2_edges):
    got = {(r.u, r.v): r.w for r in component_of(fig2_df, 3, "u").collect()}
    assert got == {(u, v): w for u, v, w in fig2_edges}
