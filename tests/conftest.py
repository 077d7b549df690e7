"""Test-suite fixtures: shared small graphs (python edge lists + Spark
DataFrames) reused across modules via session scope to keep the suite fast.
"""
import pytest

from repro.graph.schema import edges_df
from tests.util import paper_figure2_like, rand_bipartite


@pytest.fixture(scope="session")
def fig2_edges():
    return paper_figure2_like()


@pytest.fixture(scope="session")
def fig2_df(spark, fig2_edges):
    return edges_df(spark, fig2_edges)


@pytest.fixture(scope="session")
def rand_edges():
    """A dict of seeded random graphs shared by the comparison tests."""
    return {
        1: rand_bipartite(1),
        2: rand_bipartite(2, n_u=8, n_l=8, m=50, wlevels=3),
        3: rand_bipartite(3, n_u=15, n_l=6, m=60, wlevels=5),
    }


@pytest.fixture(scope="session")
def rand_dfs(spark, rand_edges):
    return {k: edges_df(spark, v) for k, v in rand_edges.items()}


@pytest.fixture(scope="session")
def graphs(fig2_edges, fig2_df, rand_edges, rand_dfs):
    """fig2 and the random graphs by key, as ``(edge list, DataFrame)``."""
    return {
        "fig2": (fig2_edges, fig2_df),
        **{k: (rand_edges[k], rand_dfs[k]) for k in rand_edges},
    }
