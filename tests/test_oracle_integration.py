"""Integration: run the paper's pipeline end to end on a bipartite dataset
stand-in and compare it with the sequential reference. (Degrees of both
sides are checked against DuckDB in ``tests/test_schema.py``.)"""
import pytest

from repro import datasets
from repro.core.query import q_online
from repro.core.scs import scs_peel
from repro.reference import ref_graph as R
from repro.reference import ref_scs as RS
from tests.util import eset, eset_df


@pytest.fixture(scope="module")
def bs_graph(spark):
    """The BS stand-in: a user-book rating graph."""
    return datasets.load(spark, "BS").cache()


def test_pipeline_on_purchase_graph(bs_graph):
    """Community + SCS on the BS rating graph vs the reference."""
    edges = [(int(r.u), int(r.v), float(r.w)) for r in bs_graph.collect()]
    alpha = beta = 2
    core = R.abcore(edges, alpha, beta)
    assert core
    q = core[0][0]
    community = q_online(bs_graph, q, "u", alpha, beta)
    assert eset_df(community) == eset(R.community(edges, q, "u", alpha, beta))
    got = eset_df(scs_peel(community, q, "u", alpha, beta))
    assert got == eset(RS.scs_peel(edges, q, "u", alpha, beta))
