"""Tests of the bicore-index baseline I_v (vertex offsets only)."""
import pytest

from repro.core.index_bicore import build_iv, core_vertices
from repro.core.index_delta import build_idelta
from repro.reference import ref_graph as R
from tests.util import ref_slices


@pytest.fixture(scope="module")
def built(graphs):
    """``I_v`` of every shared graph, built once for the module."""
    return {k: build_iv(df).cache() for k, (_, df) in graphs.items()}


@pytest.fixture(scope="module")
def fig2_iv(built):
    return built["fig2"]


@pytest.mark.parametrize("key", ["fig2", 1, 2, 3])
def test_rows_match_reference(graphs, built, key):
    """Every row, offsets included: each slice's vertices with offset
    ``>= lo``, on both sides."""
    exp = sorted(
        (part, tau, side, x, off)
        for part, tau, su, sv, lo in ref_slices(graphs[key][0])
        for side, offs in (("u", su), ("v", sv))
        for x, off in offs.items()
        if off >= lo
    )
    assert sorted(tuple(r) for r in built[key].collect()) == exp


class TestCoreVertices:
    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 2), (3, 3), (2, 3), (3, 2)])
    def test_matches_reference_vertex_sets(self, fig2_iv, fig2_edges, alpha, beta):
        got = {(r.side, r.id) for r in core_vertices(fig2_iv, alpha, beta).collect()}
        core = R.abcore(fig2_edges, alpha, beta)
        exp = {("u", u) for u, _, _ in core} | {("v", v) for _, v, _ in core}
        assert got == exp

    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_graphs(self, rand_edges, built, seed):
        iv = built[seed]
        d = R.delta(rand_edges[seed])
        for alpha, beta in [(1, 2), (2, 2), (2, 1), (d, d), (d + 1, d)]:
            got = {(r.side, r.id) for r in core_vertices(iv, alpha, beta).collect()}
            core = R.abcore(rand_edges[seed], alpha, beta)
            exp = {("u", u) for u, _, _ in core} | {("v", v) for _, v, _ in core}
            assert got == exp, (alpha, beta)

    def test_above_delta_empty(self, fig2_iv, fig2_edges):
        d = R.delta(fig2_edges)
        assert core_vertices(fig2_iv, d + 1, d + 1).count() == 0


class TestSize:
    def test_vertex_only_index_smaller_than_idelta(self, rand_dfs, built):
        """Fig 11's shape: I_v (vertices) is smaller than I_δ (edges)."""
        assert built[1].count() < build_idelta(rand_dfs[1]).count()

    def test_empty_graph(self, spark):
        empty = spark.createDataFrame([], "u long, v long, w double")
        assert build_iv(empty).count() == 0
