"""Tests of the degeneracy-bounded index I_δ (construction + invariants)."""
import pytest
from pyspark.sql import functions as F

from repro.core.index_delta import build_idelta
from repro.reference import ref_graph as R
from tests.util import eset, ref_slices


@pytest.fixture(scope="module")
def built(graphs):
    """``I_δ`` of every shared graph, built once for the module."""
    return {k: build_idelta(df).cache() for k, (_, df) in graphs.items()}


@pytest.fixture(scope="module")
def fig2_idx(built):
    return built["fig2"]


@pytest.mark.parametrize("key", ["fig2", 1, 2, 3])
def test_rows_match_reference(graphs, built, key):
    """Every row, offsets included: the edges of each slice whose endpoints
    both keep offset ``>= lo``, annotated with the sequential offsets."""
    edges = graphs[key][0]
    exp = sorted(
        (part, tau, u, v, w, su[u], sv[v])
        for part, tau, su, sv, lo in ref_slices(edges)
        for u, v, w in edges
        if su.get(u, 0) >= lo and sv.get(v, 0) >= lo
    )
    assert sorted(tuple(r) for r in built[key].collect()) == exp


class TestStructure:
    def test_taus_bounded_by_delta(self, fig2_idx, fig2_edges):
        d = R.delta(fig2_edges)
        taus = {r.tau for r in fig2_idx.select("tau").distinct().collect()}
        assert taus <= set(range(1, d + 1))

    def test_has_both_sides(self, fig2_idx):
        sides = {r.side for r in fig2_idx.select("side").distinct().collect()}
        assert sides == {"a", "b"}

    def test_side_a_offsets_at_least_tau(self, fig2_idx):
        bad = fig2_idx.where(
            (F.col("side") == "a")
            & ((F.col("off_u") < F.col("tau")) | (F.col("off_v") < F.col("tau")))
        )
        assert bad.count() == 0

    def test_side_b_offsets_strictly_above_tau(self, fig2_idx):
        bad = fig2_idx.where(
            (F.col("side") == "b")
            & ((F.col("off_u") <= F.col("tau")) | (F.col("off_v") <= F.col("tau")))
        )
        assert bad.count() == 0

    def test_empty_graph(self, spark):
        empty = spark.createDataFrame([], "u long, v long, w double")
        assert build_idelta(empty).count() == 0


class TestSliceSemantics:
    """Filtering a slice of I_δ must yield exactly E(R_αβ) (DESIGN.md §2)."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_side_a_slices(self, rand_edges, built, seed):
        idx = built[seed]
        d = R.delta(rand_edges[seed])
        for alpha in range(1, d + 1):
            for beta in (alpha, alpha + 1):
                got = {
                    (r.u, r.v)
                    for r in idx.where(
                        (F.col("side") == "a")
                        & (F.col("tau") == alpha)
                        & (F.col("off_u") >= beta)
                        & (F.col("off_v") >= beta)
                    ).collect()
                }
                assert got == eset(R.abcore(rand_edges[seed], alpha, beta)), (
                    alpha, beta,
                )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_side_b_slices(self, rand_edges, built, seed):
        idx = built[seed]
        d = R.delta(rand_edges[seed])
        for beta in range(1, d + 1):
            alpha = beta + 1  # side b serves β < α
            got = {
                (r.u, r.v)
                for r in idx.where(
                    (F.col("side") == "b")
                    & (F.col("tau") == beta)
                    & (F.col("off_u") >= alpha)
                    & (F.col("off_v") >= alpha)
                ).collect()
            }
            assert got == eset(R.abcore(rand_edges[seed], alpha, beta)), (
                alpha, beta,
            )

    def test_fig2_tau3_slice_is_biclique(self, fig2_idx):
        got = {
            (r.u, r.v)
            for r in fig2_idx.where(
                (F.col("side") == "a") & (F.col("tau") == 3)
                & (F.col("off_u") >= 3) & (F.col("off_v") >= 3)
            ).collect()
        }
        assert got == {(u, v) for u in (1, 2, 3) for v in (1, 2, 3)}


class TestSizeBound:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_within_2_delta_m(self, rand_edges, built, seed):
        """Lemma 5: size(I_δ) = O(2 Σ_τ size(R_ττ)) <= 2·δ·m."""
        idx = built[seed]
        d = R.delta(rand_edges[seed])
        assert idx.count() <= 2 * d * len(rand_edges[seed])

    def test_weights_carried(self, fig2_idx, fig2_edges):
        wmap = {(u, v): w for u, v, w in fig2_edges}
        for r in fig2_idx.collect():
            assert wmap[(r.u, r.v)] == r.w
