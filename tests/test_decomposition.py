"""Offset and coreness decompositions (one checked collect, then the
driver-side peels) vs the sequential reference.

These are the load-bearing correctness tests of the repo: every index and
query algorithm is built on these decompositions.
"""
import pytest
from pyspark.sql import functions as F

from repro.graph import decomposition as D
from repro.graph.peel import abcore
from repro.reference import ref_graph as R
from tests.util import eset, eset_result


def _offsets_dict(df, slice_col="alpha"):
    return {
        (r[slice_col], r["side"], r["id"]): r["off"] for r in df.collect()
    }


class TestAlphaOffsets:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference(self, rand_edges, rand_dfs, seed):
        alphas = [1, 2, 3]
        got = _offsets_dict(D.alpha_offsets(rand_dfs[seed], alphas))
        for a in alphas:
            sa_u, sa_v = R.alpha_offsets(rand_edges[seed], a)
            for (alpha, side, vid), off in got.items():
                if alpha != a:
                    continue
                exp = (sa_u if side == "u" else sa_v).get(vid, 0)
                assert off == exp, (alpha, side, vid, off, exp)

    def test_fig2_values(self, fig2_df):
        got = _offsets_dict(D.alpha_offsets(fig2_df, [3]))
        assert got[(3, "u", 1)] == 3
        assert got[(3, "u", 4)] == 0
        assert got[(3, "v", 4)] == 2

    def test_covers_all_vertices(self, fig2_df):
        out = D.alpha_offsets(fig2_df, [1, 2])
        assert out.count() == 2 * 8  # 8 vertices x 2 slices

    def test_empty_alphas(self, fig2_df):
        assert D.alpha_offsets(fig2_df, []).count() == 0

    def test_alpha_above_max_all_zero(self, fig2_df):
        out = D.alpha_offsets(fig2_df, [9])
        assert out.agg(F.max("off")).first()[0] == 0


class TestBetaOffsets:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_reference(self, rand_edges, rand_dfs, seed):
        betas = [1, 2, 3]
        got = _offsets_dict(D.beta_offsets(rand_dfs[seed], betas), "beta")
        for b in betas:
            sb_u, sb_v = R.beta_offsets(rand_edges[seed], b)
            for (beta, side, vid), off in got.items():
                if beta != b:
                    continue
                exp = (sb_u if side == "u" else sb_v).get(vid, 0)
                assert off == exp, (beta, side, vid, off, exp)

    def test_fig2_values(self, fig2_df):
        got = _offsets_dict(D.beta_offsets(fig2_df, [3]), "beta")
        # s_b(x, 3): max α with x in the (α,3)-core; the (3,3)-core biclique
        # gives 3 for its members, v4/u4 fall out at β=3.
        assert got[(3, "u", 1)] == 3
        assert got[(3, "v", 4)] == 0


class TestCoreness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference(self, rand_edges, rand_dfs, seed):
        got = {(r.side, r.id): r.core for r in D.coreness(rand_dfs[seed]).collect()}
        exp = R.coreness(rand_edges[seed])
        assert got == exp

    def test_fig2(self, fig2_df):
        got = {(r.side, r.id): r.core for r in D.coreness(fig2_df).collect()}
        assert got[("u", 1)] == 3 and got[("u", 4)] == 2 and got[("v", 4)] == 2

    @pytest.mark.parametrize("seed", [1, 2])
    def test_delta(self, rand_edges, rand_dfs, seed):
        assert D.delta(rand_dfs[seed]) == R.delta(rand_edges[seed])

    def test_delta_reuses_coreness(self, fig2_df):
        cdf = D.coreness(fig2_df)
        assert D.delta(fig2_df, coreness_df=cdf) == 3


class TestMaxima:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_alpha_max(self, rand_edges, rand_dfs, seed):
        assert D.alpha_max(rand_dfs[seed]) == R.alpha_max(rand_edges[seed])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_beta_max(self, rand_edges, rand_dfs, seed):
        assert D.beta_max(rand_dfs[seed]) == R.beta_max(rand_edges[seed])


class TestTauTauCore:
    """The (τ,τ)-core (Table I's R_δδ at τ = δ) is the k-core with k = τ:
    ``abcore(τ, τ)`` keeps exactly the edges whose endpoints both have
    coreness ≥ τ."""

    @staticmethod
    def _by_coreness(df, edges, tau):
        core = {(r.side, r.id): r.core for r in D.coreness(df).collect()}
        return {(u, v) for u, v, _ in edges
                if min(core[("u", u)], core[("v", v)]) >= tau}

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_matches_reference(self, rand_edges, rand_dfs, seed, tau):
        got = eset_result(abcore(rand_dfs[seed], tau, tau))
        assert got == eset(R.abcore(rand_edges[seed], tau, tau))
        assert got == self._by_coreness(rand_dfs[seed], rand_edges[seed], tau)

    def test_fig2_delta_core(self, fig2_df, fig2_edges):
        got = eset_result(abcore(fig2_df, 3, 3))
        assert got == {(u, v) for u in (1, 2, 3) for v in (1, 2, 3)}
        assert got == self._by_coreness(fig2_df, fig2_edges, 3)
