"""Significant (α,β)-community search: the three entry points vs the
literal sequential Algorithm 4, plus model-invariant, input-validation and
Spark job-count checks."""
import math

import pytest
from pyspark.sql import functions as F

from repro.core.query import q_online
from repro.core.scs import (
    _expand_ladder,
    _lemma7_ok,
    scs_baseline,
    scs_expand,
    scs_peel,
)
from repro.graph.schema import edges_df
from repro.reference import ref_graph as R
from repro.reference import ref_scs as RS
from tests.util import eset, eset_df, eset_result, rand_bipartite, wset_df


def _case(seed, alpha, beta, qside="u"):
    """One (seed, α, β, qside) case; ``u`` cases keep their ``seed-α-β`` id."""
    tag = f"{seed}-{alpha}-{beta}" + ("" if qside == "u" else f"-{qside}")
    return pytest.param(seed, alpha, beta, qside, id=tag)


CASES = [
    _case(1, 2, 2), _case(1, 2, 3), _case(2, 2, 2), _case(3, 2, 2),
    _case(3, 3, 2), _case(1, 2, 2, "v"), _case(2, 2, 3, "v"),
    _case(3, 3, 2, "v"),
]


def _setup(rand_edges, rand_dfs, seed, alpha, beta, qside):
    core = R.abcore(rand_edges[seed], alpha, beta)
    if not core:
        pytest.skip("empty core")
    q = core[0][0 if qside == "u" else 1]
    exp = eset(RS.scs_peel(rand_edges[seed], q, qside, alpha, beta))
    community = q_online(rand_dfs[seed], q, qside, alpha, beta)
    return q, exp, community


@pytest.mark.parametrize("seed,alpha,beta,qside", CASES)
def test_scs_peel_matches_reference(rand_edges, rand_dfs, seed, alpha, beta, qside):
    q, exp, community = _setup(rand_edges, rand_dfs, seed, alpha, beta, qside)
    assert eset_result(scs_peel(community, q, qside, alpha, beta)) == exp


@pytest.mark.parametrize("seed,alpha,beta,qside", CASES)
def test_scs_expand_matches_reference(rand_edges, rand_dfs, seed, alpha, beta, qside):
    q, exp, community = _setup(rand_edges, rand_dfs, seed, alpha, beta, qside)
    assert eset_result(scs_expand(community, q, qside, alpha, beta)) == exp


@pytest.mark.parametrize("seed,alpha,beta,qside", CASES[:3] + CASES[5:6])
def test_scs_baseline_matches_reference(
    rand_edges, rand_dfs, seed, alpha, beta, qside
):
    q, exp, _ = _setup(rand_edges, rand_dfs, seed, alpha, beta, qside)
    assert eset_result(scs_baseline(rand_dfs[seed], q, qside, alpha, beta)) == exp


class TestFig2:
    """The paper's Example 1 analogue (tests/util.paper_figure2_like)."""

    def test_peel(self, fig2_df):
        c = q_online(fig2_df, 3, "u", 2, 2)
        r = wset_df(scs_peel(c, 3, "u", 2, 2))
        assert r == {(3, 1, 5.0), (3, 2, 5.0), (4, 1, 5.0), (4, 2, 5.0)}

    def test_expand(self, fig2_df):
        c = q_online(fig2_df, 3, "u", 2, 2)
        r = wset_df(scs_expand(c, 3, "u", 2, 2))
        assert r == {(3, 1, 5.0), (3, 2, 5.0), (4, 1, 5.0), (4, 2, 5.0)}

    def test_baseline(self, fig2_df):
        r = wset_df(scs_baseline(fig2_df, 3, "u", 2, 2))
        assert r == {(3, 1, 5.0), (3, 2, 5.0), (4, 1, 5.0), (4, 2, 5.0)}

    def test_other_query_lower_significance(self, fig2_df):
        c = q_online(fig2_df, 1, "u", 2, 2)
        r = scs_peel(c, 1, "u", 2, 2)
        assert r.agg(F.min("w")).first()[0] == 3.0

    def test_lower_side_query(self, fig2_df, fig2_edges):
        c = q_online(fig2_df, 1, "v", 2, 2)
        got = eset_df(scs_expand(c, 1, "v", 2, 2))
        assert got == eset(RS.scs_peel(fig2_edges, 1, "v", 2, 2))


class TestEdgeCases:
    def test_equal_weights_short_circuit(self, spark):
        from repro.graph.schema import edges_df

        flat = edges_df(spark, [(u, v, 2.0) for u in (1, 2) for v in (1, 2)])
        c = q_online(flat, 1, "u", 2, 2)
        assert eset_df(scs_peel(c, 1, "u", 2, 2)) == eset_df(c)
        assert eset_df(scs_expand(c, 1, "u", 2, 2)) == eset_df(c)
        assert eset_df(scs_baseline(flat, 1, "u", 2, 2)) == eset_df(c)

    def test_empty_community(self, fig2_df):
        c = q_online(fig2_df, 4, "u", 3, 3)  # u4 not in (3,3)-core
        assert c.count() == 0
        assert scs_peel(c, 4, "u", 3, 3).count() == 0
        assert scs_expand(c, 4, "u", 3, 3).count() == 0

    def test_baseline_query_not_in_any_core(self, fig2_df):
        assert scs_baseline(fig2_df, 4, "u", 3, 3).count() == 0

    def test_baseline_isolated_query(self, fig2_df):
        assert scs_baseline(fig2_df, 99, "u", 2, 2).count() == 0


class TestInvariants:
    """Definition 5 constraints hold on every returned R."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cohesive_connected_contains_q(self, rand_edges, rand_dfs, seed):
        alpha = beta = 2
        core = R.abcore(rand_edges[seed], alpha, beta)
        if not core:
            pytest.skip("empty core")
        q = core[0][0]
        c = q_online(rand_dfs[seed], q, "u", alpha, beta)
        r = [(x.u, x.v, x.w) for x in scs_peel(c, q, "u", alpha, beta).collect()]
        du, dv = R.degrees(r)
        assert all(d >= alpha for d in du.values())
        assert all(d >= beta for d in dv.values())
        assert q in du
        assert eset(R.component_of(r, q, "u")) == eset(r)


class TestHelpers:
    def test_lemma7(self):
        # A (2,2)-feasible C* needs m - n_u - n_l >= 0.
        assert _lemma7_ok(4, 2, 2, 2, 2)
        assert not _lemma7_ok(3, 2, 2, 2, 2)

    def test_expand_ladder_doubles_and_hits_bottom(self):
        hist = [(float(w), 1) for w in range(1, 101)]  # 100 distinct weights
        ladder = _expand_ladder(hist, 2.0)
        assert ladder[0] == 99 and ladder[-1] == 0
        assert len(ladder) <= 10  # log2(100) rungs + bottom

    def test_expand_ladder_single_weight(self):
        assert _expand_ladder([(1.0, 5)], 2.0) == [0]

    def test_expand_ladder_monotone(self):
        hist = [(float(w), w) for w in range(1, 31)]
        ladder = _expand_ladder(hist, 2.0)
        assert ladder == sorted(ladder, reverse=True)


SEARCHES = [scs_peel, scs_expand, scs_baseline]


class TestValidation:
    """Bad input fails loudly at every entry point."""

    @pytest.mark.parametrize("search", SEARCHES)
    def test_alpha_below_one(self, fig2_df, search):
        with pytest.raises(ValueError, match="alpha and beta"):
            search(fig2_df, 3, "u", 0, 2)

    @pytest.mark.parametrize("search", SEARCHES)
    def test_beta_below_one(self, fig2_df, search):
        with pytest.raises(ValueError, match="alpha and beta"):
            search(fig2_df, 3, "u", 2, 0)

    @pytest.mark.parametrize("search", SEARCHES)
    def test_unknown_side(self, fig2_df, search):
        with pytest.raises(ValueError, match="qside"):
            search(fig2_df, 3, "x", 2, 2)

    @pytest.mark.parametrize("search", SEARCHES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight(self, spark, fig2_edges, search, bad):
        df = edges_df(spark, fig2_edges[:-1] + [(3, 1, bad)])
        with pytest.raises(ValueError, match="finite"):
            search(df, 3, "u", 2, 2)

    @pytest.mark.parametrize("search", SEARCHES)
    def test_duplicate_pair(self, spark, fig2_edges, search):
        """A pair listed twice would count one neighbour twice in the peel's
        degrees."""
        df = edges_df(spark, fig2_edges + [(3, 1, 2.0)])
        with pytest.raises(ValueError, match="duplicate"):
            search(df, 3, "u", 2, 2).collect()


@pytest.mark.parametrize("search", [scs_peel, scs_expand])
def test_job_count_independent_of_distinct_weights(spark, search):
    """A search submits the same Spark jobs whatever the number of distinct
    weights in C: the weight ladder is walked on the driver."""
    sc = spark.sparkContext
    edges = rand_bipartite(7, n_u=10, n_l=10, m=90)
    core = R.abcore(edges, 3, 3)
    q = core[0][0]
    jobs = []
    for levels in (2, 50):
        weighted = [(u, v, float(1 + i % levels)) for i, (u, v, _) in enumerate(core)]
        community = edges_df(spark, weighted)
        group = f"scs-jobs-{search.__name__}-{levels}"
        sc.setLocalProperty("spark.jobGroup.id", group)
        try:
            r = search(community, q, "u", 3, 3).collect()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert {(x.u, x.v) for x in r} == eset(RS.scs_peel(weighted, q, "u", 3, 3))
        jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
    assert jobs[0] == jobs[1] > 0
