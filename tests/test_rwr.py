"""Random-walk-with-restart weight substrate: stochastic invariants and a
loop-based power-iteration cross-check."""
import numpy as np
import pandas as pd
import pytest

from repro.weights.rwr import rwr_scores, rwr_weights
from tests.util import rand_bipartite

EDGES = rand_bipartite(31, n_u=8, n_l=6, m=30)


def _pdf(edges):
    return pd.DataFrame(edges, columns=["u", "v", "w"])


PDF = _pdf(EDGES)


def _numpy_scores(edges, damping=0.85, iters=12):
    verts = sorted({("u", u) for u, _, _ in edges} | {("v", v) for _, v, _ in edges})
    idx = {x: i for i, x in enumerate(verts)}
    n = len(verts)
    deg = np.zeros(n)
    pairs = []
    for u, v, _ in edges:
        a, b = idx[("u", u)], idx[("v", v)]
        deg[a] += 1
        deg[b] += 1
        pairs.append((a, b))
    s = np.full(n, 1.0 / n)
    for _ in range(iters):
        inflow = np.zeros(n)
        for a, b in pairs:
            inflow[b] += s[a] / deg[a]
            inflow[a] += s[b] / deg[b]
        s = (1 - damping) / n + damping * inflow
    return {x: s[i] for x, i in idx.items()}


def _scores(edges):
    s = rwr_scores(_pdf(edges))
    return {(side, int(i)): score for side, i, score in s.itertuples(index=False)}


def test_scores_match_numpy():
    got = _scores(EDGES)
    exp = _numpy_scores(EDGES)
    assert got.keys() == exp.keys()
    for k in exp:
        assert got[k] == pytest.approx(exp[k], rel=1e-9)


def test_scores_sum_to_one():
    assert rwr_scores(PDF)["score"].sum() == pytest.approx(1.0, rel=1e-6)


def test_scores_positive():
    assert (rwr_scores(PDF)["score"] > 0).all()


def test_hub_scores_higher():
    s = _scores([(1, v, 1.0) for v in range(6)] + [(2, 0, 1.0)])
    assert s[("u", 1)] > s[("u", 2)]


def test_weights_in_unit_range():
    w = rwr_weights(PDF)["w"]
    assert 0 < w.min() <= w.max() <= 1.0


def test_weights_cover_all_edges():
    out = rwr_weights(PDF)
    assert list(zip(out["u"], out["v"])) == [(u, v) for u, v, _ in EDGES]
    assert PDF["w"].tolist() == [w for _, _, w in EDGES]  # input left as it was


def test_weights_deterministic():
    assert rwr_weights(PDF).equals(rwr_weights(PDF))


def test_single_edge_graph():
    assert rwr_weights(_pdf([(1, 1, 1.0)]))["w"].tolist() == [1.0]
