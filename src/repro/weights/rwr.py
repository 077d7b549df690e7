"""Random-walk-with-restart relevance weights (paper ref [23], Table III RW).

The paper generates weights for unweighted datasets with the random walk
with restart model. Running a separate walk per source vertex is O(n·m);
DESIGN.md §4 substitutes the closest bulk equivalent: a global
degree-normalized relevance (PageRank-style power iteration with restart
probability ``1 - DAMPING``) over the bipartite graph, with the weight of an
edge derived from its endpoints' stationary relevances. What Table III's RW
row exercises — weights *correlated with graph structure*, as opposed to the
independent UF/SK draws — is preserved.

Like the other distributions (``repro.weights.distributions``), it takes a
pandas edge list and returns a copy with a ``w`` column, so the weights
exist before the graph becomes a DataFrame. Each power-iteration step is
two ``bincount`` calls over the edge arrays.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

DAMPING = 0.85
ITERS = 12  # power-iteration steps


def _walk(pdf: pd.DataFrame):
    """``(us, vs, iu, iv, score)``: the sorted u and v ids, each edge's
    ends as indices into the vertex order ``us`` then ``vs``, and each
    vertex's score in that order."""
    us, iu = np.unique(pdf["u"].to_numpy(), return_inverse=True)
    vs, iv = np.unique(pdf["v"].to_numpy(), return_inverse=True)
    n = len(us) + len(vs)
    iv = iv + len(us)
    deg = np.bincount(iu, minlength=n) + np.bincount(iv, minlength=n)
    score = np.full(n, 1.0 / n)
    for _ in range(ITERS):
        contrib = score / deg
        inflow = (np.bincount(iv, contrib[iu], minlength=n)
                  + np.bincount(iu, contrib[iv], minlength=n))
        score = (1.0 - DAMPING) / n + DAMPING * inflow
    return us, vs, iu, iv, score


def rwr_scores(pdf: pd.DataFrame) -> pd.DataFrame:
    """Stationary relevance score per vertex: ``(side, id, score)``."""
    us, vs, _, _, score = _walk(pdf)
    return pd.DataFrame({
        "side": np.repeat(["u", "v"], [len(us), len(vs)]),
        "id": np.concatenate([us, vs]),
        "score": score,
    })


def rwr_weights(pdf: pd.DataFrame) -> pd.DataFrame:
    """A copy of ``pdf`` with ``w`` replaced by structure-derived weights in
    (0, 1].

    ``w(u, v)`` is the min-max-normalized sum of the endpoints' relevance
    scores, so edges between globally central vertices get large weights;
    every weight is 1.0 when all the sums are equal.
    """
    _, _, iu, iv, score = _walk(pdf)
    raw = score[iu] + score[iv]
    lo, hi = raw.min(), raw.max()
    out = pdf.copy()
    out["w"] = 1.0 if hi == lo else (raw - lo) / (hi - lo) * 0.999 + 0.001
    return out
