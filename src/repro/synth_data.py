"""Seeded synthetic bipartite graph generators.

The paper evaluates on 11 KONECT bipartite graphs, which are unreachable
offline. These generators produce seeded synthetic stand-ins: endpoints are
drawn from Zipf-like rank distributions (matching the heavy-tailed degree
sequences of the originals), deduplicated to a simple graph. DESIGN.md §4
documents the substitution. Generators are deterministic in ``seed``.
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _zipf_probs(n: int, skew: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype="float64")
    p = ranks**-skew
    return p / p.sum()


def bipartite_pdf(
    *,
    n_u: int,
    n_l: int,
    m: int,
    skew_u: float = 0.8,
    skew_l: float = 0.8,
    seed: int = 0,
) -> pd.DataFrame:
    """Simple bipartite edge list ``(u, v)`` with Zipf-skewed endpoints.

    Oversamples then deduplicates, so the result has at most ``m`` edges
    (usually within a few percent of it). Vertex ids are a random permutation
    of ranks so id order carries no degree information.
    """
    if m > 0.6 * n_u * n_l:
        raise ValueError(
            f"m={m} too dense for a {n_u}x{n_l} grid — raise the layer sizes"
        )
    g = _rng(seed)
    pu = _zipf_probs(n_u, skew_u)
    pl = _zipf_probs(n_l, skew_l)
    # Skewed draws collide heavily on hub pairs; top up until the dedup'd
    # edge set reaches m (bounded rounds — density is capped above).
    pdf = pd.DataFrame({"u": [], "v": []})
    for _ in range(12):
        draw = int((m - len(pdf)) * 1.6) + 16
        us = g.choice(n_u, size=draw, p=pu)
        vs = g.choice(n_l, size=draw, p=pl)
        pdf = (
            pd.concat([pdf, pd.DataFrame({"u": us, "v": vs})], ignore_index=True)
            .drop_duplicates()
            .head(m)
        )
        if len(pdf) >= m:
            break
    pdf = pdf.astype({"u": "int64", "v": "int64"})
    perm_u = g.permutation(n_u)
    perm_l = g.permutation(n_l)
    pdf = pd.DataFrame(
        {"u": perm_u[pdf["u"].to_numpy()], "v": perm_l[pdf["v"].to_numpy()]}
    )
    return pdf.reset_index(drop=True)


def planted_bipartite_pdf(
    *,
    n_u: int,
    n_l: int,
    m: int,
    plant_u: int,
    plant_l: int,
    plant_p: float = 0.9,
    skew_u: float = 0.8,
    skew_l: float = 0.8,
    seed: int = 0,
) -> pd.DataFrame:
    """Background Zipf graph plus a planted dense block.

    The planted block spans U ids ``[0, plant_u)`` x L ids ``[0, plant_l)``
    with edge probability ``plant_p`` and ``planted=True``; used by the
    Table II case study (a community of fans x movies with high ratings).
    Ids are NOT permuted so tests/jobs can address the planted block.
    """
    g = _rng(seed)
    pu = _zipf_probs(n_u, skew_u)
    pl = _zipf_probs(n_l, skew_l)
    draw = int(m * 1.6) + 16
    bg = pd.DataFrame(
        {
            "u": g.choice(n_u, size=draw, p=pu),
            "v": g.choice(n_l, size=draw, p=pl),
        }
    ).drop_duplicates().head(m)
    bg["planted"] = False
    mask = g.random((plant_u, plant_l)) < plant_p
    uu, vv = np.nonzero(mask)
    block = pd.DataFrame({"u": uu, "v": vv, "planted": True})
    out = pd.concat([block, bg], ignore_index=True)
    out = out.drop_duplicates(subset=["u", "v"], keep="first")
    return out.reset_index(drop=True)
