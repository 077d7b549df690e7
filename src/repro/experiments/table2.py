"""Table II — Statistics of query results (the case study).

On the MovieLens-comedy-style planted graph, compare five community models
around the same query user: SC (significant (α,β)-community), (α,β)-core
community, k-bitruss community (k = α·β), a maximal biclique containing q
(>= α vertices per layer), and C_4★ (movies with average rating >= 4).
Reported per model: |U|, |M|, R_avg, R_min, M_avg and the Jaccard
similarity against SC — the paper's exact columns.

Paper scale: q = 6778, α = β = 45 on 25M ratings. Reproduction scale:
q = 0 (inside the planted community), α = β = 8 on ~6K ratings
(DESIGN.md §4).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro import datasets
from repro.core.query import q_online
from repro.core.scs import scs_peel
from repro.models.biclique import biclique_edges, maximal_biclique
from repro.models.bitruss import bitruss_community
from repro.models.rating import c4star_community
from repro.models.stats import community_stats, vertex_set

# Paper Table II (q = 6,778, α = β = 45 on MovieLens comedy ratings).
PAPER = pd.DataFrame(
    [
        {"model": "SC", "U": 2127, "M": 670, "R_avg": 4.81, "R_min": 4.50,
         "M_avg": 63.47, "Sim_pct": 100.0},
        {"model": "ab-core", "U": 34466, "M": 2491, "R_avg": 3.39,
         "R_min": 0.5, "M_avg": 110.03, "Sim_pct": 7.57},
        {"model": "bitruss", "U": 158183, "M": 2985, "R_avg": 3.48,
         "R_min": 0.5, "M_avg": 35.87, "Sim_pct": 1.74},
        {"model": "biclique", "U": 65, "M": 45, "R_avg": 3.45, "R_min": 0.5,
         "M_avg": 45.0, "Sim_pct": 2.39},
        {"model": "C4star", "U": 114915, "M": 387, "R_avg": 4.16,
         "R_min": 0.5, "M_avg": 2.39, "Sim_pct": 1.82},
    ]
)


def run(
    spark: SparkSession,
    *,
    q: int = 0,
    alpha: int = 8,
    beta: int = 8,
) -> pd.DataFrame:
    """Measured Table II rows (same columns as ``PAPER``)."""
    edges = datasets.ml_comedy_like(spark)
    core_community = q_online(edges, q, "u", alpha, beta)
    sc = scs_peel(core_community, q, "u", alpha, beta)
    sc_verts = vertex_set(sc)

    us, vs = maximal_biclique(edges, q, "u", min_side=alpha)
    communities = {
        "SC": sc,
        "ab-core": core_community,
        "bitruss": bitruss_community(edges, q, "u", k=alpha * beta),
        "biclique": biclique_edges(edges, us, vs),
        "C4star": c4star_community(edges, q, "u"),
    }
    rows = []
    for name, comm in communities.items():
        s = community_stats(comm, reference=sc_verts)
        rows.append(
            {
                "model": name, "U": s.n_u, "M": s.n_m,
                "R_avg": round(s.r_avg, 2), "R_min": s.r_min,
                "M_avg": round(s.m_avg, 2), "Sim_pct": round(s.sim * 100, 2),
            }
        )
    return pd.DataFrame(rows)
