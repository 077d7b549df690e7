"""Synthetic stand-ins for the paper's 11 KONECT datasets (Table I).

KONECT is unreachable offline, so each dataset is replaced by a seeded
synthetic bipartite graph whose *shape* mirrors the original: the |U|:|L|
ratio, edge density, and layer skews are scaled from the paper's Table I
(~1/150-1/5000 of the original edge counts, clamped to laptop scale).
δ, α_max, β_max and |R_δδ| are then *emergent* statistics computed by our
decomposition — Table I in EXPERIMENTS.md compares their shape (which layer
dominates, relative δ, |R_δδ| ≪ |E|) against the paper's numbers.

Weight kinds per dataset: rating-valued graphs (book/movie/product reviews)
get half-star ratings; DT and PA were unweighted in the paper and received
random-walk-with-restart weights there, so they do here too ("rw", from
``repro.weights.rwr``); the remainder get quantized uniform interaction
weights. Every weighting runs on the pandas edge list, before the one
``createDataFrame``.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graph.schema import normalize
from repro.synth_data import bipartite_pdf, planted_bipartite_pdf
from repro.weights import distributions as wd
from repro.weights.rwr import rwr_weights


@dataclass(frozen=True)
class DatasetConfig:
    name: str
    n_u: int
    n_l: int
    m: int
    skew_u: float
    skew_l: float
    weights: str  # "ratings" | "uniform" | "rw"
    seed: int
    # Paper Table I values, for side-by-side reporting in EXPERIMENTS.md.
    paper: dict[str, float]


def _paper(e, u, lc, d, am, bm, r):
    return {
        "E": e, "U": u, "L": lc, "delta": d,
        "alpha_max": am, "beta_max": bm, "R_dd": r,
    }


# Scaled shapes: n_u/n_l keep each original's |U|:|L| ratio at the reduced
# edge count; skews are tuned so hub-heavy layers (huge α_max or β_max in
# the paper) stay hub-heavy after scaling.
CONFIGS: list[DatasetConfig] = [
    DatasetConfig("BS", 540, 1290, 3000, 0.95, 0.75, "ratings", 101,
                  _paper(433_000, 77_800, 186_000, 13, 8_524, 707, 13_600)),
    DatasetConfig("GH", 385, 830, 3000, 0.75, 0.95, "uniform", 102,
                  _paper(440_000, 56_500, 121_000, 39, 884, 3_675, 21_500)),
    DatasetConfig("SO", 2100, 380, 5000, 0.95, 0.95, "uniform", 103,
                  _paper(1_300_000, 545_000, 96_600, 22, 4_917, 6_119, 13_000)),
    DatasetConfig("LS", 60, 1960, 8000, 1.05, 0.70, "uniform", 104,
                  _paper(4_410_000, 992, 1_080_000, 164, 55_559, 773, 177_000)),
    DatasetConfig("DT", 2260, 40, 8000, 0.70, 1.05, "rw", 105,
                  _paper(5_740_000, 1_620_000, 383, 73, 378, 160_047, 30_500)),
    DatasetConfig("AR", 3000, 1710, 8000, 0.95, 0.80, "ratings", 106,
                  _paper(5_740_000, 2_150_000, 1_230_000, 26, 12_180, 3_096, 36_600)),
    DatasetConfig("PA", 1320, 3700, 8000, 0.70, 0.60, "rw", 107,
                  _paper(8_650_000, 1_430_000, 4_000_000, 10, 951, 119, 639)),
    DatasetConfig("ML", 1100, 400, 20000, 0.80, 0.80, "ratings", 108,
                  _paper(25_000_000, 162_000, 59_000, 636, 32_202, 81_491, 2_120_000)),
    DatasetConfig("DUI", 204, 8290, 25000, 0.85, 0.75, "uniform", 109,
                  _paper(102_000_000, 833_000, 33_800_000, 183, 24_152, 29_240, 2_300_000)),
    DatasetConfig("EN", 783, 4400, 25000, 1.10, 0.80, "uniform", 110,
                  _paper(122_000_000, 3_820_000, 21_500_000, 254, 1_916_898, 62_330, 1_030_000)),
    DatasetConfig("DTI", 823, 6170, 25000, 1.05, 0.75, "uniform", 111,
                  _paper(137_000_000, 4_510_000, 33_800_000, 180, 1_057_753, 6_382, 242_000)),
]

BY_NAME: dict[str, DatasetConfig] = {c.name: c for c in CONFIGS}


def structure_pdf(cfg: DatasetConfig) -> pd.DataFrame:
    """The dataset's (u, v) edge structure, deterministic in its seed."""
    return bipartite_pdf(
        n_u=cfg.n_u, n_l=cfg.n_l, m=cfg.m,
        skew_u=cfg.skew_u, skew_l=cfg.skew_l, seed=cfg.seed,
    )


def load(spark: SparkSession, name: str) -> DataFrame:
    """Materialise a dataset as a canonical weighted edge DataFrame."""
    cfg = BY_NAME[name]
    pdf = structure_pdf(cfg)
    if cfg.weights == "ratings":
        pdf = wd.ratings(pdf, seed=cfg.seed + 1)
    elif cfg.weights == "uniform":
        pdf = wd.uniform(pdf, seed=cfg.seed + 1, levels=100)
    elif cfg.weights == "rw":
        pdf = rwr_weights(pdf)
    else:
        raise ValueError(f"unknown weight kind {cfg.weights!r}")
    return normalize(spark.createDataFrame(pdf))


def ml_comedy_like(spark: SparkSession) -> DataFrame:
    """The Table II case-study graph: a MovieLens-comedy-style user-movie
    rating graph (400 users, 120 movies, ~6,000 ratings) with a planted
    community of 40 fans densely rating 16 movies at 4.5-5.0 stars (ids
    [0, 40) x [0, 16)). The query vertex of the case study is user 0
    (inside the plant).
    """
    plant_u, plant_l, seed = 40, 16, 42
    pdf = planted_bipartite_pdf(
        n_u=400, n_l=120, m=6000,
        plant_u=plant_u, plant_l=plant_l, plant_p=0.85,
        skew_u=0.8, skew_l=0.8, seed=seed,
    )
    # Every edge inside the plant rectangle is high-rated — including
    # background draws that happen to land there, so the planted block is
    # uniformly a 4.5+-star community.
    in_block = (
        (pdf["u"].to_numpy() < plant_u) & (pdf["v"].to_numpy() < plant_l)
    )
    pdf = wd.ratings(pdf, seed=seed + 1, high_mask=in_block, high_min=4.5)
    return normalize(spark.createDataFrame(pdf[["u", "v", "w"]]))
