"""Table III — SCS running time under different weight distributions.

On the DT-like dataset: the same edge structure carries four weight
assignments — AE (all equal), RW (random-walk-with-restart relevance),
UF (uniform), SK (skew-normal) — and the three SCS algorithms are timed on
the same seeded queries. The paper's shape: AE is a fast short-circuit for
all three; on RW/UF/SK SCS-Peel and SCS-Expand are comparable to each
other and several times faster than SCS-Baseline; the three non-equal
distributions behave similarly to each other.

The (α,β)-community of each query is retrieved through ``Q_opt`` (as in the
paper); I_δ is built once from the shared structure and re-weighted per
distribution (weights do not affect core topology).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro import datasets
from repro.core.index_delta import build_idelta
from repro.core.query import q_opt
from repro.core.scs import scs_baseline, scs_expand, scs_peel
from repro.graph.decomposition import coreness, delta
from repro.graph.schema import checkpoint, normalize
from repro.weights import distributions as wd
from repro.weights.rwr import rwr_weights

# Paper Table III (DT dataset, seconds).
PAPER = pd.DataFrame(
    [
        {"algorithm": "SCS-Baseline", "AE": 0.03, "RW": 3.12, "UF": 4.42, "SK": 4.31},
        {"algorithm": "SCS-Peel", "AE": 0.03, "RW": 0.34, "UF": 0.48, "SK": 0.45},
        {"algorithm": "SCS-Expand", "AE": 0.03, "RW": 0.31, "UF": 0.36, "SK": 0.36},
    ]
)

DISTRIBUTIONS = ("AE", "RW", "UF", "SK")


def weighted_variants(
    spark: SparkSession, *, dataset: str = "DT", levels: int = 60
) -> dict[str, DataFrame]:
    """The dataset's structure under each Table III weight distribution.

    Weights are quantized to ``levels`` distinct values, so every
    non-equal distribution has ties (one batch each in Alg. 4 and 5).
    """
    cfg = datasets.BY_NAME[dataset]
    pdf = datasets.structure_pdf(cfg)
    out: dict[str, DataFrame] = {}
    for dist in DISTRIBUTIONS:
        if dist == "AE":
            wpdf = wd.all_equal(pdf)
        elif dist == "UF":
            wpdf = wd.uniform(pdf, seed=cfg.seed + 11, levels=levels)
        elif dist == "SK":
            wpdf = wd.skew_normal(pdf, seed=cfg.seed + 12, levels=levels)
        else:  # RW — computed in Spark below
            wpdf = wd.all_equal(pdf)
        df = normalize(spark.createDataFrame(wpdf)).repartition(8)
        if dist == "RW":
            df = df.drop("w").join(
                rwr_weights(df).select("u", "v", "w"), ["u", "v"]
            )
            # quantize in-Spark to ``levels`` values, like UF and SK
            lo, hi = df.agg(F.min("w"), F.max("w")).first()
            span = (hi - lo) or 1.0
            df = df.withColumn(
                "w",
                F.round((F.col("w") - F.lit(lo)) / F.lit(span) * (levels - 1))
                * F.lit(span / (levels - 1)) + F.lit(lo),
            )
        out[dist] = checkpoint(df)
    return out


def reweight_index(idelta: DataFrame, weighted_edges: DataFrame) -> DataFrame:
    """Swap the index's weight column for another distribution's weights
    (core topology, hence the index structure, is weight-independent)."""
    return checkpoint(
        idelta.drop("w").join(
            weighted_edges.select("u", "v", "w"), ["u", "v"]
        ).select("side", "tau", "u", "v", "w", "off_u", "off_v")
    )


def pick_queries(
    idelta: DataFrame, alpha: int, beta: int, *, n: int = 3, seed: int = 0
) -> list[int]:
    """Seeded upper-layer query vertices drawn from the (α,β)-core."""
    side, tau, lo = ("a", alpha, beta) if alpha <= beta else ("b", beta, alpha)
    us = [
        int(r["u"])
        for r in (
            idelta.where(
                (F.col("side") == side) & (F.col("tau") == tau)
                & (F.col("off_u") >= lo) & (F.col("off_v") >= lo)
            )
            .select("u").distinct().orderBy("u").collect()
        )
    ]
    if not us:
        raise ValueError(f"({alpha},{beta})-core is empty — lower alpha/beta")
    rng = np.random.default_rng(seed)
    return [us[i] for i in rng.choice(len(us), size=min(n, len(us)), replace=False)]


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run(
    spark: SparkSession,
    *,
    dataset: str = "DT",
    n_queries: int = 3,
    alpha: int | None = None,
    beta: int | None = None,
) -> pd.DataFrame:
    """Measured Table III: mean seconds (± std in companion columns)."""
    variants = weighted_variants(spark, dataset=dataset)
    structure = variants["AE"]
    d = delta(structure, coreness_df=coreness(structure))
    a = alpha if alpha is not None else max(2, round(0.7 * d))
    b = beta if beta is not None else max(2, round(0.7 * d))
    idelta = checkpoint(build_idelta(structure, delta_val=d))
    queries = pick_queries(idelta, a, b, n=n_queries)

    results: dict[str, dict[str, list[float]]] = {
        alg: {dist: [] for dist in DISTRIBUTIONS}
        for alg in ("SCS-Baseline", "SCS-Peel", "SCS-Expand")
    }
    for dist in DISTRIBUTIONS:
        edges = variants[dist]
        idx = reweight_index(idelta, edges)
        for q in queries:
            results["SCS-Peel"][dist].append(_timed(
                lambda: scs_peel(q_opt(idx, q, "u", a, b), q, "u", a, b).count()
            ))
            results["SCS-Expand"][dist].append(_timed(
                lambda: scs_expand(q_opt(idx, q, "u", a, b), q, "u", a, b).count()
            ))
            results["SCS-Baseline"][dist].append(_timed(
                lambda: scs_baseline(edges, q, "u", a, b).count()
            ))
    rows = []
    for alg, per_dist in results.items():
        row: dict[str, object] = {"algorithm": alg, "alpha": a, "beta": b}
        for dist in DISTRIBUTIONS:
            ts = per_dist[dist]
            row[dist] = round(float(np.mean(ts)), 2)
            row[f"{dist}_std"] = round(float(np.std(ts)), 2)
        rows.append(row)
    return pd.DataFrame(rows)
