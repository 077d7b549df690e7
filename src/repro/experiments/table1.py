"""Table I — Summary of Datasets.

For every (synthetic stand-in) dataset: |E|, |U|, |L|, δ, α_max, β_max and
|R_δδ|, reported next to the paper's values for the original KONECT graph.
Each statistic is one checked collect of the edge list (``graph_stats``,
``coreness``, ``alpha_max``, ``beta_max``, ``abcore``) reduced on the
driver; δ reads ``coreness``'s rows without another Spark job.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro import datasets
from repro.graph.decomposition import alpha_max, beta_max, delta
from repro.graph.peel import abcore
from repro.graph.schema import graph_stats


def dataset_row(spark: SparkSession, name: str) -> dict:
    """One Table I row for one dataset."""
    cfg = datasets.BY_NAME[name]
    edges = datasets.load(spark, name)
    stats = graph_stats(edges)
    d = delta(edges)
    # R_δδ: the (δ,δ)-core, which is the k-core with k = δ
    r_dd = len(abcore(edges, d, d).collect()) if d > 0 else 0
    return {
        "dataset": name,
        "E": stats["m"],
        "U": stats["n_u"],
        "L": stats["n_l"],
        "delta": d,
        "alpha_max": alpha_max(edges),
        "beta_max": beta_max(edges),
        "R_dd": r_dd,
        "paper_E": cfg.paper["E"],
        "paper_U": cfg.paper["U"],
        "paper_L": cfg.paper["L"],
        "paper_delta": cfg.paper["delta"],
        "paper_alpha_max": cfg.paper["alpha_max"],
        "paper_beta_max": cfg.paper["beta_max"],
        "paper_R_dd": cfg.paper["R_dd"],
    }


def run(spark: SparkSession, names: list[str] | None = None) -> pd.DataFrame:
    names = names or [c.name for c in datasets.CONFIGS]
    return pd.DataFrame([dataset_row(spark, n) for n in names])
