"""Fig 8/10/11-shaped experiment — (α,β)-community retrieval and indexing.

Not a table in the paper, but Table III depends on ``Q_opt`` and the
retrieval comparison is the heart of Section III, so EXPERIMENTS.md records
its shape: per-query time of Q_o vs Q_v vs Q_opt at α = β = 0.7δ (Fig 8),
index construction time (Fig 10) and index size (Fig 11) for
I_v / I_bs^α / I_bs^β / I_δ.
"""
from __future__ import annotations

import tempfile

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import datasets
from repro.core.index_bicore import build_iv
from repro.core.index_bs import build_ibs_alpha, build_ibs_beta, index_disk_bytes, save_index
from repro.core.index_delta import build_idelta
from repro.core.query import q_bicore, q_online, q_opt
from repro.experiments.table3 import pick_queries, timed
from repro.graph.decomposition import delta
from repro.graph.schema import checkpoint


def run(
    spark: SparkSession,
    *,
    dataset: str = "GH",
    max_bs_slices: int | None = None,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns ``(index_df, query_df)``, over 3 seeded queries.

    ``index_df``: per index, build seconds / row count / Parquet bytes.
    ``query_df``: per algorithm, mean and std query seconds.
    ``max_bs_slices`` caps I_bs slice counts (the paper's time-limited
    builds on huge α_max/β_max datasets — capped builds are flagged).
    """
    edges = checkpoint(datasets.load(spark, dataset))
    d = delta(edges)
    a = b = max(2, round(0.7 * d))

    # Each build returns its index materialised.
    builders = {
        "I_v": lambda: build_iv(edges, delta_val=d),
        "I_delta": lambda: build_idelta(edges, delta_val=d),
        "I_bs_alpha": lambda: build_ibs_alpha(edges, max_alpha=max_bs_slices),
        "I_bs_beta": lambda: build_ibs_beta(edges, max_beta=max_bs_slices),
    }
    index_rows, built = [], {}
    for name, make in builders.items():
        idx, secs = timed(make)
        rows = idx.count()
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/{name}"
            part_cols = {
                "I_v": ["kind", "tau"],
                "I_delta": ["side", "tau"],
                "I_bs_alpha": ["alpha"],
                "I_bs_beta": ["beta"],
            }[name]
            save_index(idx, path, part_cols)
            disk = index_disk_bytes(path)
        built[name] = idx
        index_rows.append(
            {"index": name, "build_s": round(secs, 2), "rows": rows,
             "disk_bytes": disk, "capped": bool(max_bs_slices)}
        )

    queries = pick_queries(built["I_delta"], a, b, n=3)
    algs = {
        "Q_o": lambda q: len(q_online(edges, q, "u", a, b).collect()),
        "Q_v": lambda q: len(q_bicore(built["I_v"], edges, q, "u", a, b).collect()),
        "Q_opt": lambda q: len(q_opt(built["I_delta"], q, "u", a, b).collect()),
    }
    query_rows = []
    for name, fn in algs.items():
        ts, sizes = [], []
        for q in queries:
            size, secs = timed(lambda: fn(q))
            ts.append(secs)
            sizes.append(size)
        query_rows.append(
            {"algorithm": name, "alpha": a, "beta": b,
             "mean_s": round(float(np.mean(ts)), 2),
             "std_s": round(float(np.std(ts)), 2),
             "community_edges": int(np.mean(sizes))}
        )
    return pd.DataFrame(index_rows), pd.DataFrame(query_rows)
