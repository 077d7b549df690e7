"""Dataset stand-in registry: every config loads to a sane weighted graph."""
import pytest
from pyspark.sql import functions as F

from repro import datasets
from repro.graph.schema import checkpoint
from tests.util import spark_jobs


def test_eleven_datasets_like_the_paper():
    assert len(datasets.CONFIGS) == 11
    assert set(datasets.BY_NAME) == {
        "BS", "GH", "SO", "LS", "DT", "AR", "PA", "ML", "DUI", "EN", "DTI"
    }


def test_paper_stats_recorded():
    for cfg in datasets.CONFIGS:
        assert set(cfg.paper) == {
            "E", "U", "L", "delta", "alpha_max", "beta_max", "R_dd"
        }


def test_structure_deterministic():
    cfg = datasets.BY_NAME["GH"]
    a, b = datasets.structure_pdf(cfg), datasets.structure_pdf(cfg)
    assert a.equals(b)


def test_shapes_follow_config():
    for cfg in datasets.CONFIGS:
        pdf = datasets.structure_pdf(cfg)
        assert 0.7 * cfg.m <= len(pdf) <= cfg.m
        assert pdf["u"].max() < cfg.n_u and pdf["v"].max() < cfg.n_l


@pytest.mark.parametrize("name", ["BS", "GH", "SO", "PA"])
def test_load_weighted(spark, name):
    df = datasets.load(spark, name)
    assert df.columns == ["u", "v", "w"]
    lo = df.agg(F.min("w")).first()[0]
    assert df.count() > 0 and lo > 0


def test_ratings_dataset_half_stars(spark):
    df = datasets.load(spark, "BS")
    bad = df.where((F.col("w") * 2) % 1 != 0).count()
    assert bad == 0


def test_rw_dataset_structure_weights(spark):
    df = datasets.load(spark, "DT")
    assert df.select("w").distinct().count() > 10  # not all equal


def test_rw_load_runs_no_extra_jobs(spark):
    """RW weights are computed before the DataFrame exists: loading DT (RW)
    costs the Spark jobs that loading GH (uniform weights) does."""
    def jobs(name):
        return spark_jobs(spark, lambda: checkpoint(datasets.load(spark, name)))

    assert jobs("DT") == jobs("GH")


class TestMlComedyLike:
    @pytest.fixture(scope="class")
    def graph(self, spark):
        return datasets.ml_comedy_like(spark).cache()

    def test_query_user_present(self, graph):
        assert graph.where(F.col("u") == 0).count() > 0

    def test_planted_block_high_rated(self, graph):
        block = graph.where((F.col("u") < 40) & (F.col("v") < 16))
        assert block.agg(F.min("w")).first()[0] >= 4.5
        assert block.count() >= 0.7 * 40 * 16

    def test_background_has_low_ratings(self, graph):
        assert graph.agg(F.min("w")).first()[0] < 4.0

    def test_deterministic(self, spark, graph):
        again = datasets.ml_comedy_like(spark)
        a = sorted((r.u, r.v, r.w) for r in graph.collect())
        b = sorted((r.u, r.v, r.w) for r in again.collect())
        assert a == b
