"""Tests of the synthetic data generators: determinism, schema, shape."""
import numpy as np
import pandas as pd

from repro import synth_data as sd


class TestBipartitePdf:
    def test_deterministic(self):
        a = sd.bipartite_pdf(n_u=50, n_l=40, m=300, seed=9)
        b = sd.bipartite_pdf(n_u=50, n_l=40, m=300, seed=9)
        pd.testing.assert_frame_equal(a, b)

    def test_seed_changes_graph(self):
        a = sd.bipartite_pdf(n_u=50, n_l=40, m=300, seed=9)
        b = sd.bipartite_pdf(n_u=50, n_l=40, m=300, seed=10)
        assert not a.equals(b)

    def test_simple_graph(self):
        pdf = sd.bipartite_pdf(n_u=30, n_l=30, m=200, seed=1)
        assert not pdf.duplicated(["u", "v"]).any()

    def test_edge_count_near_target(self):
        pdf = sd.bipartite_pdf(n_u=500, n_l=500, m=2000, seed=2)
        assert 0.9 * 2000 <= len(pdf) <= 2000

    def test_id_ranges(self):
        pdf = sd.bipartite_pdf(n_u=20, n_l=10, m=100, seed=3)
        assert pdf["u"].between(0, 19).all()
        assert pdf["v"].between(0, 9).all()

    def test_skew_increases_hubbiness(self):
        flat = sd.bipartite_pdf(n_u=200, n_l=200, m=1500, skew_u=0.1, seed=4)
        skewed = sd.bipartite_pdf(n_u=200, n_l=200, m=1500, skew_u=1.4, seed=4)
        assert (
            skewed.groupby("u").size().max() > flat.groupby("u").size().max()
        )


class TestPlantedPdf:
    def test_plant_present_and_dense(self):
        pdf = sd.planted_bipartite_pdf(
            n_u=100, n_l=50, m=800, plant_u=10, plant_l=6, plant_p=0.9, seed=5
        )
        block = pdf[pdf["planted"]]
        assert (block["u"] < 10).all() and (block["v"] < 6).all()
        assert len(block) >= 0.7 * 10 * 6

    def test_background_not_marked(self):
        pdf = sd.planted_bipartite_pdf(
            n_u=100, n_l=50, m=800, plant_u=10, plant_l=6, seed=5
        )
        bg = pdf[~pdf["planted"]]
        assert len(bg) > 0
        assert not pdf.duplicated(["u", "v"]).any()

    def test_deterministic(self):
        kw = dict(n_u=60, n_l=30, m=400, plant_u=8, plant_l=5, seed=6)
        pd.testing.assert_frame_equal(
            sd.planted_bipartite_pdf(**kw), sd.planted_bipartite_pdf(**kw)
        )


class TestZipfProbs:
    def test_normalised(self):
        p = sd._zipf_probs(100, 0.9)
        assert np.isclose(p.sum(), 1.0)

    def test_monotone(self):
        p = sd._zipf_probs(50, 1.1)
        assert (np.diff(p) <= 0).all()

