"""Histogram metrics and comparison reports, checked against hand-computed
distances: uniform vs triangular(2x) on [0, 1] has L1 distance exactly 1/2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epichain import (
    ComparisonReport, histogram_from_density, histogram_from_samples, l1_histogram_distance,
)
from epichain.analysis import Histogram


class TestHistogram:
    def test_density_normalized(self):
        h = histogram_from_samples(np.array([0.1, 0.4, 0.6, 0.9]), np.linspace(0, 1, 5))
        assert np.sum(h.density * h.widths) == pytest.approx(1.0)
        assert np.all(h.density >= 0)

    def test_out_of_range_mass_counted(self):
        samples = np.array([0.5, 0.5, 3.0, -1.0])
        h = histogram_from_samples(samples, np.linspace(0, 1, 3))
        # half the weight fell outside, so in-range mass is 1/2
        assert np.sum(h.density * h.widths) == pytest.approx(0.5)

    def test_weights(self):
        samples = np.array([0.25, 0.75])
        h = histogram_from_samples(samples, np.linspace(0, 1, 3), weights=np.array([3.0, 1.0]))
        assert h.density[0] == pytest.approx(1.5)
        assert h.density[1] == pytest.approx(0.5)

    def test_from_density_simpson_exact_for_quadratics(self):
        edges = np.linspace(0.0, 1.0, 9)
        h = histogram_from_density(lambda x: 3.0 * np.asarray(x) ** 2, edges)
        exact = (edges[1:] ** 3 - edges[:-1] ** 3) / (edges[1:] - edges[:-1])
        assert np.allclose(h.density, exact, rtol=1e-12)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


class TestL1Distance:
    def test_identical_is_zero(self):
        edges = np.linspace(0, 1, 11)
        h = histogram_from_density(lambda x: np.ones_like(np.asarray(x)), edges)
        assert l1_histogram_distance(h, h) == 0.0

    def test_disjoint_is_two(self):
        edges = np.linspace(0.0, 2.0, 21)
        left = histogram_from_samples(np.random.default_rng(1).uniform(0.0, 1.0, 500), edges)
        right = histogram_from_samples(np.random.default_rng(2).uniform(1.0, 2.0, 500), edges)
        assert l1_histogram_distance(left, right) == pytest.approx(2.0)

    def test_uniform_vs_triangular_is_half(self):
        edges = np.linspace(0.0, 1.0, 201)
        uni = histogram_from_density(lambda x: np.ones_like(np.asarray(x)), edges)
        tri = histogram_from_density(lambda x: 2.0 * np.asarray(x), edges)
        assert l1_histogram_distance(uni, tri) == pytest.approx(0.5, abs=1e-3)

    def test_rejects_mismatched_grids(self):
        a = histogram_from_samples(np.array([0.5]), np.linspace(0, 1, 5))
        b = histogram_from_samples(np.array([0.5]), np.linspace(0, 1, 6))
        with pytest.raises(ValueError):
            l1_histogram_distance(a, b)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        edges = np.linspace(0.0, 1.0, 9)
        h1 = histogram_from_samples(rng.uniform(0, 1, 50), edges)
        h2 = histogram_from_samples(rng.uniform(0, 1, 50), edges)
        d = l1_histogram_distance(h1, h2)
        assert 0.0 <= d <= 2.0 + 1e-12
        assert d == l1_histogram_distance(h2, h1)
        assert l1_histogram_distance(h1, h1) == 0.0


class TestComparisonReport:
    def test_pass_fail(self):
        good = ComparisonReport(name="x", value=0.01, threshold=0.05)
        bad = ComparisonReport(name="x", value=0.06, threshold=0.05)
        assert good.passed and not bad.passed
        assert "[PASS]" in good.line()
        assert "[FAIL]" in bad.line()

    def test_boundary_passes(self):
        assert ComparisonReport(name="x", value=0.05, threshold=0.05).passed

    def test_work_holds_python_numbers(self):
        # numpy scalars become the ints and floats JSON writes; a counter shows in full
        rep = ComparisonReport(name="x", value=0.0, threshold=1.0,
                               work={"contacts": np.int64(1501623), "max": np.float64(0.0129103)})
        assert rep.work == {"contacts": 1501623, "max": 0.0129103}
        assert [type(v) for v in rep.work.values()] == [int, float]
        assert rep.line().endswith(" (contacts=1501623, max=0.0129103)")

    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            ComparisonReport(name="x", value=0.0, threshold=1.0, se=-1.0)
