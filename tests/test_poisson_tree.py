"""Dual tree sampler: agreement with the limit solver, geodesic path
structure and its agreement with the batched estimators, the conditioned
first-step law, and the exactness of censoring each estimator at the latest
time it reads."""

import math

import numpy as np
import pytest

from epichain import (
    ContactRate, conditioned_first_step, estimate_B, sample_geodesic, tree_params,
)
from epichain.poisson_tree import _batch_sigma, sample_root_decorations


@pytest.fixture(scope="module")
def params(kernel, ic, unit_contact):
    return tree_params(kernel, ic, unit_contact, horizon=8.0)


class TestEstimateB:
    def test_matches_solver(self, params, sol):
        grid = np.array([2.0, 5.0, 8.0])
        curve = estimate_B(params, grid, 20_000, seed=801)
        b_sol = np.interp(grid, sol.t, sol.B)
        assert np.all(np.abs(curve.estimate - b_sol) < 4.0 * curve.se)

    def test_estimates_monotone(self, params):
        grid = np.array([1.0, 3.0, 6.0, 8.0])
        curve = estimate_B(params, grid, 5_000, seed=802)
        assert np.all(np.diff(curve.estimate) >= 0)
        assert np.all(curve.se > 0)

    def test_rejects_small_sample(self, params):
        with pytest.raises(ValueError):
            estimate_B(params, [2.0], 100, seed=1)

    def test_rejects_grid_beyond_horizon(self, params):
        with pytest.raises(ValueError):
            estimate_B(params, [9.0], 5_000, seed=1)

    @pytest.mark.parametrize("grid", [[], [1.0, math.nan], [math.inf], [-math.inf, 2.0]])
    def test_rejects_empty_or_non_finite_grid(self, params, grid):
        with pytest.raises(ValueError, match="grid"):
            estimate_B(params, grid, 5_000, seed=1)

    def test_node_cap_triggers(self, kernel, ic, unit_contact):
        tight = tree_params(kernel, ic, unit_contact, horizon=8.0, node_cap=2)
        with pytest.raises(RuntimeError):
            estimate_B(tight, [2.0], 2_000, seed=3)


class TestScalarBatchParity:
    """A geodesic drawn for (seed, index) agrees bitwise with the batched
    estimators' draw for the same root."""

    def test_sigma_bitwise_equal(self, params):
        batch, _, _, _ = _batch_sigma(params, 64, seed=811)
        for i in range(64):
            one = sample_geodesic(params, seed=811, index=i)
            if one.censored:
                assert math.isinf(batch[i])
            else:
                assert one.sigma == batch[i]

    def test_first_step_matches_path(self, params):
        _, first, _, _ = _batch_sigma(params, 64, seed=811, want_first_step=True)
        for i in range(64):
            one = sample_geodesic(params, seed=811, index=i)
            if one.censored:
                assert math.isnan(first[i])
            else:
                assert one.path_times[1] == first[i]


# (index, path_times as float.hex) of seed 821 at horizon 8, recorded when
# geodesics came from a separate recursive sampler
RECORDED_PATHS = {
    16: ["0x1.f8d0d368ad6f6p+1", "0x1.bb0705312b954p+1", "0x1.9220e412446dap+1",
         "0x1.00cabeeb0d8aep+1", "0x1.11d1fa9efce75p+0", "-0x1.91e854b40aa79p-5"],
    34: ["0x1.c6871998259dbp+2", "0x1.c019650ced02ap+2", "0x1.13f91d0181771p+2",
         "0x1.f93b658220cffp+0", "0x1.8339f10973366p-3", "-0x1.6f3b2431cfd1ep-3"],
    36: ["0x1.633d89fcdf82ep+1", "0x1.9ec39971ad63dp+0", "0x1.6a15243ec7770p+0",
         "0x1.0c9dd1de091aep+0", "0x1.d65abd51d3864p-1", "0x1.d6b87866be278p-2",
         "-0x1.0e66420cb7c5dp-1"],
}


class TestGeodesicPaths:
    def test_path_structure(self, params):
        found = 0
        for i in range(200):
            one = sample_geodesic(params, seed=821, index=i)
            if one.censored:
                assert one.path_times.size == 0 and one.terminal_age is None
                continue
            found += 1
            assert one.path_times[0] == one.sigma
            assert np.all(np.diff(one.path_times) < 0)
            assert one.terminal_age is not None and one.terminal_age > 0
            assert one.path_times[-1] == -one.terminal_age
            assert one.max_depth >= one.path_times.size - 2
        assert found > 20

    def test_recorded_paths_reproduced(self, params):
        for i, want in RECORDED_PATHS.items():
            one = sample_geodesic(params, seed=821, index=i)
            assert [x.hex() for x in one.path_times] == want
            assert one.sigma.hex() == want[0]
        counts = sample_geodesic(params, seed=821, index=34)
        assert (counts.nodes_expanded, counts.nodes_pruned, counts.max_depth) == (22, 7, 6)

    def test_rejects_negative_index(self, params):
        with pytest.raises(ValueError, match="index"):
            sample_geodesic(params, seed=821, index=-1)

    def test_decorated_courses(self, kernel, ic, unit_contact, model):
        p = tree_params(kernel, ic, unit_contact, horizon=8.0, model=model)
        for i in range(80):
            one = sample_geodesic(p, seed=823, index=i)
            if one.censored:
                continue
            assert one.path_courses is not None
            assert len(one.path_courses) == one.path_times.size
            for course in one.path_courses:
                course.validate(model)
            return
        pytest.fail("all 80 samples censored")


class TestConditionedFirstStep:
    def test_window_and_ordering(self, params):
        sample = conditioned_first_step(params, 4.0, 0.5, 30_000, seed=831)
        assert sample.n_conditioned >= 200
        assert np.all(sample.sigmas >= 4.0)
        assert np.all(sample.sigmas <= 4.5)
        assert np.all(sample.values < sample.sigmas)

    def test_too_few_conditioned_raises(self, params):
        with pytest.raises(RuntimeError):
            conditioned_first_step(params, 7.9, 0.05, 2_000, seed=832)

    @pytest.mark.parametrize("t, delta, name", [
        (math.nan, 0.5, "t"), (-math.inf, 0.5, "t"), (4.0, math.nan, "delta"),
        (4.0, math.inf, "delta"),
    ])
    def test_rejects_non_finite_window(self, params, t, delta, name):
        with pytest.raises(ValueError, match=f"window {name} must be finite"):
            conditioned_first_step(params, t, delta, 2_000, seed=832)

    @pytest.mark.parametrize("t, delta", [(-5.0, 1.0), (-1.0, 1.0)])
    def test_rejects_window_ending_at_or_before_zero(self, params, t, delta):
        with pytest.raises(ValueError, match=rf"window \[{t}, {t + delta}\] ends at or before 0"):
            conditioned_first_step(params, t, delta, 2_000, seed=833)

    def test_recorded_values_reproduced(self, params):
        # recorded as float.hex when every tree was expanded to the horizon
        sample = conditioned_first_step(params, 2.0, 3.0, 4_000, seed=851)
        assert sample.n_conditioned == 301
        assert [x.hex() for x in sample.values[:3]] == [
            "0x1.0cfd42a7bca86p+2", "0x1.fd771d0b3f624p+0", "0x1.98221f5e84dd0p+1"]
        assert [x.hex() for x in sample.sigmas[:3]] == [
            "0x1.2a666ce33a4a1p+2", "0x1.a742ca6e95d16p+1", "0x1.1d4d4d4520a60p+2"]
        assert float(np.sum(sample.values)).hex() == "0x1.c504e15f81912p+9"
        assert float(np.sum(sample.sigmas)).hex() == "0x1.1b9c68d5a9a3ep+10"


# contact halved from t = 3, so that windows past 3 see marks rejected
HALVED = dict(knots=(0.0, 3.0), levels=(1.0, 0.5), kind="step")


class TestCensoring:
    """Each estimator expands its trees only up to the latest time it reads;
    every sample it reads is bitwise the full-horizon sample."""

    @pytest.mark.parametrize("contact, t, delta, n", [
        ("unit", 4.0, 0.5, 16_000),
        ("unit", 7.0, 1.0, 4_000),      # window ends at the horizon
        ("halved", 3.0, 2.0, 16_000),
        ("halved", 5.0, 3.0, 24_000),   # window ends at the horizon
    ])
    def test_first_step_matches_full_horizon(self, kernel, ic, contact, t, delta, n):
        rate = ContactRate.constant(1.0) if contact == "unit" else ContactRate(**HALVED)
        p = tree_params(kernel, ic, rate, horizon=8.0)
        sample = conditioned_first_step(p, t, delta, n, seed=861)
        sigma, first, expanded, pruned = _batch_sigma(p, n, seed=861, want_first_step=True)
        sel = (sigma >= t) & (sigma <= t + delta)
        assert np.array_equal(sample.sigmas, sigma[sel])
        assert np.array_equal(sample.values, first[sel])
        if t + delta < p.horizon:
            assert sample.nodes_expanded < expanded
        else:
            assert (sample.nodes_expanded, sample.nodes_pruned) == (expanded, pruned)

    @pytest.mark.parametrize("contact", ["unit", "halved"])
    def test_estimate_B_matches_full_horizon(self, kernel, ic, contact):
        rate = ContactRate.constant(1.0) if contact == "unit" else ContactRate(**HALVED)
        p = tree_params(kernel, ic, rate, horizon=8.0)
        grid = np.array([1.0, 3.0, 6.0])
        curve = estimate_B(p, grid, 5_000, seed=862)
        sigma, _, expanded, _ = _batch_sigma(p, 5_000, seed=862)
        frac = (sigma[:, None] <= grid[None, :]).mean(axis=0)
        assert np.array_equal(curve.estimate, p.s0 * frac)
        assert np.array_equal(curve.se, p.s0 * np.sqrt(frac * (1.0 - frac) / 5_000))
        assert curve.nodes_expanded < expanded


class TestRootDecorations:
    def test_shapes_and_marginals(self, params):
        k_s, k_i, w, wbar, z = sample_root_decorations(params, 40_000, seed=841)
        assert w.size == k_s.sum()
        assert z.size == wbar.size == k_i.sum()
        # z-marginal of the joint law is Exp(3/2)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - 2.0 / 3.0) < 4 * se
        # delay edges follow nu_bar = Exp(1)
        se_w = wbar.std(ddof=1) / math.sqrt(wbar.size)
        assert abs(wbar.mean() - 1.0) < 4 * se_w
