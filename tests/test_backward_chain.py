"""Backward chains: renewal jumps against the closed-form tilted density,
the martingale and survival diagnostics, kernel row sums, and the
h-transform identities linking killed renewal chains to conditioned ones."""

import math

import numpy as np
import pytest

from epichain import (
    GridDensity, MarkovSEIR, backward_density, h_row_sums, histogram_from_samples,
    initial_condition, l1_histogram_distance, ks_distance, make_rng, martingale_diagnostic,
    reweighted_first_steps, sample_h_chains, sample_h_first_steps,
    sample_renewal_chains, solve_delay, survival_representation_check,
)
from epichain import backward_chain
from epichain.backward_chain import (
    _b_envelope, _h_transition, _killing_failures, _renewal_block,
)


class TestRenewalChain:
    def test_path_structure(self, kernel):
        batch = sample_renewal_chains(6.0, kernel, 400, seed=71)
        finite = ~np.isnan(batch.times)
        assert np.array_equal(finite.sum(axis=1) - 1, batch.lengths)
        for i in range(0, 400, 40):
            row = batch.times[i][finite[i]]
            assert row[0] == 6.0
            assert np.all(np.diff(row) < 0)
            assert row[-1] <= 0
            assert np.all(row[:-1] > 0)
        assert np.all(batch.terminals <= 0)
        assert np.all(batch.increments > 0)

    def test_increments_follow_tilted_density(self, kernel):
        # r(u) = e^{-u/2} 1.5 e^{-u} = Exp(3/2)
        inc = sample_renewal_chains(8.0, kernel, 1_500, seed=73).increments
        d = ks_distance(inc, lambda x: 1.0 - np.exp(-1.5 * np.asarray(x)))
        assert d < 0.02, f"KS distance {d:.4f} against Exp(3/2)"

    def test_nonpositive_start_is_terminal(self, kernel):
        batch = sample_renewal_chains(-0.3, kernel, 5, seed=74)
        assert np.array_equal(batch.lengths, np.zeros(5))
        assert np.array_equal(batch.terminals, np.full(5, -0.3))

    def test_killing_flags(self, kernel, alpha, sol):
        rng = make_rng(75, "killing")
        R = _renewal_block(10.0, backward_density(kernel, alpha), 2_000, 3, rng)
        fails = _killing_failures(R, sol, rng)
        assert fails.shape == R.shape
        steps = np.diff(fails, axis=1, prepend=0)
        # cumulative counts of 0/1 failures, none at a nonpositive state
        assert np.all((steps == 0) | (steps == 1))
        assert np.all(steps[R <= 0] == 0)
        # S < 1 after t = 0, so both outcomes occur
        survived = fails[:, -1] == 0
        assert survived.any() and not survived.all()


class TestMartingale:
    def test_means_match_reference(self, sol):
        rep = martingale_diagnostic(4.0, sol, 60_000, k_max=8, seed=77)
        assert rep.reference == pytest.approx(
            float(sol.b_at(4.0)) * math.exp(-0.5 * 4.0), rel=1e-6)
        assert rep.mean[0] == pytest.approx(rep.reference, abs=1e-12)
        assert rep.max_deviation_in_se < 4.0

    def test_reference_frozen_value(self, sol):
        # b(5) e^{-5/2} for the benchmark scenario
        rep = martingale_diagnostic(5.0, sol, 2_000, k_max=2, seed=78)
        assert rep.reference == pytest.approx(0.003315, abs=5e-6)


class TestRecordedValues:
    """Recorded float.hex values: the killed-chain diagnostics must keep
    their random stream and arithmetic, so they reproduce these bitwise."""

    def test_martingale(self, sol):
        rep = martingale_diagnostic(5.0, sol, 1_000, k_max=3, seed=91)
        assert [float(v).hex() for v in rep.mean] == [
            "0x1.b27b1a295d34cp-9", "0x1.b011ba2032381p-9",
            "0x1.b0b69e1808c68p-9", "0x1.a9c98a2fed1c7p-9"]
        assert [float(v).hex() for v in rep.se] == [
            "0x0.0p+0", "0x1.3c76f5b51717dp-15",
            "0x1.a2e87d4d52387p-15", "0x1.ecef41e5822cbp-15"]

    def test_reweighted_first_steps(self, sol):
        rew = reweighted_first_steps(5.0, sol, 1_000, seed=92)
        assert rew.n_survivors == 647
        assert [float(v).hex() for v in rew.values[:3]] == [
            "0x1.1d1a2e49837b7p+1", "0x1.fb214a9baee86p+1", "0x1.f3e2dd1fb933dp+1"]
        assert [float(v).hex() for v in rew.weights[:3]] == [
            "0x1.8224da2043152p+0", "0x1.8224da203b388p+0", "0x1.8224da1fece98p+0"]
        assert float(rew.values.sum()).hex() == "0x1.5c4f7957c8884p+11"
        assert float(rew.weights.sum()).hex() == "0x1.e7f591a39dc27p+9"


class TestSurvivalRepresentation:
    def test_estimates_b(self, sol):
        rep = survival_representation_check(3.0, sol, 200_000, seed=79)
        assert abs(rep.b_solver - rep.estimate) < rep.band
        assert rep.within_band
        # the unit-normalized statistic overshoots b by exactly 1/I0
        assert rep.discrepancy_ratio == pytest.approx(100.0, rel=0.05)

    def test_requires_equilibrium_age_density(self, kernel, unit_contact):
        ic_off = initial_condition(kernel, 0.01, age_rate=0.8)
        sol_off = solve_delay(kernel, unit_contact, ic_off, 6.0, 0.005)
        with pytest.raises(ValueError):
            survival_representation_check(3.0, sol_off, 1_000, seed=80)


class TestConditionedChain:
    def test_batch_structure(self, sol):
        batch = sample_h_chains(6.0, sol, 400, seed=81)
        assert batch.times.shape[0] == 400
        finite = ~np.isnan(batch.times)
        assert np.array_equal(finite.sum(axis=1) - 1, batch.lengths)
        for i in range(0, 400, 40):
            row = batch.times[i][finite[i]]
            assert row[0] == 6.0
            assert np.all(np.diff(row) < 0)
            assert row[-1] <= 0 < row[-2]
        assert np.all(batch.terminals <= 0)
        assert np.array_equal(batch.first_steps, batch.times[:, 1])
        assert np.all(batch.first_increments > 0)

    def test_first_steps_stay_below_start(self, sol):
        starts = np.linspace(2.0, 8.0, 500)
        nxt = sample_h_first_steps(starts, sol, seed=85)
        assert np.all(nxt < starts)

    def test_rejects_vanishing_incidence(self, sol):
        # far in the negative past, b(-u) = I0 g(u) underflows the guard
        with pytest.raises(ValueError):
            sample_h_chains(-50.0, sol, 4, seed=1)

    @pytest.mark.parametrize("start, named", [
        (math.inf, "inf"), (math.nan, "nan"), (30.0, "30"), (-60.0, "-60"), (-1.0, "-1"),
    ])
    def test_first_steps_reject_bad_start(self, sol, start, named):
        # T = 25 here: 30 lies past the horizon, b(-60) is below the floor,
        # and a start <= 0 has already ended its chain
        with pytest.raises(ValueError, match=f"start {named} "):
            sample_h_first_steps(np.array([2.0, start]), sol, seed=1)

    @pytest.mark.parametrize("start, named", [
        (math.inf, "inf"), (math.nan, "nan"), (30.0, "30"), (-60.0, "-60"),
    ])
    def test_chains_reject_bad_start(self, sol, start, named):
        with pytest.raises(ValueError, match=f"start {named} "):
            sample_h_chains(start, sol, 4, seed=1)

    def test_nonpositive_start_is_terminal(self, sol):
        batch = sample_h_chains(-1.0, sol, 3, seed=2)
        assert np.array_equal(batch.lengths, np.zeros(3))
        assert batch.proposals == 0

    def test_same_seed_same_arrays(self, sol):
        a = sample_h_chains(4.0, sol, 300, seed=3)
        b = sample_h_chains(4.0, sol, 300, seed=3)
        assert np.array_equal(a.times, b.times, equal_nan=True)
        assert a.proposals == b.proposals
        starts = np.linspace(0.5, 20.0, 300)
        first = sample_h_first_steps(starts, sol, seed=4)
        assert np.array_equal(first, sample_h_first_steps(starts, sol, seed=4))
        assert not np.array_equal(first, sample_h_first_steps(starts, sol, seed=5))

    def test_proposals_per_transition(self, sol):
        batch = sample_h_chains(6.0, sol, 2_000, seed=6)
        transitions = int(batch.lengths.sum())
        # b grows by at most e^{alpha w} ~ 1.28 across a block of width 0.5
        assert transitions <= batch.proposals < 1.3 * transitions


@pytest.fixture(scope="module")
def seir_sol(unit_contact):
    """SEIR-shaped kernel: tau(0) = 0 and a hump, the other closed-form
    kernel `epichain chain` can reach."""
    kern = MarkovSEIR(2.0, 2.0, 1.0, step=0.01, a_max=30.0).kernel
    return solve_delay(kern, unit_contact, initial_condition(kern, 0.01, age_rate=0.5),
                       15.0, 0.01)


@pytest.fixture(scope="module")
def tabulated_age_sol(kernel, unit_contact):
    """Initial ages from a tabulated density: b(y < 0) is piecewise linear
    with kinks at the age-density knots, which the envelope must cover."""
    grid = np.linspace(0.0, 10.0, 2_001)  # on the kernel's age step
    knots = 0.17 + 0.93 * np.arange(11.0)  # kinks inside envelope blocks, not on edges
    shape = [0.2, 3.0, 0.1, 2.0, 0.0, 1.0, 0.5, 0.5, 0.3, 0.1, 0.0]
    g = GridDensity(grid, np.interp(grid, knots, shape))
    return solve_delay(kernel, unit_contact, initial_condition(kernel, 0.01, age_density=g),
                       8.0, 0.005)


class TestHTransition:
    """The blockwise rejection sampler behind every conditioned step."""

    @pytest.mark.parametrize("which", ["sol", "seir_sol", "tabulated_age_sol"])
    def test_envelope_bounds_b(self, request, which):
        run = request.getfixturevalue(which)
        edges, bmax = _b_envelope(run)
        assert 0.0 in edges and edges[0] <= -run.kernel.a_max and edges[-1] >= run.t[-1]
        y = np.concatenate([np.linspace(-run.kernel.a_max, run.t[-1], 200_001), edges,
                            [-1e-12, 1e-12]])
        b = run.b_at(y)
        for side in ("left", "right"):
            k = np.clip(np.searchsorted(edges, y, side=side) - 1, 0, bmax.size - 1)
            assert np.all(b <= bmax[k])

    @pytest.mark.parametrize("which", ["sol", "seir_sol"])
    @pytest.mark.parametrize("x", [0.3, 5.0, 12.0])
    def test_first_step_law(self, request, which, x):
        run = request.getfixturevalue(which)
        kern = run.kernel
        v = np.linspace(0.0, kern.a_max, 400_001)
        dens = kern.value(v) * run.b_at(x - v)
        dens /= np.trapezoid(dens, v)
        mean = np.trapezoid(v * dens, v)
        sd = math.sqrt(np.trapezoid((v - mean) ** 2 * dens, v))
        n = 40_000
        inc = x - sample_h_first_steps(np.full(n, x), run, seed=int(10 * x))
        assert np.all(inc > 0)
        assert abs(inc.mean() - mean) < 4.0 * sd / math.sqrt(n)
        edges = np.quantile(inc, np.linspace(0.0, 1.0, 21))
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(v))])
        p = np.diff(np.interp(edges, v, cdf))
        emp = np.histogram(inc, edges)[0] / n
        assert np.max(np.abs(emp - p) / np.sqrt(p * (1.0 - p) / n)) < 4.5

    def test_zero_envelope_mass_names_x(self, sol):
        edges, bmax = _b_envelope(sol)
        with pytest.raises(RuntimeError, match="stuck at x=5"):
            _h_transition(np.array([5.0]), sol, (edges, np.zeros_like(bmax)), make_rng(7))

    def test_rejection_cap_names_x(self, sol, monkeypatch):
        monkeypatch.setattr(backward_chain, "_MAX_ROUNDS", 0)
        with pytest.raises(RuntimeError, match="from x=5"):
            _h_transition(np.array([5.0]), sol, _b_envelope(sol), make_rng(8))


class TestHTransformIdentities:
    def test_row_sums_are_one(self, sol):
        idx = np.arange(100, 5001, 350)
        rows = h_row_sums(sol, idx)
        tol = max(10.0 * sol.renewal_residual, 1e-12)
        assert np.max(np.abs(rows - 1.0)) < tol

    def test_reweighted_survivors_match_h_law(self, sol):
        rew = reweighted_first_steps(5.0, sol, 30_000, seed=87)
        assert rew.n_survivors > 10_000
        # terminal-h martingale: E[weight 1{survive}] = 1, killed chains
        # contributing zero (survivor weights alone are nearly constant here)
        mean_w = float(rew.weights.sum()) / rew.n_samples
        m2 = float(np.square(rew.weights).sum()) / rew.n_samples
        se_w = math.sqrt(max(m2 - mean_w**2, 0.0) / rew.n_samples)
        assert abs(mean_w - 1.0) < 5 * se_w

        direct = sample_h_first_steps(np.full(30_000, 5.0), sol, seed=88)
        edges = np.linspace(-6.0, 5.0, 45)
        h_rew = histogram_from_samples(rew.values, edges, weights=rew.weights)
        h_dir = histogram_from_samples(direct, edges)
        assert l1_histogram_distance(h_rew, h_dir) < 0.05


class TestLinearRegime:
    def test_increments_are_backward_generation_times(self, kernel, unit_contact):
        ic_small = initial_condition(kernel, 1e-3, age_rate=0.5)
        run = solve_delay(kernel, unit_contact, ic_small, 3.0, 0.005)
        batch = sample_h_chains(3.0, run, 4_000, seed=89)
        inc = batch.increments
        d = ks_distance(inc, lambda x: 1.0 - np.exp(-1.5 * np.asarray(x)))
        assert d < 0.02, f"KS distance {d:.4f}"
