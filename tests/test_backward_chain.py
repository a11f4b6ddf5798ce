"""Backward chains: renewal jumps against the closed-form tilted density,
the martingale and survival diagnostics, and the h-transform identity
linking killed renewal chains to conditioned ones."""

import math

import numpy as np
import pytest
from scipy import stats

from epichain import (
    MarkovSEIR, histogram_from_samples,
    initial_condition, l1_histogram_distance, make_rng, martingale_diagnostic,
    sample_h_chains, sample_h_first_steps,
    sample_renewal_chains, solve_delay, survival_representation_check,
)
from epichain import backward_chain
from epichain.backward_chain import (
    MartingaleReport, _HTransition, _b_envelope, _killed_walk, _walk, reweighted_first_steps,
)
from epichain.densities import GridDensity

# every entry point that walks killed renewal chains from a start t
_KILLED_CHAINS = {
    "martingale": lambda t, sol: martingale_diagnostic(t, sol, 100, 3, seed=1),
    "survival": lambda t, sol: survival_representation_check(t, sol, 100, seed=1),
    "reweighted": lambda t, sol: reweighted_first_steps(t, sol, 100, seed=1),
}

# every entry point that seeds its stream from a start t, with what it returns
_CHAIN_STARTS = {
    "renewal": lambda t, sol: sample_renewal_chains(t, sol.kernel, 100, seed=1).times,
    "h-chain": lambda t, sol: sample_h_chains(t, sol, 100, seed=1).times,
    "martingale": lambda t, sol: martingale_diagnostic(t, sol, 100, 3, seed=1).mean,
    "survival": lambda t, sol: survival_representation_check(t, sol, 100, seed=1).p_survive,
    "reweighted": lambda t, sol: reweighted_first_steps(t, sol, 100, seed=1).values,
}


@pytest.mark.parametrize("entry", sorted(_CHAIN_STARTS))
def test_start_type_does_not_pick_the_stream(sol, entry):
    # the stream is seeded from the start: 3, 3.0 and np.float64(3.0) are one start
    want = _CHAIN_STARTS[entry](3.0, sol)
    for t in (3, np.float64(3.0)):
        assert np.array_equal(_CHAIN_STARTS[entry](t, sol), want, equal_nan=True)


@pytest.mark.parametrize("start", ["3", None, True], ids=["str", "None", "True"])
@pytest.mark.parametrize("entry", sorted(_CHAIN_STARTS))
def test_start_that_is_not_a_real_number(sol, entry, start):
    with pytest.raises(ValueError, match=f"^chain start must be a real number, got {start!r}$"):
        _CHAIN_STARTS[entry](start, sol)


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
        d = stats.kstest(inc, lambda x: 1.0 - np.exp(-1.5 * np.asarray(x))).statistic
        assert d < 0.02, f"KS distance {d:.4f} against Exp(3/2)"

    def test_nonpositive_start_is_terminal(self, kernel):
        batch = sample_renewal_chains(-0.3, kernel, 5, seed=74)
        assert np.array_equal(batch.lengths, np.zeros(5))
        assert np.array_equal(batch.terminals, np.full(5, -0.3))

    @pytest.mark.parametrize("start, named", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    ])
    def test_rejects_non_finite_start(self, kernel, start, named):
        with pytest.raises(ValueError, match=f"start {named} is not finite"):
            sample_renewal_chains(start, kernel, 4, seed=1)


class TestWalk:
    """The one walk behind every chain: checks and draws only for moving chains."""

    @staticmethod
    def _transitions(walk):
        """(x, alive) after every transition, copied."""
        return [(x.copy(), alive.copy()) for x, alive in walk]

    def test_checks_and_steps_only_at_positive_states(self, sol, alpha):
        seen = []

        def survival(x):
            seen.append(x.copy())
            return sol.S_at(x) * sol.contact(x)

        rng = make_rng(75, "walk")
        jump = backward_chain._renewal_step(sol.kernel, alpha, rng)

        def step(x):
            seen.append(x.copy())
            return jump(x)

        self._transitions(_walk(np.tile([10.0, 0.0, -0.4, 3.0], 50), step, rng, survival))
        assert len(seen) > 2 and np.all(np.concatenate(seen) > 0)

    def test_nonpositive_start_is_never_killed_and_draws_nothing(self):
        rng = make_rng(76, "walk")
        before = rng.bit_generator.state
        steps = self._transitions(_walk(np.array([0.0, -2.0]), lambda x: x - 1.0, rng,
                                        lambda x: np.zeros(x.size)))
        assert len(steps) == 1  # the starts only
        assert np.array_equal(steps[0][0], [0.0, -2.0]) and steps[0][1].all()
        assert rng.bit_generator.state == before

    def test_dead_chain_keeps_state_and_stays_dead(self, sol, alpha):
        steps = self._transitions(_killed_walk(10.0, sol, alpha, 2_000, make_rng(77, "walk")))
        for (x0, alive0), (x1, alive1) in zip(steps, steps[1:]):
            assert not np.any(alive1 & ~alive0)
            assert np.array_equal(x1[~alive0], x0[~alive0])
            # a chain that moves goes down; a chain killed this transition stays
            assert np.all(x1[alive1 & (x0 > 0)] < x0[alive1 & (x0 > 0)])
            assert np.array_equal(x1[alive0 & ~alive1], x0[alive0 & ~alive1])
        # S < 1 after t = 0, so both outcomes occur
        survived = steps[-1][1]
        assert survived.any() and not survived.all()
        # a survivor ends at its first state <= 0, a killed chain above 0
        assert np.all(steps[-1][0][survived] <= 0) and np.all(steps[-1][0][~survived] > 0)

    def test_settled_walk_draws_nothing(self, sol, alpha):
        rng = make_rng(78, "walk")
        for x, alive in _killed_walk(4.0, sol, alpha, 500, rng):
            at_yield = rng.bit_generator.state
        # the last transition settled every chain, so ending the walk drew nothing
        assert np.all((x <= 0) | ~alive)
        assert rng.bit_generator.state == at_yield

    def test_reweighted_first_step_is_not_the_terminal_state(self, sol):
        # the walk updates its state in place; a survivor ends at a state <= 0,
        # so first steps above 0 show that R_1 was kept apart from R_L
        rew = reweighted_first_steps(5.0, sol, 500, seed=80)
        assert np.all(rew.values < 5.0) and np.any(rew.values > 0)

    def test_martingale_from_nonpositive_start(self, sol):
        rep = martingale_diagnostic(-0.5, sol, 300, k_max=4, seed=79)
        assert rep.mean == pytest.approx(np.full(5, rep.reference), rel=1e-12)
        assert np.all(rep.se == 0.0)

    @pytest.mark.parametrize("start, named", [
        (math.inf, "inf"), (math.nan, "nan"), (30.0, "30"), (-60.0, "-60"),
    ])
    @pytest.mark.parametrize("entry", sorted(_KILLED_CHAINS))
    def test_killed_chains_reject_bad_start(self, sol, entry, start, named):
        # T = 25 here: 30 lies past the horizon and b(-60) is below the floor
        with pytest.raises(ValueError, match=f"start {named} "):
            _KILLED_CHAINS[entry](start, sol)


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

    @pytest.mark.parametrize("t", [0.0, -0.5])
    def test_deterministic_steps_deviate_zero_se(self, sol, t):
        # from t <= 0 every M_k is the reference, up to rounding in the mean
        rep = martingale_diagnostic(t, sol, 1000, 3, seed=1)
        assert rep.max_deviation_in_se == 0.0

    def test_deterministic_step_off_reference_is_infinitely_far(self):
        rep = MartingaleReport(t=1.0, k=np.arange(2), mean=np.array([1.0, 0.5]),
                               se=np.zeros(2), reference=1.0, n_samples=10)
        assert rep.max_deviation_in_se == math.inf


class TestRecordedValues:
    """Recorded float.hex values: the killed-chain diagnostics must keep
    their random stream and arithmetic, so they reproduce these bitwise.
    Re-recorded when the backward jumps came to invert the trapezoid CDF
    exactly, and when tau_bar came to be summed by FFT."""

    def test_martingale(self, sol):
        rep = martingale_diagnostic(5.0, sol, 1_000, k_max=3, seed=91)
        assert [float(v).hex() for v in rep.mean] == [
            "0x1.b27b1a295d34cp-9", "0x1.b0ca92dc3aaecp-9",
            "0x1.b5c08acd2a40ep-9", "0x1.b512ec643979ap-9"]
        assert [float(v).hex() for v in rep.se] == [
            "0x0.0p+0", "0x1.36d54f35a321ap-15",
            "0x1.975f3bba2777dp-15", "0x1.d9b22acf3916ap-15"]

    def test_reweighted_first_steps(self, sol):
        rew = reweighted_first_steps(5.0, sol, 1_000, seed=92)
        assert rew.values.size == 696
        assert [float(v).hex() for v in rew.values[:3]] == [
            "0x1.2bdfc1a082e1bp+2", "0x1.d6877f5c586bcp+1", "0x1.37fa930235ddbp+2"]
        assert [float(v).hex() for v in rew.weights[:3]] == [
            "0x1.8224da1f41232p+0", "0x1.8224da2008befp+0", "0x1.8224da203a254p+0"]
        assert float(rew.values.sum()).hex() == "0x1.729ddd4ed0b64p+11"
        assert float(rew.weights.sum()).hex() == "0x1.06750c41d8d1ap+10"


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

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_rejects_nonpositive_start(self, sol, t):
        with pytest.raises(ValueError, match="stated for t > 0"):
            survival_representation_check(t, sol, 1_000, seed=1)


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
        assert np.all(batch.times[:, 0] - batch.times[:, 1] > 0)

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

    def test_runaway_guard(self, sol, monkeypatch):
        monkeypatch.setattr(backward_chain, "_MAX_STEPS", 2)
        with pytest.raises(RuntimeError, match="conditioned chain exceeded 2 steps"):
            sample_h_chains(6.0, sol, 50, seed=7)

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
        with pytest.raises(RuntimeError, match="stuck at x=5"):
            step = _HTransition(sol, make_rng(7))
            step.bmax = np.zeros_like(step.bmax)
            step(np.array([5.0]))

    def test_rejection_cap_names_x(self, sol, monkeypatch):
        monkeypatch.setattr(backward_chain, "_MAX_ROUNDS", 0)
        with pytest.raises(RuntimeError, match="from x=5"):
            _HTransition(sol, make_rng(8))(np.array([5.0]))


class TestHTransformIdentities:
    def test_reweighted_survivors_match_h_law(self, sol):
        rew = reweighted_first_steps(5.0, sol, 30_000, seed=87)
        assert rew.values.size > 10_000
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
        d = stats.kstest(inc, lambda x: 1.0 - np.exp(-1.5 * np.asarray(x))).statistic
        assert d < 0.02, f"KS distance {d:.4f}"
