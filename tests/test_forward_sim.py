"""Event-driven simulator: exactness on small instances, determinism,
occupation-count bookkeeping, and agreement with the deterministic limit."""

import math

import numpy as np
import pytest

from epichain import (
    ContactRate, MarkovSEIR, brute_force_infection_times, compartment_curve,
    compartment_fraction, derive_seed, historical_measure, initial_condition,
    simulate,
)
from epichain.forward_sim import age_compartment_measure, ancestral_path


class TestExactLaw:
    def test_matches_brute_force_on_small_instances(self, model, unit_contact, ic):
        for i in range(25):
            n = 2 + (i % 11)
            out = simulate(model, n, unit_contact, ic, horizon=8.0,
                           seed=derive_seed(404, "small", i), record_graph=True)
            oracle = brute_force_infection_times(out.graph, unit_contact)
            assert np.array_equal(out.sigma, oracle), f"instance {i} diverged"

    def test_step_contact_exactness(self, model, ic):
        c = ContactRate((0.0, 2.0), (1.0, 0.4), "step")
        for i in range(10):
            out = simulate(model, 6, c, ic, horizon=6.0,
                           seed=derive_seed(405, "small-step", i), record_graph=True)
            oracle = brute_force_infection_times(out.graph, c)
            assert np.array_equal(out.sigma, oracle)

    def test_seeded_instances_match_oracle(self, model, unit_contact):
        # at I0 = 0.01 almost no small instance has an initially infected
        # individual; I0 = 0.2 makes the oracle replay real secondary chains
        ic = initial_condition(model.kernel, 0.2, age_rate=0.5)
        step = ContactRate((0.0, 2.0), (1.0, 0.4), "step")
        for contact in (unit_contact, step):
            secondary = 0
            for i in range(30):
                out = simulate(model, 12, contact, ic, horizon=8.0,
                               seed=derive_seed(406, "seeded", i), record_graph=True)
                secondary += int(np.sum(np.isfinite(out.sigma) & ~out.initial))
                oracle = brute_force_infection_times(out.graph, contact)
                assert np.array_equal(out.sigma, oracle), f"instance {i} diverged"
            assert secondary >= 30

    def test_record_graph_does_not_change_the_run(self, model, unit_contact, ic):
        step = ContactRate((0.0, 4.0, 8.0), (1.0, 0.3, 0.8), "step")
        for contact in (unit_contact, step):
            for seed in (7, 8):
                plain = simulate(model, 2_000, contact, ic, horizon=25.0, seed=seed)
                rec = simulate(model, 2_000, contact, ic, horizon=25.0, seed=seed,
                               record_graph=True)
                assert plain.graph is None
                assert rec.graph.courses is rec.courses
                for name in ("sigma", "infector", "z", "initial"):
                    assert np.array_equal(getattr(plain, name), getattr(rec, name)), name


class TestDeterminism:
    def test_same_seed_same_run(self, model, unit_contact, ic):
        a = simulate(model, 500, unit_contact, ic, horizon=10.0, seed=99)
        b = simulate(model, 500, unit_contact, ic, horizon=10.0, seed=99)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.infector, b.infector)

    def test_different_seed_differs(self, model, unit_contact, ic):
        a = simulate(model, 500, unit_contact, ic, horizon=10.0, seed=99)
        b = simulate(model, 500, unit_contact, ic, horizon=10.0, seed=100)
        assert not np.array_equal(a.sigma, b.sigma)


@pytest.fixture(scope="module")
def run(model, unit_contact, ic):
    return simulate(model, 20_000, unit_contact, ic, horizon=12.0, seed=31)


class TestBookkeeping:
    def test_initial_infections(self, run, ic):
        init = np.flatnonzero(run.initial)
        assert np.all(run.sigma[init] <= 0)
        assert np.all(run.z[init] > 0)
        assert np.all(run.infector[init] == -1)
        # Binomial(n, 0.01): 4 sigma is about 28
        assert abs(init.size - 200) < 60

    def test_noninitial_sigma_positive(self, run):
        infected = np.isfinite(run.sigma) & ~run.initial
        assert np.all(run.sigma[infected] > 0)
        assert np.all(run.infector[infected] >= 0)

    def test_infector_was_infected_earlier(self, run):
        x = np.flatnonzero(run.infector >= 0)
        assert np.all(run.sigma[run.infector[x]] < run.sigma[x])

    def test_infected_fraction_monotone(self, run):
        t = np.linspace(0.0, 12.0, 50)
        f = run.infected_fraction(t)
        assert np.all(np.diff(f) >= 0)
        assert f[0] == pytest.approx(np.mean(run.initial), abs=1e-12)
        assert np.all(run.susceptible_fraction(t) == 1.0 - f)

    def test_compartment_fractions_partition(self, run):
        t = np.linspace(0.0, 12.0, 25)
        total = (run.susceptible_fraction(t) + compartment_fraction(run, "I", t)
                 + compartment_fraction(run, "R", t))
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_age_compartment_measure(self, run, model):
        meas = age_compartment_measure(run, 8.0, np.linspace(0.0, 30.0, 31), model)
        # everyone infected by t=8 with age < 30 shows up in exactly one cell
        assert meas.fractions.sum() == pytest.approx(run.infected_fraction(8.0), abs=1e-3)
        assert meas.compartments == ("I", "R")

    def test_ancestral_path(self, run):
        secondary = np.flatnonzero(np.isfinite(run.sigma) & (run.infector >= 0))
        path = ancestral_path(run, int(secondary[0]))
        assert path.length >= 2
        assert np.all(np.diff(path.times) < 0)
        assert run.initial[path.individuals[-1]]
        assert path.root_age == pytest.approx(-path.times[-1])
        with pytest.raises(ValueError):
            never = int(np.flatnonzero(~np.isfinite(run.sigma))[0])
            ancestral_path(run, never)

    def test_historical_measure(self, run):
        hist = historical_measure(run, 8.0)
        assert np.all(hist.sigma <= 8.0)
        assert np.all(np.isfinite(hist.sigma))
        initials = np.isnan(hist.first_increment)
        assert np.array_equal(initials, run.infector[hist.ids] < 0)
        assert np.all(hist.first_increment[~initials] > 0)
        assert np.all(hist.chain_length >= 1)
        assert np.all(hist.root_age > 0)
        # chain length 1 exactly for the initials
        assert np.array_equal(hist.chain_length == 1, initials)


class TestAgainstLimit:
    def test_infected_fraction_tracks_limit(self, model, unit_contact, ic, sol):
        out = simulate(model, 50_000, unit_contact, ic, horizon=25.0, seed=53)
        t = np.linspace(0.0, 25.0, 64)
        lim = np.interp(t, sol.t, sol.B + sol.ic.i0)
        dev = np.max(np.abs(out.infected_fraction(t) - lim))
        assert dev < 0.02

    def test_compartment_fraction_tracks_limit(self, model, unit_contact, ic, sol):
        out = simulate(model, 50_000, unit_contact, ic, horizon=25.0, seed=54)
        t = np.linspace(0.0, 25.0, 64)
        lim = np.interp(t, sol.t, compartment_curve(sol, model, "I"))
        dev = np.max(np.abs(compartment_fraction(out, "I", t) - lim))
        assert dev < 0.02


class TestSEIR:
    def test_partition_and_ordering(self, unit_contact):
        m = MarkovSEIR(2.0, 1.0, 1.5, step=0.01, a_max=50.0)
        ic = initial_condition(m.kernel, 0.02, age_rate=0.3)
        out = simulate(m, 5_000, unit_contact, ic, horizon=8.0, seed=61)
        t = np.linspace(0.0, 8.0, 20)
        total = out.susceptible_fraction(t)
        for name in ("E", "I", "R"):
            total = total + compartment_fraction(out, name, t)
        assert np.allclose(total, 1.0, atol=1e-12)


class TestValidation:
    def test_bad_population(self, model, unit_contact, ic):
        with pytest.raises(ValueError):
            simulate(model, 0, unit_contact, ic, horizon=5.0, seed=1)

    def test_bad_horizon(self, model, unit_contact, ic):
        with pytest.raises(ValueError):
            simulate(model, 10, unit_contact, ic, horizon=-1.0, seed=1)
