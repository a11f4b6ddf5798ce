"""Simulator: exactness on small instances and hand-built graphs,
determinism, occupation-count bookkeeping, and agreement with the
deterministic limit."""

import math

import numpy as np
import pytest

from epichain import (
    ContactRate, MarkovSEIR, MarkovSIR, brute_force_infection_times,
    compartment_curve, compartment_fraction, derive_seed, historical_measure,
    initial_condition, simulate,
)
from epichain.courses import CourseBatch
from epichain.infection_graph import InfectionGraph, first_passage


def _graph(initial, offsets, atoms, targets, marks, horizon=10.0) -> InfectionGraph:
    """A graph with one-compartment courses; initial individuals have z = 0."""
    n = len(initial)
    courses = CourseBatch(np.asarray(offsets), np.asarray(atoms, dtype=float),
                          np.zeros((n, 1)), ("I",))
    return InfectionGraph(n=n, initial=np.asarray(initial), z=np.zeros(n), courses=courses,
                          targets=np.asarray(targets), marks=np.asarray(marks, dtype=float),
                          horizon=horizon)


class TestHandBuiltGraphs:
    def test_times_are_recomputed_not_only_lowered(self):
        # s = 0, x = 1, y = 2, u = 3; c = 0.4 on [0, 2), 1 after.  The direct
        # contact s->x at 3 would let x->u (mark 0.9) through at 3.5, but y
        # infects x at 1 and c(1.5) = 0.4 rejects x->u: u is never infected
        c = ContactRate((0.0, 2.0), (0.4, 1.0), "step")
        g = _graph([True, False, False, False], offsets=[0, 2, 3, 4, 4],
                   atoms=[0.5, 3.0, 0.5, 0.5], targets=[2, 1, 3, 1], marks=[0.1, 0.1, 0.9, 0.1])
        expected = np.array([0.0, 1.0, 0.5, math.inf])
        assert np.array_equal(brute_force_infection_times(g, c), expected)
        solved = first_passage(g, c)
        assert np.array_equal(solved.sigma, expected)
        assert solved.infector.tolist() == [-1, 2, 0, -1]

    def test_simultaneous_contacts_go_to_the_lower_source_id(self):
        # 0 infects 3 at 0.5, 3 infects 1 at 1; then 1 (at age 2) and 3 (at
        # age 2.5) both reach 2 at time 3, and 3 was infected first
        c = ContactRate.constant(1.0)
        g = _graph([True, False, False, False], offsets=[0, 1, 2, 2, 4],
                   atoms=[0.5, 2.0, 0.5, 2.5], targets=[3, 2, 1, 2], marks=[0.5] * 4)
        solved = first_passage(g, c)
        assert np.array_equal(solved.sigma, brute_force_infection_times(g, c))
        assert np.array_equal(solved.sigma, [0.0, 1.0, 3.0, 0.5])
        assert solved.infector.tolist() == [-1, 3, 1, 0]


class TestRoutes:
    """A constant rate written with a redundant knot settles at 5, so
    `first_passage` takes the Jacobi rounds on it; written with one knot it
    relaxes only the frontier's out-edges.  The two must agree bitwise."""

    @pytest.mark.parametrize("family", ["SIR", "SEIR"])
    @pytest.mark.parametrize("i0", [0.01, 0.2])
    @pytest.mark.parametrize("c", [1.0, 0.6])
    def test_relaxed_rounds_match_jacobi_rounds(self, family, i0, c):
        # I0 = 0.2 brings initial ages whose early contacts the t >= 0 rule drops
        model = (MarkovSIR(1.5, 1.0, step=0.005, a_max=40.0) if family == "SIR"
                 else MarkovSEIR(2.0, 1.0, 1.5, step=0.01, a_max=50.0))
        ic = initial_condition(model.kernel, i0, age_rate=0.5)
        constant, redundant = ContactRate.constant(c), ContactRate((0.0, 5.0), (c, c))
        assert constant.settles_at == 0.0 and redundant.settles_at == 5.0
        sizes = [50_000] + [2 + i % 11 for i in range(60)]
        for i, n in enumerate(sizes):
            out = simulate(model, n, constant, ic, horizon=15.0,
                           seed=derive_seed(408, family, i0, c, i), record_graph=True)
            jacobi = first_passage(out.graph, redundant)
            assert np.array_equal(out.sigma, jacobi.sigma), f"graph {i} diverged"
            assert np.array_equal(out.infector, jacobi.infector), f"graph {i} diverged"
            assert (out.accepted, out.rounds) == (jacobi.accepted, jacobi.rounds), i
            if n == 50_000:  # only the frontier's out-edges, not every target's in-edges
                assert out.infections > 500
                assert out.edges < jacobi.edges


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

    def test_rising_contact_matches_oracle(self):
        # under a rising contact rate a lower infection time can turn an
        # accepted contact into a rejected one, so a solver that only ever
        # lowers times (Bellman-Ford) is wrong here; at beta = 3 and I0 = 0.5
        # about one instance in twenty has that shape
        model = MarkovSIR(3.0, 1.0, step=0.005, a_max=40.0)
        ic = initial_condition(model.kernel, 0.5, age_rate=0.5)
        rising = ContactRate((0.0, 2.0), (0.1, 1.0), "linear")
        secondary = 0
        for i in range(200):
            out = simulate(model, 50, rising, ic, horizon=8.0,
                           seed=derive_seed(407, "rising", i), record_graph=True)
            secondary += int(np.sum(np.isfinite(out.sigma) & ~out.initial))
            oracle = brute_force_infection_times(out.graph, rising)
            assert np.array_equal(out.sigma, oracle), f"instance {i} diverged"
        assert secondary >= 2000

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
    def test_run_statistics(self, run):
        assert run.contacts == run.courses.atoms.size == run.courses.offsets[-1]
        assert run.infections == np.count_nonzero(np.isfinite(run.sigma) & ~run.initial)
        assert 0 < run.infections <= run.accepted <= run.contacts
        assert run.rounds >= 2

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


class TestSummariesAgainstLoops:
    """The vectorised summaries against per-individual loops."""

    @pytest.fixture(scope="class")
    def small(self, model, unit_contact, ic):
        return simulate(model, 2_000, unit_contact, ic, horizon=12.0, seed=32)

    def test_compartment_fraction(self, small):
        times = np.linspace(0.0, 12.0, 13)
        for name in ("I", "R"):
            names, entry = small.courses.compartments, small.courses.entry_ages
            loop = [sum(names[np.searchsorted(entry[x], t - small.sigma[x], side="right") - 1]
                        == name for x in small.infected_ids if small.sigma[x] <= t)
                    for t in times]
            assert np.array_equal(compartment_fraction(small, name, times),
                                  np.asarray(loop) / small.n), name

    def test_historical_chains(self, small):
        hist = historical_measure(small, 8.0)
        for i, x in enumerate(hist.ids):
            chain = [x]
            while small.infector[chain[-1]] >= 0:
                chain.append(small.infector[chain[-1]])
            assert hist.chain_length[i] == len(chain)
            assert hist.root_age[i] == small.z[chain[-1]]


class TestAgainstLimit:
    def test_infected_fraction_tracks_limit(self, model, unit_contact, ic, sol):
        # the random timing of the take-off dominates this sup-deviation:
        # at N = 5e4 half of all seeds exceed 0.02, at N = 5e5 about 2 in 100
        out = simulate(model, 500_000, unit_contact, ic, horizon=25.0, seed=53)
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

    def test_non_integer_population(self, model, unit_contact, ic):
        with pytest.raises(ValueError, match="n_individuals must be an integer"):
            simulate(model, 100.7, unit_contact, ic, horizon=5.0, seed=1)

    def test_bool_population(self, model, unit_contact, ic):
        with pytest.raises(ValueError, match="n_individuals must be an integer"):
            simulate(model, True, unit_contact, ic, horizon=5.0, seed=1)

    def test_nan_horizon(self, model, unit_contact, ic):
        with pytest.raises(ValueError, match="horizon must be a nonnegative number, got nan"):
            simulate(model, 10, unit_contact, ic, horizon=math.nan, seed=1)

    @pytest.mark.parametrize("horizon", ["5", None, True, 10**400],
                             ids=["str", "None", "True", "10**400"])
    def test_horizon_that_is_not_a_real_number(self, model, unit_contact, ic, horizon):
        # not numpy's UFuncTypeError, a TypeError, an OverflowError, or True stored as 1
        with pytest.raises(ValueError, match="^horizon must be a nonnegative number, got "):
            simulate(model, 10, unit_contact, ic, horizon=horizon, seed=1)

    def test_int_horizon_is_the_float_run(self, model, unit_contact, ic):
        a = simulate(model, 300, unit_contact, ic, horizon=5, seed=1)
        b = simulate(model, 300, unit_contact, ic, horizon=5.0, seed=1)
        assert type(a.horizon) is float and np.array_equal(a.sigma, b.sigma)
