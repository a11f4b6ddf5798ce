"""Course models: occupation marginals in closed form, atom statistics
against the declared kernel, Palm conditioning, and the batch check the
other tests validate courses with."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from epichain import MarkovSEIR, MarkovSIR, make_rng
from epichain.courses import CourseBatch, PoissonCourse
from helpers import empirical_tau


class TestMarginals:
    def test_sir_occupation(self, model):
        a = np.linspace(0.0, 5.0, 30)
        assert np.allclose(model.marginal_p(a, "I"), np.exp(-a), rtol=1e-12)
        assert np.allclose(model.marginal_p(a, "R"), 1 - np.exp(-a), rtol=1e-10)
        with pytest.raises(ValueError):
            model.marginal_p(1.0, "S")

    def test_seir_occupation(self):
        m = MarkovSEIR(2.0, 1.0, 1.5, step=0.01, a_max=50.0)
        a = np.linspace(0.0, 6.0, 25)
        p_e = np.exp(-a)
        p_i = 1.0 / (1.0 - 1.5) * (np.exp(-1.5 * a) - np.exp(-a))
        assert np.allclose(m.marginal_p(a, "E"), p_e, rtol=1e-12)
        assert np.allclose(m.marginal_p(a, "I"), p_i, rtol=1e-10, atol=1e-14)
        total = m.marginal_p(a, "E") + m.marginal_p(a, "I") + m.marginal_p(a, "R")
        assert np.allclose(total, 1.0, rtol=1e-12)

    def test_kernel_is_beta_times_occupation(self, model):
        a = np.linspace(0.0, 8.0, 40)
        assert np.allclose(model.kernel.value(a), model.beta * model.marginal_p(a, "I"),
                           rtol=1e-12)


class TestSampledCourses:
    def test_sir_course_shape(self, model, check_courses):
        batch = model.sample_courses(make_rng(7, "course-shape"), 200)
        check_courses(batch, model)
        assert batch.compartments == ("I", "R")
        # contacts only while infectious
        assert np.all(batch.atoms <= batch.entry_ages[batch.owners(), 1] + 1e-12)

    def test_sir_mean_atoms_is_r0(self, model):
        counts = np.diff(model.sample_courses(make_rng(11, "course-mean"), 20_000).offsets)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 1.5) < 4 * se

    def test_seir_atoms_after_latency(self, check_courses):
        m = MarkovSEIR(2.0, 1.0, 1.5, step=0.01, a_max=50.0)
        batch = m.sample_courses(make_rng(3, "seir"), 200)
        check_courses(batch, m)
        latency = batch.entry_ages[batch.owners(), 1]
        assert np.all(batch.atoms >= latency - 1e-12)

    def test_poisson_course_count(self, kernel):
        m = PoissonCourse(kernel)
        counts = np.diff(m.sample_courses(make_rng(5, "poisson-course"), 20_000).offsets)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - kernel.grid_mass) < 4 * se

    def test_empirical_tau_recovers_kernel(self, model):
        rng = make_rng(13, "emp-tau")
        for m in (model, PoissonCourse(model.kernel)):
            emp = empirical_tau(m, 40_000, rng, grid=np.linspace(0.0, 6.0, 25))
            # bin averages of 1.5 e^{-a}, not midpoint values
            width = emp.bin_edges[1] - emp.bin_edges[0]
            oracle = 1.5 * (np.exp(-emp.bin_edges[:-1]) - np.exp(-emp.bin_edges[1:])) / width
            dev = np.abs(emp.values - oracle)
            assert np.all(dev < 5 * np.maximum(emp.standard_errors, 1e-4)), type(m).__name__


class TestCourseBatch:
    def test_flat_courses_are_valid(self, model, kernel, check_courses):
        seir = MarkovSEIR(2.0, 1.0, 1.5, step=0.01, a_max=50.0)
        for m in (model, seir, PoissonCourse(kernel)):
            batch = m.sample_courses(make_rng(37, "batch"), 500)
            assert batch.n == 500
            check_courses(batch, m)

    def test_one_course_is_a_one_row_batch(self, model, kernel, check_courses):
        # a single course has no type of its own: it is drawn as one row
        seir = MarkovSEIR(2.0, 1.0, 1.5, step=0.01, a_max=50.0)
        for m in (model, seir, PoissonCourse(kernel)):
            one = m.sample_courses(make_rng(41, "one"), 1)
            again = m.sample_courses(make_rng(41, "one"), 1)
            assert one.n == 1 and one.offsets.shape == (2,)
            check_courses(one, m)
            assert np.array_equal(one.atoms, again.atoms)
            assert np.array_equal(one.entry_ages, again.entry_ages)

    @pytest.mark.parametrize("which", ["MarkovSIR", "MarkovSEIR", "PoissonCourse"])
    @pytest.mark.parametrize("count", [100.0, True, -1], ids=["float", "bool", "negative"])
    def test_count_checked_by_every_model(self, model, kernel, which, count):
        m = {"MarkovSIR": model, "MarkovSEIR": _seir(2.0, 1.0),
             "PoissonCourse": PoissonCourse(kernel)}[which]
        assert m.sample_courses(make_rng(47, "count"), 0).n == 0
        with pytest.raises(ValueError, match="^n must be "):
            m.sample_courses(make_rng(47, "count"), count)


SEIR_LATENCY_RATES = [(2.0, 1.0), (1.0, 1.5)]  # d = activation - recovery of both signs


def _seir(activation, recovery):
    return MarkovSEIR(2.0, activation, recovery, step=0.01, a_max=50.0)


def _ks_band(n):
    return 1.63 / math.sqrt(n)  # 99% K-S band


class TestPalm:
    def test_palm_atom_sits_exactly_at_age(self, model, kernel, check_courses):
        ages = np.linspace(0.05, 12.0, 240)
        models = [model, PoissonCourse(kernel)] + [_seir(*r) for r in SEIR_LATENCY_RATES]
        for m in models:
            batch = m.palm_courses(make_rng(17, "palm"), ages)
            assert batch.n == ages.size
            check_courses(batch, m)
            owner = batch.owners()
            hits = np.bincount(owner[batch.atoms == ages[owner]], minlength=batch.n)
            assert np.all(hits >= 1), type(m).__name__

    @pytest.mark.parametrize("which", ["sir", "seir"])
    def test_palm_at_a_nearly_dead_age(self, model, which, check_courses):
        # at age 13.7 the reference intensity is 1.7e-6: the conditioning
        # atom must still be exact and the course infectious at that age
        m = model if which == "sir" else _seir(1.0, 1.5)
        age = 13.7
        batch = m.palm_courses(make_rng(47, "palm-old", which), np.full(200, age))
        check_courses(batch, m)
        owner = batch.owners()
        assert np.array_equal(np.unique(owner[batch.atoms == age]), np.arange(batch.n))
        infectious = m.compartments.index("I")
        assert np.all(batch.entry_ages[:, infectious] <= age)
        assert np.all(batch.entry_ages[:, infectious + 1] > age)

    def test_poisson_palm_forces_exact_atom(self, kernel):
        m = PoissonCourse(kernel)
        batch = m.palm_courses(make_rng(19, "palm-poisson"), [1.25])
        assert 1.25 in batch.atoms

    @pytest.mark.parametrize("age", [math.nan, math.inf, -1.0, 45.0])
    def test_palm_rejects_bad_age(self, model, age):
        with pytest.raises(ValueError, match=f"age {age}"):
            model.palm_courses(make_rng(23, "palm-bad"), [1.0, age, 2.0])

    def test_palm_rejects_zero_intensity(self):
        m = _seir(1.0, 1.5)
        with pytest.raises(ValueError, match="age 0.0"):
            m.palm_courses(make_rng(23, "palm-zero"), [0.0])  # latent at age 0

    def test_palm_survivorship_bias(self, model):
        # courses transmitting at age 2 live past 2: conditioned durations
        # stochastically dominate the prior Exp(1)
        durations = model.palm_courses(make_rng(29, "palm-bias"), np.full(300, 2.0)).entry_ages[:, 1]
        assert np.all(durations >= 2.0)
        assert durations.mean() > 2.5

    def test_sir_palm_duration_is_age_plus_exponential(self, model):
        n = 20_000
        excess = model.palm_courses(make_rng(31, "palm-ks"), np.full(n, 3.0)).entry_ages[:, 1] - 3.0
        d = stats.kstest(excess, lambda x: 1.0 - np.exp(-model.gamma * np.asarray(x))).statistic
        assert d < _ks_band(n)

    @pytest.mark.parametrize("rates", SEIR_LATENCY_RATES)
    def test_seir_palm_latency_law(self, rates):
        m = _seir(*rates)
        d, a, n = m.activation - m.recovery, 2.0, 20_000
        entry = m.palm_courses(make_rng(37, "palm-seir", *rates), np.full(n, a)).entry_ages
        latency = entry[:, 1]
        assert np.all((latency >= 0.0) & (latency <= a))
        exact_mean = 1.0 / d - a * math.exp(-d * a) / -math.expm1(-d * a)
        se = latency.std(ddof=1) / math.sqrt(n)
        assert abs(latency.mean() - exact_mean) < 4 * se
        assert stats.kstest(
            latency, lambda x: np.expm1(-d * np.asarray(x)) / math.expm1(-d * a)).statistic \
            < _ks_band(n)
        excess = entry[:, 2] - a
        assert stats.kstest(
            excess, lambda x: 1.0 - np.exp(-m.recovery * np.asarray(x))).statistic \
            < _ks_band(n)

    @pytest.mark.parametrize("which", ["sir", "seir"])
    def test_palm_recovery_age_matches_windowed_plain_courses(self, model, which):
        # Campbell: E[R N(w)] / E[N(w)] over plain courses, with N(w) the
        # atoms in a window of width w around a and R the recovery age,
        # tends to the Palm mean of R as w shrinks
        m = model if which == "sir" else _seir(1.0, 1.5)
        a = 2.0
        palm = m.palm_courses(make_rng(41, "palm-mean", which), np.full(20_000, a))
        recovery = palm.entry_ages[:, -1]
        palm_mean = recovery.mean()
        palm_var = recovery.var(ddof=1) / recovery.size
        plain = m.sample_courses(make_rng(43, "plain", which), 400_000)
        owner = plain.owners()
        for w in (0.4, 0.2, 0.1):
            inside = np.abs(plain.atoms - a) <= 0.5 * w
            count = np.bincount(owner[inside], minlength=plain.n).astype(float)
            r = plain.entry_ages[:, -1]
            ratio = np.sum(r * count) / np.sum(count)
            # delta-method variance of a ratio of means
            resid = (r - ratio) * count
            ratio_var = resid.var(ddof=1) * plain.n / np.sum(count) ** 2
            assert abs(ratio - palm_mean) < 4 * math.sqrt(ratio_var + palm_var), w


class TestValidation:
    @pytest.mark.parametrize("build, named", [
        (lambda v: MarkovSIR(1.5, v), "gamma"),
        (lambda v: MarkovSIR(v, 1.0), "beta"),
        (lambda v: MarkovSEIR(1.5, v, 1.0), "activation"),
        (lambda v: MarkovSEIR(1.5, 2.0, v), "recovery"),
        (lambda v: MarkovSIR(1.5, 1.0, a_max=v), "a_max"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True, "x"], ids=repr)
    def test_models_name_the_bad_parameter(self, build, named, value):
        with pytest.raises(ValueError, match=f"^{named} must be "):
            build(value)

    def test_bad_course_paths(self, model, check_courses):
        # two SIR courses; atoms need only be sorted within a course
        good = CourseBatch(np.array([0, 2, 3]), np.array([0.5, 1.0, 0.25]),
                           np.array([[0.0, 2.0], [0.0, 1.0]]), ("I", "R"))
        check_courses(good, model)
        bad = {
            "sorted within": dict(atoms=np.array([1.0, 0.5, 0.25])),
            "nonnegative": dict(atoms=np.array([-0.5, 1.0, 0.25])),
            "start at age 0": dict(entry_ages=np.array([[0.0, 2.0], [0.5, 1.0]])),
            "strictly increasing": dict(entry_ages=np.array([[0.0, 2.0], [0.0, 0.0]])),
            "the model's": dict(compartments=("R", "I")),
        }
        for message, change in bad.items():
            with pytest.raises(AssertionError, match=message):
                check_courses(replace(good, **change), model)
