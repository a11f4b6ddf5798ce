"""Course models: occupation marginals in closed form, atom statistics
against the declared kernel, Palm conditioning, course validation."""

import math

import numpy as np
import pytest

from epichain import MarkovSEIR, MarkovSIR, PoissonCourse, make_rng, sample_palm_course
from epichain.courses import CompartmentSet, DiseaseCourse, default_palm_window, empirical_tau


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
    def test_sir_course_shape(self, model):
        rng = make_rng(7, "course-shape")
        for _ in range(200):
            course = model.sample_course(rng)
            course.validate(model)
            assert course.compartments == ("I", "R")
            # contacts only while infectious
            assert np.all(course.atoms <= course.entry_ages[1] + 1e-12)

    def test_sir_mean_atoms_is_r0(self, model):
        rng = make_rng(11, "course-mean")
        counts = np.array([model.sample_course(rng).atoms.size for _ in range(20_000)])
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 1.5) < 4 * se

    def test_seir_atoms_after_latency(self):
        m = MarkovSEIR(2.0, 1.0, 1.5, step=0.01, a_max=50.0)
        rng = make_rng(3, "seir")
        for _ in range(200):
            course = m.sample_course(rng)
            course.validate(m)
            latency = course.entry_ages[1]
            assert np.all(course.atoms >= latency - 1e-12)

    def test_poisson_course_count(self, kernel):
        m = PoissonCourse(kernel)
        rng = make_rng(5, "poisson-course")
        counts = np.array([m.sample_course(rng).atoms.size for _ in range(20_000)])
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - kernel.grid_mass) < 4 * se

    def test_empirical_tau_recovers_kernel(self, model):
        rng = make_rng(13, "emp-tau")
        for m in (model, PoissonCourse(model.kernel)):
            emp = empirical_tau(m, 40_000, rng, grid=np.linspace(0.0, 6.0, 25))
            mid = 0.5 * (emp.bin_edges[:-1] + emp.bin_edges[1:])
            # bin averages of 1.5 e^{-a}, not midpoint values
            width = emp.bin_edges[1] - emp.bin_edges[0]
            oracle = 1.5 * (np.exp(-emp.bin_edges[:-1]) - np.exp(-emp.bin_edges[1:])) / width
            dev = np.abs(emp.values - oracle)
            assert np.all(dev < 5 * np.maximum(emp.standard_errors, 1e-4)), type(m).__name__
            assert emp.value(np.array([mid[0]]))[0] == emp.values[0]
            assert emp.value(np.array([100.0]))[0] == 0.0


class TestCourseBatch:
    def test_flat_courses_are_valid(self, model, kernel):
        seir = MarkovSEIR(2.0, 1.0, 1.5, step=0.01, a_max=50.0)
        for m in (model, seir, PoissonCourse(kernel)):
            batch = m.sample_courses(make_rng(37, "batch"), 500)
            assert batch.n == 500
            assert batch.offsets[0] == 0 and batch.offsets[-1] == batch.atoms.size
            assert np.all(np.diff(batch.offsets) >= 0)
            assert batch.entry_ages.shape == (500, len(m.compartment_set.names))
            for i in range(batch.n):
                batch.course(i).validate(m)

    def test_one_course_is_a_one_row_batch(self, model):
        one = model.sample_course(make_rng(41, "one"))
        row = model.sample_courses(make_rng(41, "one"), 1).course(0)
        assert np.array_equal(one.atoms, row.atoms)
        assert np.array_equal(one.entry_ages, row.entry_ages)


class TestPalm:
    def test_markov_palm_has_atom_in_window(self, model):
        rng = make_rng(17, "palm")
        age = 2.0
        w = default_palm_window(model)
        for _ in range(50):
            course = sample_palm_course(model, age, rng)
            inside = (course.atoms >= age - 0.5 * w) & (course.atoms <= age + 0.5 * w)
            assert inside.any()

    def test_poisson_palm_forces_exact_atom(self, kernel):
        m = PoissonCourse(kernel)
        rng = make_rng(19, "palm-poisson")
        course = sample_palm_course(m, 1.25, rng)
        assert 1.25 in course.atoms

    def test_palm_rejects_zero_intensity(self):
        m = MarkovSEIR(2.0, 1.0, 1.5, step=0.01, a_max=50.0)
        rng = make_rng(23, "palm-zero")
        with pytest.raises(ValueError):
            sample_palm_course(m, 0.0, rng)  # latent at age 0, intensity zero

    def test_palm_survivorship_bias(self, model):
        # courses transmitting at age 2 live past 2: conditioned durations
        # stochastically dominate the prior Exp(1)
        rng = make_rng(29, "palm-bias")
        durations = np.array([
            sample_palm_course(model, 2.0, rng).entry_ages[1] for _ in range(300)])
        assert np.all(durations >= 2.0 - default_palm_window(model))
        assert durations.mean() > 2.5


class TestValidation:
    def test_compartment_cycle_rejected(self):
        with pytest.raises(ValueError):
            CompartmentSet(("A", "B"), (("A", "B"), ("B", "A")))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            CompartmentSet(("A", "A"), ())

    def test_bad_course_paths(self, model):
        with pytest.raises(ValueError):
            DiseaseCourse(np.array([1.0, 0.5]), np.array([0.0, 2.0]),
                          ("I", "R")).validate(model)
        with pytest.raises(ValueError):
            DiseaseCourse(np.array([]), np.array([0.5, 2.0]),
                          ("I", "R")).validate(model)
        with pytest.raises(ValueError):
            DiseaseCourse(np.array([]), np.array([0.0, 2.0]),
                          ("R", "I")).validate(model)

    def test_compartment_at(self):
        course = DiseaseCourse(np.array([]), np.array([0.0, 1.0, 3.0]), ("E", "I", "R"))
        assert course.compartment_at(0.5) == "E"
        assert course.compartment_at(1.0) == "I"
        assert course.compartment_at(10.0) == "R"

    def test_absorbing(self):
        cs = CompartmentSet(("E", "I", "R"), (("E", "I"), ("I", "R")))
        assert cs.absorbing() == ("R",)
