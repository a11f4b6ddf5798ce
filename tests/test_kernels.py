"""Intensity kernels, the Malthusian solve, and the shifted initial-age
quantities, checked against closed forms for tau(a) = 1.5 e^{-a}:

    R0 = 1.5            alpha = 1/2 (root of 1.5/(1+alpha) = 1)
    nu = Exp(1)         r(u) = e^{-alpha u} tau(u) = Exp(3/2)
    tau_bar(u) = 0.5 e^{-u} for g = Exp(1/2), so r0_bar = 1/2, nu_bar = Exp(1)
    z-marginal g(z)(R0 - integral_0^z tau) / r0_bar = Exp(3/2)
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epichain import (
    ContactRate, ExponentialKernel, backward_density, initial_condition, malthusian_parameter,
    reference_scenario,
)
from epichain.densities import GridDensity
from epichain.kernels import (
    LatentExponentialKernel, TabulatedKernel, bar_tau, joint_delay_age_from_uniforms,
)
from helpers import direct_shifted_age_sums


class TestExponentialKernel:
    def test_closed_forms(self, kernel):
        a = np.linspace(0.0, 6.0, 41)
        assert np.allclose(kernel.value(a), 1.5 * np.exp(-a), rtol=1e-12)
        assert kernel.r0 == pytest.approx(1.5, rel=1e-9)
        # grid quadrature, not closed form
        assert kernel.generation_density().mean() == pytest.approx(1.0, abs=1e-4)

    def test_laplace_matches_quadrature(self, kernel):
        for theta in (0.0, 0.5, 1.7):
            assert kernel.laplace(theta) == pytest.approx(1.5 / (theta + 1.0), rel=1e-12)

    def test_cumulative(self, kernel):
        a = np.array([0.0, 1.0, 30.0])
        assert np.allclose(kernel.cumulative(a), 1.5 * (1 - np.exp(-a)), atol=1e-9)

    def test_generation_density_is_exponential(self, kernel):
        nu = kernel.generation_density()
        u = np.linspace(0.0, 8.0, 100)
        assert np.allclose(nu.pdf(u), np.exp(-u), atol=2e-3)
        assert nu.mean() == pytest.approx(1.0, abs=2e-3)


# values no rate, age step or grid reach may take; a rate of 0 is only
# allowed for beta
BAD_REALS = [math.nan, math.inf, -math.inf, -1.0, True, "1.5"]


@pytest.mark.parametrize("build, named, zero_ok", [
    (lambda v: ExponentialKernel(v, 1.0), "beta", True),
    (lambda v: ExponentialKernel(1.5, v), "gamma", False),
    (lambda v: ExponentialKernel(1.5, 1.0, step=v), "step", False),
    (lambda v: ExponentialKernel(1.5, 1.0, a_max=v), "a_max", False),
    (lambda v: LatentExponentialKernel(v, 2.0, 1.0), "beta", True),
    (lambda v: LatentExponentialKernel(1.5, v, 1.0), "activation", False),
    (lambda v: LatentExponentialKernel(1.5, 2.0, v), "recovery", False),
    (lambda v: LatentExponentialKernel(1.5, 2.0, 1.0, step=v), "step", False),
])
@pytest.mark.parametrize("value", BAD_REALS + [0.0], ids=repr)
def test_closed_form_kernels_name_the_bad_parameter(build, named, zero_ok, value):
    if value == 0.0 and zero_ok:
        assert build(value).r0 == 0.0
        return
    with pytest.raises(ValueError, match=f"^{named} must be "):
        build(value)


class TestMalthusian:
    def test_reference_alpha_is_half(self, alpha):
        assert alpha == pytest.approx(0.5, abs=1e-8)

    def test_euler_lotka_identity(self, kernel, alpha):
        assert kernel.laplace(alpha) == pytest.approx(1.0, abs=1e-9)

    def test_latent_kernel_alpha(self):
        # (theta+1)(theta+1.5) = 2 has positive root (sqrt(8.25) - 2.5) / 2
        kern = LatentExponentialKernel(2.0, 1.0, 1.5, step=0.01, a_max=60.0)
        expected = (math.sqrt(8.25) - 2.5) / 2.0
        assert malthusian_parameter(kern).alpha == pytest.approx(expected, abs=1e-8)

    def test_subcritical_alpha_negative(self):
        kern = ExponentialKernel(0.8, 1.0, step=0.01, a_max=40.0)
        assert malthusian_parameter(kern).alpha == pytest.approx(-0.2, abs=1e-8)

    def test_solve_reports_residual(self, kernel):
        res = malthusian_parameter(kernel)
        assert abs(res.residual) < 1e-8
        assert res.iterations > 0


class TestBackwardDensity:
    def test_reference_is_exp_three_halves(self, kernel, alpha):
        r = backward_density(kernel, alpha)
        u = np.linspace(0.0, 7.0, 200)
        assert np.allclose(r.pdf(u), 1.5 * np.exp(-1.5 * u), atol=2e-3)
        assert r.mean() == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_total_mass_one(self, kernel, alpha):
        r = backward_density(kernel, alpha)
        assert np.trapezoid(r.pdf(r.grid), r.grid) == pytest.approx(1.0, abs=1e-9)


class TestShiftedQuantities:
    def test_tau_bar_closed_form(self, ic):
        u = np.linspace(0.0, 8.0, 60)
        assert np.allclose(ic.tau_bar.value(u), 0.5 * np.exp(-u), atol=2e-4)

    def test_tau_bar_recorded_table(self, ic):
        assert hashlib.sha256(ic.tau_bar.table.tobytes()).hexdigest() == \
            "f191b324a70eee464ae8cbd837383c973ce00a2e1b153041d5119c7c08fb498d"

    @pytest.mark.parametrize("rate", BAD_REALS + [0.0], ids=repr)
    def test_initial_condition_names_a_bad_age_rate(self, kernel, rate):
        with pytest.raises(ValueError, match="^age_rate must be "):
            initial_condition(kernel, 0.01, age_rate=rate)

    def test_r0_bar(self, ic):
        assert ic.r0_bar == pytest.approx(0.5, abs=2e-4)

    def test_nu_bar_is_exponential(self, ic):
        u = np.linspace(0.0, 8.0, 60)
        assert np.allclose(ic.tau_bar.generation_density().pdf(u), np.exp(-u), atol=5e-4)

    def test_z_marginal_is_exp_three_halves(self, ic):
        z = np.linspace(0.0, 6.0, 60)
        assert np.allclose(ic.z_marginal.pdf(z), 1.5 * np.exp(-1.5 * z), atol=2e-3)

    def test_g_pdf_uses_exact_tail(self, ic):
        assert ic.g_pdf(100.0) == pytest.approx(0.5 * math.exp(-50.0), rel=1e-9)
        assert ic.g_pdf(-1.0) == 0.0

    def test_bar_tau_against_quadrature(self, kernel):
        # non-exponential g: uniform ages on [0, 2]
        grid = np.linspace(0.0, 2.0, 401)
        g = GridDensity(grid, np.ones_like(grid))
        tb = bar_tau(kernel, g)
        for u in (0.0, 0.7, 2.3):
            oracle = np.trapezoid(0.5 * 1.5 * np.exp(-(grid + u)), grid)
            assert float(tb.value(u)) == pytest.approx(oracle, rel=1e-4)

    @pytest.mark.parametrize("step", [0.005, 0.002])
    def test_tau_bar_is_the_direct_sum(self, step):
        # the FFT errs by about eps times the peak at every point; the clamp
        # at 0 moves no value farther from the clamped reference
        scenario = reference_scenario(age_step=step, dt=step)
        kernel, ic = scenario.model.kernel, scenario.ic
        direct = direct_shifted_age_sums(kernel.value, ic.age_density, step, kernel.ages.size)
        table = ic.tau_bar.table
        assert np.max(np.abs(table - np.maximum(direct * step, 0.0))) <= 1e-15 * table.max()

    def test_bar_tau_rejects_age_step_off_kernel_grid(self, kernel):
        grid = np.linspace(0.0, 2.0, 201)
        with pytest.raises(ValueError, match=r"grid step 0\.005, not 0\.01"):
            bar_tau(kernel, GridDensity(grid, np.ones_like(grid)))

    def test_joint_sampler_marginals(self, ic):
        # stratified uniforms: empirical z-law must match Exp(3/2)
        u = (np.arange(20_000) + 0.5) / 20_000
        w, z = joint_delay_age_from_uniforms(ic, u, np.full_like(u, 0.37))
        assert np.all(w >= 0) and np.all(z >= 0)
        assert np.mean(z) == pytest.approx(2.0 / 3.0, abs=5e-3)
        assert np.mean(z <= 1.0) == pytest.approx(1 - math.exp(-1.5), abs=5e-3)

    def test_joint_sampler_delay_given_age(self, ic):
        # at z fixed, W has density tau(w+z)/(R0 - T(z)) = Exp(1) by lack of memory
        u_w = (np.arange(20_000) + 0.5) / 20_000
        w, z = joint_delay_age_from_uniforms(ic, np.full_like(u_w, 0.8), u_w)
        assert np.all(z == z[0])
        assert np.mean(w) == pytest.approx(1.0, abs=1e-2)

    def test_joint_law_marginal_means(self, ic):
        # G's z-marginal is Exp(3/2) and its delay marginal nu_bar = Exp(1)
        u_age, u_delay = np.random.default_rng(841).random((2, 40_000))
        w, z = joint_delay_age_from_uniforms(ic, u_age, u_delay)
        assert abs(z.mean() - 2.0 / 3.0) < 4 * z.std(ddof=1) / math.sqrt(z.size)
        assert abs(w.mean() - 1.0) < 4 * w.std(ddof=1) / math.sqrt(w.size)


class TestContactRate:
    def test_step_evaluation(self):
        c = ContactRate((0.0, 4.0, 8.0), (1.0, 0.3, 0.8), "step")
        t = np.array([0.0, 3.999, 4.0, 7.2, 8.0, 50.0])
        assert np.array_equal(c(t), np.array([1.0, 1.0, 0.3, 0.3, 0.8, 0.8]))
        assert c.terminal_value == 0.8
        assert c.settles_at == 8.0

    def test_linear_interpolation(self):
        c = ContactRate((0.0, 2.0), (1.0, 0.5), "linear")
        assert c(1.0) == pytest.approx(0.75)
        assert c(10.0) == pytest.approx(0.5)
        assert c.settles_at == 2.0

    def test_matrix_argument(self):
        c = ContactRate((0.0, 4.0), (1.0, 0.25), "step")
        t = np.array([[1.0, 5.0], [4.0, 0.0]])
        assert c(t).shape == (2, 2)
        assert np.array_equal(c(t), np.array([[1.0, 0.25], [0.25, 1.0]]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ContactRate((0.0, 1.0), (1.0, 1.5), "step")  # outside [0, 1]
        with pytest.raises(ValueError):
            ContactRate((1.0, 2.0), (1.0, 0.5), "step")  # must start at 0
        with pytest.raises(ValueError):
            ContactRate((0.0, 2.0, 1.0), (1.0, 0.5, 0.7), "step")

    @pytest.mark.parametrize("knots, levels, named", [
        ((0.0, math.nan), (1.0, 1.0), "knots"),
        ((0.0, math.inf), (1.0, 0.5), "knots"),
        ((0.0, 1.0), (1.0, math.nan), "levels"),
        ((0.0, 1.0), (1.0, math.inf), "levels"),
    ])
    def test_rejects_non_finite(self, knots, levels, named):
        with pytest.raises(ValueError, match=f"contact rate {named} must be finite"):
            ContactRate(knots, levels, "step")

    # numpy read True as 1.0, and raised its own TypeError or conversion and
    # shape messages for the others
    @pytest.mark.parametrize("knots, levels, message", [
        ([0, "x"], [1, 0.5], r"^contact rate knots\[1\] must be a real number, got 'x'$"),
        ([0, {"a": 1}], [1, 0.5], r"^contact rate knots\[1\] must be a real number, got \{'a': 1\}$"),
        ([0, [1, 2]], [1, 0.5], r"^contact rate knots\[1\] must be a real number, got \[1, 2\]$"),
        ([0, True], [1, 0.5], r"^contact rate knots\[1\] must be a real number, got True$"),
        ([0, 1], [None, 0.5], r"^contact rate levels\[0\] must be a real number, got None$"),
        ([0, 1], [1, 10**400], r"^contact rate levels\[1\] must be a real number, got 1000"),
        (0.0, 1.0, r"^contact rate knots must be a sequence of real numbers, got 0\.0$"),
        ("01", [1, 0.5], r"^contact rate knots must be a sequence of real numbers, got '01'$"),
    ], ids=["str", "dict", "list", "bool", "None", "huge-int", "scalar", "whole-str"])
    def test_names_an_entry_that_is_not_a_real_number(self, knots, levels, message):
        with pytest.raises(ValueError, match=message):
            ContactRate(knots, levels, "step")

    @given(st.floats(0.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_values_stay_in_band(self, t):
        c = ContactRate((0.0, 3.0, 6.0), (0.9, 0.2, 0.6), "linear")
        assert 0.2 <= c(t) <= 0.9


class TestTabulatedKernel:
    def test_matches_table(self):
        ages = np.linspace(0.0, 5.0, 501)
        vals = 2.0 * np.exp(-1.3 * ages)
        kern = TabulatedKernel(ages, vals)
        assert kern.r0 == pytest.approx(2.0 / 1.3 * (1.0 - math.exp(-6.5)), rel=1e-4)
        assert float(kern.value(2.0)) == pytest.approx(2.0 * math.exp(-2.6), rel=1e-6)

    def test_zero_beyond_grid_without_tail(self):
        ages = np.linspace(0.0, 3.0, 31)
        kern = TabulatedKernel(ages, np.ones(31))
        assert float(kern.value(3.5)) == 0.0

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TabulatedKernel(np.array([0.0, 1.0, 1.5]), np.ones(3))
        with pytest.raises(ValueError):
            TabulatedKernel(np.array([0.5, 1.0]), np.ones(2))
        with pytest.raises(ValueError):
            TabulatedKernel(np.linspace(0, 1, 11), -np.ones(11))

    @given(beta=st.floats(0.2, 3.0), gamma=st.floats(0.3, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_laplace_at_zero_is_r0(self, beta, gamma):
        kern = ExponentialKernel(beta, gamma, step=0.01, a_max=30.0)
        assert kern.laplace(0.0) == pytest.approx(kern.r0, rel=1e-9)
