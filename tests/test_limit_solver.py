"""Delay-equation solvers against independent oracles.

For the exponential kernel the limit system collapses to the classical SIR
ODE in (S, J) with J(0) = I0 tau_bar(0) / beta, which gives a reference
computable to high accuracy with a stiff ODE integrator.  As I0 -> 0 with
equilibrium initial ages, the incidence approaches the closed form
b(t) = I0 alpha e^{alpha t} of the linearized system.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.signal import fftconvolve

from epichain import (
    ContactRate, ExponentialKernel, MarkovSIR, compartment_curve, final_size_settled_contact,
    initial_condition, picard_delay, solve_delay,
)
from epichain.limit_solver import _BLOCK, _convolve, _grid_system, _time_grid

STEP_CONTACT = ContactRate((0.0, 4.0, 8.0), (1.0, 0.3, 0.8), "step")


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _sir_ode(sol):
    """High-accuracy (S, J) reference on sol's grid."""
    kern, ic = sol.kernel, sol.ic
    j0 = ic.i0 * float(ic.tau_bar.value(0.0)) / kern.beta

    def rhs(_t, y):
        s, j = y
        return [-kern.beta * s * j, kern.beta * s * j - kern.gamma * j]

    out = solve_ivp(rhs, (0.0, float(sol.t[-1])), [sol.s0, j0],
                    rtol=1e-11, atol=1e-13, dense_output=True)
    return out.sol(sol.t)


class TestMarching:
    def test_s_matches_ode(self, sol):
        s_ode = _sir_ode(sol)[0]
        assert np.max(np.abs(sol.S - s_ode)) < 3e-5

    def test_incidence_matches_ode(self, sol):
        s_ode, j_ode = _sir_ode(sol)
        b_ode = sol.kernel.beta * s_ode * j_ode
        assert np.max(np.abs(sol.b - b_ode)) < 3e-5

    def test_frozen_incidence_value(self, sol):
        assert float(sol.b_at(5.0)) == pytest.approx(0.040383, abs=5e-5)

    def test_b_plus_s_identity(self, sol):
        assert np.array_equal(sol.B, sol.s0 - sol.S)

    def test_cumulative_consistent_with_quadrature(self, sol):
        quad = np.concatenate([[0.0], np.cumsum(0.5 * sol.dt * (sol.b[1:] + sol.b[:-1]))])
        assert np.max(np.abs(sol.B - quad)) < 5e-5

    def test_monotone(self, sol):
        assert np.all(np.diff(sol.S) <= 0)
        assert np.all(np.diff(sol.B) >= 0)
        assert np.all(sol.b >= 0)

    def test_residual_small(self, sol):
        assert sol.renewal_residual < 1e-10

    def test_b_at_negative_times(self, sol):
        # history is the initial age density: b(-u) = I0 g(u)
        u = np.array([0.5, 2.0])
        assert np.allclose(sol.b_at(-u), 0.01 * 0.5 * np.exp(-0.5 * u), rtol=1e-12)

    def test_rejects_incommensurate_grid(self, kernel, unit_contact, ic):
        with pytest.raises(ValueError):
            solve_delay(kernel, unit_contact, ic, 5.0, 0.003)

    def test_rejects_horizon_off_grid(self, kernel, unit_contact, ic):
        with pytest.raises(ValueError):
            solve_delay(kernel, unit_contact, ic, 5.0025, 0.005)


_SOLVERS = {"solve_delay": solve_delay, "picard_delay": picard_delay}


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
@pytest.mark.parametrize("horizon, dt, named", [
    (5.0, -1.0, "dt"), (5.0, 0.0, "dt"), (5.0, math.nan, "dt"),
    (-5.0, 0.005, "horizon"), (math.inf, 0.005, "horizon"), (5.0025, 0.005, "multiple of dt"),
])
def test_time_grid_checked_by_every_solver(kernel, unit_contact, ic, solver, horizon, dt, named):
    with pytest.raises(ValueError, match=named):
        _SOLVERS[solver](kernel, unit_contact, ic, horizon, dt)


class TestPicard:
    def test_agrees_with_marching(self, kernel, unit_contact, ic, sol):
        res = picard_delay(kernel, unit_contact, ic, 25.0, 0.005)
        assert np.max(np.abs(res.solution.b - sol.b)) < 1e-10
        assert res.iterations < 200
        assert res.weighted_change < 1e-12

    def test_step_contact_agreement(self, kernel, ic):
        march = solve_delay(kernel, STEP_CONTACT, ic, 12.0, 0.01)
        pic = picard_delay(kernel, STEP_CONTACT, ic, 12.0, 0.01).solution
        assert np.max(np.abs(march.b - pic.b)) < 1e-10

    def test_step_contact_recorded_values(self, kernel, ic):
        res = picard_delay(kernel, STEP_CONTACT, ic, 80.0, 0.005)
        assert res.iterations == 131
        assert _sha(res.solution.b) == \
            "95ccc434242a740d0c8e94cdf892cd43395562065b1c781aa13ea50754fcac59"


class TestBlockedHistory:
    """solve_delay sums the history in blocks of _BLOCK steps: one FFT per
    block start, a dot product inside the block."""

    # (steps, largest inner iteration count the full-history dot needed)
    @pytest.mark.parametrize("n, iterations_max", [
        (_BLOCK - 1, 6), (_BLOCK, 6), (_BLOCK + 1, 6), (2 * _BLOCK + 1, 7),
    ])
    def test_block_boundaries(self, kernel, ic, n, iterations_max):
        assert _BLOCK == 1024  # the iteration counts were recorded at these step counts
        dt = 0.005
        march = solve_delay(kernel, STEP_CONTACT, ic, n * dt, dt)
        pic = picard_delay(kernel, STEP_CONTACT, ic, n * dt, dt).solution
        assert march.t.size == n + 1
        assert np.max(np.abs(march.b - pic.b)) < 1e-12
        assert march.renewal_residual < 1e-12
        assert march.iterations_max == iterations_max

    # at T = 100 b has decayed to 3e-15 of its peak, so a residual taken
    # pointwise would read the FFT's rounding as a failure
    @pytest.mark.parametrize("contact, horizon, dt", [
        ("unit", 25.0, 0.005), ("unit", 25.0, 0.001), ("unit", 25.0, 0.0025),
        ("unit", 100.0, 0.005), ("step", 80.0, 0.005),
    ])
    def test_residual_is_that_of_the_global_map(self, kernel, ic, unit_contact,
                                                contact, horizon, dt):
        # the march's own A and S would hide a wrong history sum; the global
        # map b -> (A, S) recomputes both from b
        contact = unit_contact if contact == "unit" else STEP_CONTACT
        march = solve_delay(kernel, contact, ic, horizon, dt)
        grid = _grid_system(kernel, contact, ic, march.t, dt)
        assert march.renewal_residual == grid.residual(march.b, *grid.forward(march.b))
        assert march.renewal_residual < 1e-12

    # 25001 points put the spectra past numpy's 256 KiB threshold for reusing a temporary
    @pytest.mark.parametrize("horizon, dt", [(80.0, 0.005), (25.0, 0.001)])
    def test_cached_spectrum_matches_fftconvolve(self, kernel, ic, horizon, dt):
        grid = _grid_system(kernel, STEP_CONTACT, ic, _time_grid(horizon, dt), dt)
        b = solve_delay(kernel, STEP_CONTACT, ic, horizon, dt).b
        assert np.array_equal(_convolve(grid.tau_spectrum, b),
                              fftconvolve(grid.tau, b)[:b.size])


class TestLinearized:
    def test_equilibrium_closed_form(self, kernel, unit_contact, alpha):
        # 1 - S stays below 2e-7 up to T = 5, so b follows the linear renewal equation
        ic_small = initial_condition(kernel, 1e-8, age_rate=0.5)
        run = solve_delay(kernel, unit_contact, ic_small, 5.0, 0.005)
        exact = ic_small.i0 * alpha * np.exp(alpha * run.t)
        assert np.max(np.abs(run.b / exact - 1.0)) < 1e-4

    def test_nonlinear_solution_approaches_linearized(self, kernel, unit_contact, alpha):
        # the gap to the linearized incidence is the depletion 1 - S, of order I0 e^{alpha t}
        def gap(i0):
            ic_i0 = initial_condition(kernel, i0, age_rate=0.5)
            full = solve_delay(kernel, unit_contact, ic_i0, 3.0, 0.005)
            return np.max(np.abs(full.b / (i0 * alpha * np.exp(alpha * full.t)) - 1.0))

        coarse, fine = gap(1e-4), gap(1e-8)
        assert fine < 1e-4
        assert fine < coarse / 10.0


class TestFinalSize:
    def test_reference_value(self, sol):
        # recorded bits: at t_c = 0 the exponent is the closed form c (R0 B + I0 R0_bar)
        fp = final_size_settled_contact(sol)
        assert fp.hex() == "0x1.2a6da5706ae26p-1"
        assert fp == pytest.approx(0.58287, abs=1e-5)

    def test_fixed_point_equation(self, sol):
        ic, r0 = sol.ic, sol.kernel.r0
        x = final_size_settled_contact(sol) - ic.i0
        assert x == pytest.approx(sol.s0 * (1.0 - math.exp(-(r0 * x + ic.i0 * ic.r0_bar))),
                                  abs=1e-10)

    def test_solver_reaches_fixed_point(self, sol):
        fp = final_size_settled_contact(sol)
        assert float(sol.B[-1]) + sol.ic.i0 == pytest.approx(fp, abs=1.5e-3)

    def test_settled_contact_matches_scalar_on_constant(self, sol):
        # scalar closed form for constant c = 1: x - I0 = (1 - I0)(1 - e^{-(R0 (x - I0) + I0 R0_bar)})
        i0, r0, r0_bar = sol.ic.i0, sol.kernel.r0, sol.ic.r0_bar
        fp = brentq(lambda x: x - i0 - (1.0 - i0) * (1.0 - math.exp(-(r0 * (x - i0) + i0 * r0_bar))),
                    i0 + 1e-9, 1.0)
        assert final_size_settled_contact(sol) == pytest.approx(fp, abs=2e-3)

    def test_step_contact_recorded_value(self, kernel, ic):
        # T = 80: the suppressed second wave has settled
        step80 = solve_delay(kernel, STEP_CONTACT, ic, 80.0, 0.005)
        fp = final_size_settled_contact(step80)
        assert fp.hex() == "0x1.0f1c029a2eadap-2"
        assert float(step80.B[-1]) + step80.ic.i0 == pytest.approx(fp, abs=1e-3)

    def test_subcritical_outbreak_small(self):
        kern = ExponentialKernel(0.8, 1.0, step=0.01, a_max=30.0)  # R0 = 0.8
        ic_sub = initial_condition(kern, 0.001, age_rate=0.5)
        total = final_size_settled_contact(
            solve_delay(kern, ContactRate.constant(1.0), ic_sub, 10.0, 0.01))
        assert 0.001 < total < 0.01

    def test_rejects_bad_i0(self, kernel):
        for i0 in (0.0, 1.0, math.nan, True):
            with pytest.raises(ValueError, match=rf"probability i0 must lie in \(0, 1\), got {i0!r}"):
                initial_condition(kernel, i0, age_rate=0.5)


class TestCompartmentCurve:
    def test_sir_mass_balance(self, sol, model):
        frac_i = compartment_curve(sol, model, "I")
        frac_r = compartment_curve(sol, model, "R")
        total = sol.S + frac_i + frac_r
        assert np.max(np.abs(total - 1.0)) < 2e-4

    def test_initial_infectious_fraction(self, sol, model):
        # E_g[e^{-Z}] = (1/2)/(3/2) = 1/3 of the seeded mass is still in I
        frac_i = compartment_curve(sol, model, "I")
        assert frac_i[0] == pytest.approx(0.01 / 3.0, abs=2e-5)

    def test_matches_ode_infectious(self, sol, model):
        j_ode = _sir_ode(sol)[1]
        frac_i = compartment_curve(sol, model, "I")
        assert np.max(np.abs(frac_i - j_ode)) < 1e-4

    def test_recorded_values(self, sol, model):
        assert _sha(compartment_curve(sol, model, "I")) == \
            "50cdfa5674e682a9998c6e2533a8f6f8f098d331667886d91f8e4e7d38ff3169"
        assert _sha(compartment_curve(sol, model, "R")) == \
            "a36c3cbfd3eb31071e8eac240e7e63d2b80c3aa8b4e9ecdb5d96a5cbf66d0bb8"

    def test_rejects_step_off_age_grid(self, kernel, unit_contact, ic, model):
        coarse = solve_delay(kernel, unit_contact, ic, 5.0, 0.01)
        with pytest.raises(ValueError, match=r"grid step 0\.01, not 0\.005"):
            compartment_curve(coarse, model, "I")


@given(
    beta=st.floats(0.5, 2.5),
    gamma=st.floats(0.4, 1.6),
    i0=st.floats(1e-4, 0.2),
)
@settings(max_examples=15, deadline=None)
# b falls to ~5e-9 here, where an absolute inner stopping test in
# solve_delay left a renewal residual of 1.9e-9 relative to b
@example(beta=0.5, gamma=1.5, i0=1e-4)
def test_solver_invariants(beta, gamma, i0):
    kern = ExponentialKernel(beta, gamma, step=0.02, a_max=30.0)
    ic = initial_condition(kern, i0, age_rate=max(beta - gamma, 0.1))
    run = solve_delay(kern, ContactRate.constant(0.9), ic, 6.0, 0.02)
    assert np.all(run.b >= 0)
    assert np.all(np.diff(run.S) <= 1e-15)
    assert np.all(run.S > 0)
    assert run.renewal_residual < 1e-9
    # the reported residual is relative to max|b|, so check the tail pointwise
    grid = _grid_system(kern, ContactRate.constant(0.9), ic, run.t, 0.02)
    A, S = grid.forward(run.b)
    assert np.max(np.abs(run.b - grid.c * S * A) / run.b) < 1e-9
    assert np.array_equal(run.B, run.s0 - run.S)
