"""Deterministic large-population limit.

The limit of the individual-based dynamics is an age-structured transport
system whose boundary value b(t) (the incidence density) satisfies a
nonlinear renewal equation

    b(t) = c(t) S(t) [ integral_0^t tau(t - a) b(a) da + I0 tau_bar(t) ],

with S(t) = S0 exp(-C(t)), C(t) = integral_0^t c(s) A(s) ds and A(s) the
bracketed force of infection.  The integrated form B(t) = S0 - S(t) is the
cumulative incidence; the age profile follows by transport:
n(t, a) = b(t - a) for a < t and I0 g(a - t) for a > t.

Two solvers share one discretization (trapezoid everywhere, the same grid
functional A):

* `solve_delay` marches forward in time, closing each step with a scalar
  fixed point in b(t_k) (the implicit weight is the trapezoid endpoint).
* `picard_delay` iterates the full map from b = 0, the constructive
  fixed-point route, with convergence tracked in an exponentially weighted
  sup metric.

Because both solve the same grid equations, their fixed points agree to
iteration tolerance, giving an internal cross-check far below the
discretization error itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .courses import CourseModel
from .densities import cumulative_trapezoid
from .kernels import ContactRate, InitialCondition, IntensityKernel, malthusian_parameter

_INNER_TOL = 1e-14       # relative change that ends a marching step's fixed point
_MAX_INNER = 100         # fixed-point iterations per marching step
_RESIDUAL_TOL = 1e-8     # largest renewal residual a marched solution may keep
_PICARD_TOL = 1e-13      # weighted and unweighted change that ends the Picard iteration
_MAX_PICARD = 2_000
_FINAL_SIZE_TOL = 1e-12  # change that ends the final-size fixed point
_MAX_FINAL_SIZE = 10_000


@dataclass(frozen=True)
class LimitSolution:
    """Solution of the limit system on a uniform time grid.

    Fields `b`, `B`, `S` hold incidence density, cumulative incidence, and
    susceptible fraction; the generating ingredients are kept for downstream
    consumers (chains, trees, reports).
    """

    t: np.ndarray
    b: np.ndarray
    B: np.ndarray
    S: np.ndarray
    kernel: IntensityKernel
    contact: ContactRate
    ic: InitialCondition
    renewal_residual: float
    iterations_max: int = 0

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def s0(self) -> float:
        return 1.0 - self.ic.i0

    def b_at(self, x) -> np.ndarray:
        """Incidence extended to negative times by the initial age density:
        b(x) = I0 g(-x) for x < 0, linear interpolation on the grid for
        x in [0, T]."""
        x = np.asarray(x, dtype=float)
        pos = np.interp(x, self.t, self.b)
        neg = self.ic.i0 * self.ic.g_pdf(np.maximum(-x, 0.0))
        return np.where(x >= 0, pos, neg)

    def S_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, np.interp(x, self.t, self.S), 1.0 - self.ic.i0)


def _trapezoid_convolution(tau_vals: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid prefix convolution dt * sum'' tau(t_k - t_j) b(t_j); FFT on
    large grids, direct otherwise (identical up to roundoff)."""
    n = b.size
    if n > 4000:
        from scipy.signal import fftconvolve

        conv = fftconvolve(tau_vals, b)[:n] * dt
    else:
        conv = np.convolve(tau_vals, b)[:n] * dt
    conv -= 0.5 * dt * (tau_vals * b[0] + tau_vals[0] * b)
    return conv


def _time_grid(horizon: float, dt: float) -> np.ndarray:
    """The solver grid 0, dt, ..., horizon, shared by every solver entry point."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"time step dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    n = int(round(horizon / dt))
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon:g} must be a multiple of dt {dt:g}")
    return np.linspace(0.0, n * dt, n + 1)


def _force_grid(kernel: IntensityKernel, ic: InitialCondition, t: np.ndarray):
    """tau and I0*tau_bar evaluated on the solver grid."""
    tau_vals = np.asarray(kernel.value(t), dtype=float)
    tb = ic.tau_bar
    ratio = tb.step / (t[1] - t[0])
    if abs(ratio - round(ratio)) > 1e-9 and abs(1.0 / ratio - round(1.0 / ratio)) > 1e-9:
        raise ValueError(
            f"time step {t[1]-t[0]:g} is not commensurate with the kernel grid step {tb.step:g}"
        )
    forcing = ic.i0 * np.interp(t, tb.ages, tb.table, left=0.0, right=0.0)
    return tau_vals, forcing


def solve_delay(kernel: IntensityKernel, contact: ContactRate, ic: InitialCondition,
                horizon: float, dt: float) -> LimitSolution:
    """March the renewal system forward on a uniform grid of step dt.

    Each step solves the scalar implicit equation in b(t_k) by fixed-point
    iteration (the coupling through the trapezoid endpoint is O(dt), so a
    handful of iterations reaches machine accuracy).  Raises if a step fails
    to converge.
    """
    t = _time_grid(horizon, dt)
    n = t.size - 1
    tau_vals, forcing = _force_grid(kernel, ic, t)
    c_vals = np.asarray(contact(t), dtype=float)
    s0 = 1.0 - ic.i0

    b = np.zeros(n + 1)
    A = np.zeros(n + 1)   # force of infection (bracket)
    C = np.zeros(n + 1)   # accumulated contact-weighted force
    S = np.full(n + 1, s0)

    A[0] = forcing[0]
    b[0] = c_vals[0] * s0 * A[0]
    q = 0.5 * dt * tau_vals[0]  # implicit trapezoid weight on b[k]
    # window beyond which tau vanishes (tabulated kernels); closed forms keep all
    max_iters = 0
    for k in range(1, n + 1):
        conv_known = dt * (np.dot(tau_vals[k:0:-1], b[:k]) - 0.5 * tau_vals[k] * b[0])
        partial = conv_known + forcing[k]
        c_half = 0.5 * dt * c_vals[k]
        base_C = C[k - 1] + 0.5 * dt * c_vals[k - 1] * A[k - 1]
        bk = b[k - 1]
        converged = False
        for it in range(1, _MAX_INNER + 1):
            A_k = partial + q * bk
            S_k = s0 * math.exp(-(base_C + c_half * A_k))
            new_bk = c_vals[k] * S_k * A_k
            if abs(new_bk - bk) <= _INNER_TOL * abs(new_bk):
                bk = new_bk
                converged = True
                max_iters = max(max_iters, it)
                break
            bk = new_bk
        if not converged:
            raise RuntimeError(f"per-step solve failed to converge at step {k} (t = {t[k]:g})")
        b[k] = bk
        A[k] = partial + q * bk
        C[k] = base_C + c_half * A[k]
        S[k] = s0 * math.exp(-C[k])

    B = s0 - S
    # residual of the discrete renewal identity, relative to the incidence scale
    residual = float(np.max(np.abs(b - c_vals * S * A) / np.maximum(np.abs(b), 1e-300)))
    if residual > _RESIDUAL_TOL:
        raise RuntimeError(f"renewal residual {residual:g} exceeds tolerance {_RESIDUAL_TOL:g}")
    return LimitSolution(t=t, b=b, B=B, S=S, kernel=kernel, contact=contact, ic=ic,
                         renewal_residual=residual, iterations_max=max_iters)


@dataclass(frozen=True)
class PicardResult:
    solution: LimitSolution
    iterations: int
    weighted_change: float


def picard_delay(kernel: IntensityKernel, contact: ContactRate, ic: InitialCondition,
                 horizon: float, dt: float) -> PicardResult:
    """Solve the same grid system by global fixed-point iteration from b = 0.

    Convergence is tracked in the weighted sup metric
    max_k exp(-rate * t_k) |delta b_k| with rate = max(alpha, 0) + 1, alpha
    the kernel's Malthusian parameter (0 when it has none), the weight that
    makes the underlying map a contraction; iteration stops when the
    unweighted change is also below the tolerance.
    """
    t = _time_grid(horizon, dt)
    n = t.size - 1
    tau_vals, forcing = _force_grid(kernel, ic, t)
    c_vals = np.asarray(contact(t), dtype=float)
    s0 = 1.0 - ic.i0
    try:
        alpha = malthusian_parameter(kernel).alpha
    except ValueError:
        alpha = 0.0
    rate = max(alpha, 0.0) + 1.0
    weights = np.exp(-rate * t)

    b = np.zeros(n + 1)
    weighted_change = math.inf
    iterations = 0
    for iterations in range(1, _MAX_PICARD + 1):
        A = _trapezoid_convolution(tau_vals, b, dt) + forcing
        C = cumulative_trapezoid(t, c_vals * A)
        S = s0 * np.exp(-C)
        b_new = c_vals * S * A
        diff = np.abs(b_new - b)
        weighted_change = float(np.max(weights * diff))
        unweighted = float(np.max(diff))
        b = b_new
        if weighted_change < _PICARD_TOL and unweighted < _PICARD_TOL:
            break
    else:
        raise RuntimeError(f"Picard iteration did not converge in {_MAX_PICARD} steps")

    A = _trapezoid_convolution(tau_vals, b, dt) + forcing
    C = cumulative_trapezoid(t, c_vals * A)
    S = s0 * np.exp(-C)
    residual = float(np.max(np.abs(b - c_vals * S * A) / np.maximum(np.abs(b), 1e-300)))
    sol = LimitSolution(t=t, b=b, B=s0 - S, S=S, kernel=kernel, contact=contact, ic=ic,
                        renewal_residual=residual)
    return PicardResult(solution=sol, iterations=iterations, weighted_change=weighted_change)


def compartment_curve(sol: LimitSolution, model: CourseModel, compartment: str) -> np.ndarray:
    """Limit fraction in a compartment over the solution grid:
    integral n(t, a) p(a, i) da, split into the transported part (time-grid
    convolution) and the aged initial part (age-grid quadrature)."""
    t = sol.t
    dt = sol.dt
    n = t.size - 1
    p_t = np.asarray(model.marginal_p(t, compartment), dtype=float)
    conv = _trapezoid_convolution(p_t, sol.b, dt)

    # aged initial part: I0 * E_g[ p(Z + t, i) ]; sliding product when the
    # grids share a step, otherwise direct quadrature per time point
    g = sol.ic.age_density
    m = g.grid.size
    da = g.step
    if abs(da - dt) < 1e-12:
        n_pts = n + 1
        ext_ages = np.linspace(0.0, (n_pts + m - 2) * da, n_pts + m - 1)
        p_ext = np.asarray(model.marginal_p(ext_ages, compartment), dtype=float)
        g_vals = g.values / g.total
        aged = np.correlate(p_ext, g_vals, mode="valid")
        aged -= 0.5 * g_vals[0] * p_ext[:n_pts]
        aged -= 0.5 * g_vals[-1] * p_ext[m - 1:]
        aged *= da * sol.ic.i0
    else:
        z = g.grid
        gw = g.values / g.total
        aged = np.array([
            sol.ic.i0 * np.trapezoid(gw * np.asarray(model.marginal_p(z + tk, compartment)), z)
            for tk in t
        ])
    return conv + aged


def final_size(r0_bar: float, r0: float, i0: float, c_const: float) -> float:
    """Total infected fraction for a constant contact rate.

    Solves the scalar fixed point B = S0 (1 - exp(-c (R0 B + I0 R0_bar)))
    by monotone iteration from B = S0 and returns B + I0 (everyone counted,
    initial infections included).
    """
    s0 = 1.0 - i0
    if not 0.0 < i0 < 1.0:
        raise ValueError("i0 must lie in (0, 1)")
    x = s0
    for _ in range(_MAX_FINAL_SIZE):
        x_new = s0 * (1.0 - math.exp(-c_const * (r0 * x + i0 * r0_bar)))
        if abs(x_new - x) < _FINAL_SIZE_TOL:
            return x_new + i0
        x = x_new
    raise RuntimeError(f"final size iteration did not converge in {_MAX_FINAL_SIZE} steps")


def final_size_settled_contact(sol: LimitSolution) -> float:
    """Final infected fraction when the contact rate is eventually constant.

    Generalizes the constant-rate fixed point: with c constant (= c*) after
    time t_c, the limiting exponent splits into the solved history on
    [0, t_c] plus c* times the remaining force, which depends on the unknown
    total only through R0 (B_inf - B(t_c)).  Reduces exactly to the
    constant-rate formula when t_c = 0.
    """
    contact = sol.contact
    t_c = contact.settles_at
    c_star = contact.terminal_value
    if t_c > float(sol.t[-1]):
        raise ValueError("contact rate settles beyond the solved horizon")
    t = sol.t
    dt = sol.dt
    kernel = sol.kernel
    ic = sol.ic
    s0 = sol.s0
    k_c = int(round(t_c / dt))
    if abs(k_c * dt - t_c) > 1e-9 * max(1.0, t_c):
        raise ValueError("contact settling time must sit on the solver grid")

    tau_vals, forcing = _force_grid(kernel, ic, t)
    c_vals = np.asarray(contact(t), dtype=float)
    A = _trapezoid_convolution(tau_vals, sol.b, dt) + forcing
    X_hist = float(cumulative_trapezoid(t[: k_c + 1], (c_vals * A)[: k_c + 1])[-1]) if k_c else 0.0

    # force still to be delivered after t_c by infections before t_c:
    # integral_0^{t_c} b(a) (R0 - cumulative_tau(t_c - a)) da, plus the
    # seeded remainder I0 (r0_bar - cumulative_tau_bar(t_c)).
    r0 = kernel.r0
    if k_c:
        remaining_kernel = r0 - np.asarray(kernel.cumulative(t_c - t[: k_c + 1]), dtype=float)
        carry = float(np.trapezoid(sol.b[: k_c + 1] * remaining_kernel, t[: k_c + 1]))
    else:
        carry = 0.0
    seeded_remainder = ic.i0 * float(ic.r0_bar - ic.tau_bar.cumulative(t_c))
    B_tc = float(sol.B[k_c])

    x = s0
    for _ in range(_MAX_FINAL_SIZE):
        exponent = X_hist + c_star * (carry + seeded_remainder + r0 * (x - B_tc))
        x_new = s0 * (1.0 - math.exp(-exponent))
        if abs(x_new - x) < _FINAL_SIZE_TOL:
            return x_new + ic.i0
        x = x_new
    raise RuntimeError(f"final size iteration did not converge in {_MAX_FINAL_SIZE} steps")
