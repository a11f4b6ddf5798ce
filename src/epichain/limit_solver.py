"""Deterministic large-population limit.

The limit of the individual-based dynamics is an age-structured transport
system whose boundary value b(t) (the incidence density) satisfies a
nonlinear renewal equation

    b(t) = c(t) S(t) [ integral_0^t tau(t - a) b(a) da + I0 tau_bar(t) ],

with S(t) = S0 exp(-C(t)), C(t) = integral_0^t c(s) A(s) ds and A(s) the
bracketed force of infection.  The integrated form B(t) = S0 - S(t) is the
cumulative incidence; the age profile follows by transport:
n(t, a) = b(t - a) for a < t and I0 g(a - t) for a > t.

Every quantity has one code path.  `_GridSystem` holds tau, its real FFT
(computed once), I0 tau_bar and c on the solver grid, the map b -> (A, S)
and the renewal residual; both solvers and the final size share it.
`densities._convolve` (cached spectrum times the FFT of b, transformed
back), the package's one FFT convolution, gives every history sum:

* `solve_delay` marches forward in time, closing each step with a scalar
  fixed point in b(t_k) (the implicit weight is the trapezoid endpoint).
  The history sum runs in blocks of `_BLOCK` steps: one FFT convolution at
  each block start gives the history from before the block, and a dot
  product of at most `_BLOCK` terms the part inside it, so a step costs
  O(_BLOCK) plus an O(n log n / _BLOCK) share of the FFTs (the fast
  convolution of Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6
  (1985) 532-541, with blocks of fixed size).
* `picard_delay` iterates the full map from b = 0, the constructive
  fixed-point route, until the sup change is below tolerance.
* `final_size_settled_contact` solves the final-size fixed point for a
  contact rate that is constant after some time t_c >= 0.

Both solvers solve the same grid equations, so their fixed points agree to
iteration tolerance, an internal cross-check far below the discretization
error itself.  `compartment_curve` shares the convolution and, with
tau_bar, the initial-age expectation E_g[f(Z + t)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .courses import CourseModel
from .densities import UniformInterp, _convolve, _spectrum, cumulative_trapezoid, uniform_grid
from .kernels import ContactRate, InitialCondition, IntensityKernel, shifted_age_sums
from .rng import check_real

# below the 10,000 terms past which OpenBLAS splits a dot across threads, rounding it anew
_BLOCK = 1024            # marching steps per block of the history sum
_INNER_TOL = 1e-14       # relative change that ends a marching step's fixed point
_MAX_INNER = 100         # fixed-point iterations per marching step
_RESIDUAL_TOL = 1e-8     # largest renewal residual a marched solution may keep
_PICARD_TOL = 1e-13      # sup change that ends the Picard iteration
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

    @cached_property
    def _b_table(self) -> UniformInterp:  # built at the first lookup
        return UniformInterp(self.t, self.b)

    @cached_property
    def _S_table(self) -> UniformInterp:
        return UniformInterp(self.t, self.S)

    def b_at(self, x) -> np.ndarray:
        """Incidence extended to negative times by the initial age density:
        b(x) = I0 g(-x) for x < 0 (and NaN), linear interpolation on the
        grid for x in [0, T] (held at b(T) beyond).  Each branch is
        evaluated on its own x only."""
        x = np.asarray(x, dtype=float)
        pos = x >= 0
        if pos.all():
            return self._b_table(x)
        out = np.empty(x.shape)
        out[pos] = self._b_table(x[pos])
        neg = ~pos
        out[neg] = self.ic.i0 * self.ic.g_pdf(np.maximum(-x[neg], 0.0))
        return out

    def S_at(self, x) -> np.ndarray:
        """Susceptible fraction: S0 = 1 - I0 for x < 0 (and NaN), linear
        interpolation on the grid for x in [0, T] (held at S(T) beyond)."""
        x = np.asarray(x, dtype=float)
        out = self._S_table(x)
        out[~(x >= 0)] = 1.0 - self.ic.i0
        return out


def _trapezoid_convolution(f: np.ndarray, spectrum: np.ndarray, b: np.ndarray,
                           dt: float) -> np.ndarray:
    """Trapezoid prefix convolution dt * sum'' f(t_k - t_j) b(t_j), f given
    with its `_spectrum`."""
    conv = _convolve(spectrum, b) * dt
    conv -= 0.5 * dt * (f * b[0] + f[0] * b)
    return conv


def _time_grid(horizon: float, dt: float, age_step: float) -> np.ndarray:
    """The solver grid 0, dt, ..., horizon, shared by every solver entry point
    and by the scenario check: its step and the age grid's `age_step` must be
    whole multiples of one another."""
    dt = check_real("time step dt", dt, positive=True)
    horizon = check_real("horizon", horizon, positive=True)
    age_step = check_real("age step", age_step, positive=True)
    t = uniform_grid(horizon, dt)
    if t.size < 2 or abs(t[-1] - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon:g} must be a multiple of dt {dt:g}")
    ratio = age_step / (t[1] - t[0])
    if abs(ratio - round(ratio)) > 1e-9 and abs(1.0 / ratio - round(1.0 / ratio)) > 1e-9:
        raise ValueError(f"time step {t[1] - t[0]:g} is not commensurate with the age step "
                         f"{age_step:g}: one must be a whole multiple of the other")
    return t


@dataclass(frozen=True)
class _GridSystem:
    """The renewal system on one solver grid: tau and its `_spectrum`, the
    seeded force I0 tau_bar and the contact rate c at the grid points."""

    t: np.ndarray
    dt: float
    tau: np.ndarray
    tau_spectrum: np.ndarray
    forcing: np.ndarray
    c: np.ndarray
    s0: float

    def forward(self, b: np.ndarray):
        """The map b -> (A, S): the force of infection A = tau * b + I0 tau_bar
        and the susceptible fraction S = S0 exp(-integral c A)."""
        A = _trapezoid_convolution(self.tau, self.tau_spectrum, b, self.dt) + self.forcing
        return A, self.s0 * np.exp(-cumulative_trapezoid(self.t, self.c * A))

    def residual(self, b: np.ndarray, A: np.ndarray, S: np.ndarray) -> float:
        """Largest residual of b = c S A, relative to the incidence scale max|b|.

        Not pointwise: the FFT in `forward` errs by about eps max|b| at every
        point, which a pointwise ratio would inflate without bound as b decays.
        """
        return float(np.max(np.abs(b - self.c * S * A)) / max(float(np.max(np.abs(b))), 1e-300))


def _grid_system(kernel: IntensityKernel, contact: ContactRate, ic: InitialCondition,
                 t: np.ndarray, dt: float) -> _GridSystem:
    """The system on grid t, a `_time_grid` on `ic.kernel`'s age step; dt is
    the step as the caller holds it, which t[1] - t[0] can miss in the last bit."""
    ic.check_kernel(kernel)
    tb = ic.tau_bar
    tau = np.asarray(kernel.value(t), dtype=float)
    return _GridSystem(
        t=t, dt=float(dt), tau=tau, tau_spectrum=_spectrum(tau),
        forcing=ic.i0 * np.interp(t, tb.ages, tb.table, left=0.0, right=0.0),
        c=np.asarray(contact(t), dtype=float), s0=1.0 - ic.i0)


def solve_delay(kernel: IntensityKernel, contact: ContactRate, ic: InitialCondition,
                horizon: float, dt: float) -> LimitSolution:
    """March the renewal system forward on a uniform grid of step dt.

    Each step solves the scalar implicit equation in b(t_k) by fixed-point
    iteration on Python floats (the coupling through the trapezoid endpoint
    is O(dt), so a handful of iterations reaches machine accuracy).  Raises
    if a step fails to converge, or if the marched b leaves a renewal
    residual above `_RESIDUAL_TOL` under the global map b -> (A, S).

    The history sum dt * sum_{j<k} tau(t_k - t_j) b(t_j) is blocked: at the
    start of each block of `_BLOCK` steps one FFT convolution with the grid's
    cached tau spectrum gives the terms from before the block for every step
    of it, and a dot product covers the steps already solved inside it.  A
    step thus costs at most `_BLOCK` multiply-adds plus its share of one
    O(n log n) FFT per block.
    """
    grid = _grid_system(kernel, contact, ic, _time_grid(horizon, dt, ic.kernel.step), dt)
    t, dt, s0 = grid.t, grid.dt, grid.s0
    n = t.size - 1
    forcing, c_vals = grid.forcing.tolist(), grid.c.tolist()
    tau_reversed = grid.tau[::-1].copy()  # tau(t_m) at n - m: contiguous in-block slices

    b = np.zeros(n + 1)
    S = np.empty(n + 1)
    A_k = forcing[0]  # force of infection (bracket) at the current step
    b_k = c_vals[0] * s0 * A_k
    b[0], S[0] = b_k, s0
    C = 0.0  # accumulated contact-weighted force
    q = 0.5 * dt * float(grid.tau[0])  # implicit trapezoid weight on b[k]
    max_iters = 0
    for first in range(1, n + 1, _BLOCK):
        stop = min(first + _BLOCK, n + 1)
        # b is still zero from `first` on, so this is the history from before
        # the block, less the trapezoid half weight on b[0]
        before = (_convolve(grid.tau_spectrum, b)[first:stop]
                  - 0.5 * b[0] * grid.tau[first:stop]).tolist()
        for k in range(first, stop):
            inside = float(np.dot(tau_reversed[n - k + first:n], b[first:k]))
            partial = dt * (before[k - first] + inside) + forcing[k]
            c_half = 0.5 * dt * c_vals[k]
            base_C = C + 0.5 * dt * c_vals[k - 1] * A_k
            for it in range(1, _MAX_INNER + 1):
                A_k = partial + q * b_k
                new_b = c_vals[k] * (s0 * math.exp(-(base_C + c_half * A_k))) * A_k
                converged = abs(new_b - b_k) <= _INNER_TOL * abs(new_b)
                b_k = new_b
                if converged:
                    break
            else:
                raise RuntimeError(f"per-step solve failed to converge at step {k} (t = {t[k]:g})")
            max_iters = max(max_iters, it)
            A_k = partial + q * b_k
            C = base_C + c_half * A_k
            b[k], S[k] = b_k, s0 * math.exp(-C)

    residual = grid.residual(b, *grid.forward(b))
    if residual > _RESIDUAL_TOL:
        raise RuntimeError(f"renewal residual {residual:g} exceeds tolerance {_RESIDUAL_TOL:g}")
    return LimitSolution(t=t, b=b, B=s0 - S, S=S, kernel=kernel, contact=contact, ic=ic,
                         renewal_residual=residual, iterations_max=max_iters)


@dataclass(frozen=True)
class PicardResult:
    solution: LimitSolution
    iterations: int


def picard_delay(kernel: IntensityKernel, contact: ContactRate, ic: InitialCondition,
                 horizon: float, dt: float) -> PicardResult:
    """Solve the same grid system by global fixed-point iteration from b = 0.

    It converges because the map contracts in the sup metric weighted by
    exp(-(max(alpha, 0) + 1) t), alpha the kernel's Malthusian parameter.
    Those weights are at most 1, so it stops once the plain sup change
    max_k |delta b_k| is below the tolerance.
    """
    grid = _grid_system(kernel, contact, ic, _time_grid(horizon, dt, ic.kernel.step), dt)
    b = np.zeros(grid.t.size)
    for iterations in range(1, _MAX_PICARD + 1):
        A, S = grid.forward(b)
        b, b_old = grid.c * S * A, b
        if float(np.max(np.abs(b - b_old))) < _PICARD_TOL:
            break
    else:
        raise RuntimeError(f"Picard iteration did not converge in {_MAX_PICARD} steps")

    A, S = grid.forward(b)
    sol = LimitSolution(t=grid.t, b=b, B=grid.s0 - S, S=S, kernel=kernel, contact=contact,
                        ic=ic, renewal_residual=grid.residual(b, A, S))
    return PicardResult(solution=sol, iterations=iterations)


def compartment_curve(sol: LimitSolution, model: CourseModel, compartment: str) -> np.ndarray:
    """Limit fraction in a compartment over the solution grid:
    integral n(t, a) p(a, i) da, split into the transported part (time-grid
    convolution) and the aged initial part I0 E_g[p(Z + t, i)].  The solver
    step must equal the step of the initial age density."""
    def p(ages):
        return model.marginal_p(ages, compartment)

    p_vals = np.asarray(p(sol.t), dtype=float)
    conv = _trapezoid_convolution(p_vals, _spectrum(p_vals), sol.b, sol.dt)
    aged = shifted_age_sums(p, sol.ic.age_density, sol.dt, sol.t.size)
    aged *= sol.ic.age_density.step * sol.ic.i0
    return conv + aged


def final_size_settled_contact(sol: LimitSolution) -> float:
    """Total infected fraction, initial infections included, when the contact
    rate is constant (= c*) after time t_c (t_c = 0 for a constant rate).

    Solves the scalar fixed point B = S0 (1 - exp(-X)) by monotone iteration
    from B = S0.  The limiting exponent X splits into the solved history on
    [0, t_c] plus c* times the remaining force, which depends on the unknown
    total only through R0 (B_inf - B(t_c)); at t_c = 0 it is
    c (R0 B + I0 R0_bar).
    """
    t, kernel, ic, contact = sol.t, sol.kernel, sol.ic, sol.contact
    t_c, c_star = contact.settles_at, contact.terminal_value
    if t_c > float(t[-1]):
        raise ValueError("contact rate settles beyond the solved horizon")
    k_c = int(round(t_c / sol.dt))
    if abs(k_c * sol.dt - t_c) > 1e-9 * max(1.0, t_c):
        raise ValueError("contact settling time must sit on the solver grid")

    # history on [0, t_c] and the force still to be delivered after t_c by
    # infections before t_c: integral_0^{t_c} b(a) (R0 - cumulative_tau(t_c - a)) da,
    # plus the seeded remainder I0 (r0_bar - cumulative_tau_bar(t_c)).
    r0 = kernel.r0
    X_hist = carry = 0.0
    if k_c:
        grid = _grid_system(kernel, contact, ic, t, sol.dt)
        A, _ = grid.forward(sol.b)
        X_hist = float(cumulative_trapezoid(t[: k_c + 1], (grid.c * A)[: k_c + 1])[-1])
        remaining_kernel = r0 - np.asarray(kernel.cumulative(t_c - t[: k_c + 1]), dtype=float)
        carry = float(np.trapezoid(sol.b[: k_c + 1] * remaining_kernel, t[: k_c + 1]))
    seeded_remainder = ic.i0 * float(ic.r0_bar - ic.tau_bar.cumulative(t_c))
    B_tc = float(sol.B[k_c])

    x = sol.s0
    for _ in range(_MAX_FINAL_SIZE):
        exponent = X_hist + c_star * (carry + seeded_remainder + r0 * (x - B_tc))
        x_new = sol.s0 * (1.0 - math.exp(-exponent))
        if abs(x_new - x) < _FINAL_SIZE_TOL:
            return x_new + ic.i0
        x = x_new
    raise RuntimeError(f"final size iteration did not converge in {_MAX_FINAL_SIZE} steps")
