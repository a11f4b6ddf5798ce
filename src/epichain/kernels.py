"""Infection intensity kernels and epidemic ingredients derived from them.

The central object is the mean infection intensity tau(a): the expected rate
of infectious contacts an individual makes at age-of-infection a.  From it we
derive the reproduction number R0 = integral of tau, the normalized
generation-time density nu = tau/R0, the exponential growth rate alpha
(root of the Laplace transform equation), and the ingredients describing
individuals already infected at time zero: given an initial age density g,
the shifted intensity tau_bar(u) = E_g[tau(Z + u)], its mass r0_bar, and the
joint law G(w, z) dw dz = g(z) tau(w + z) / r0_bar of (contact delay, initial
age) pairs.

Closed-form kernel families (exponential, latent-exponential) carry analytic
Laplace transforms and masses; every kernel also materializes a table on a
uniform age grid, which is what the quadrature-based solvers consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .densities import GridDensity, GuideTable, UniformInterp, cumulative_trapezoid, uniform_grid
from .densities import _convolve, _spectrum
from .rng import SHOWN, as_real, check_real

DEFAULT_AGE_STEP = 0.01
GENERATION_TIME_SPAN = 40.0  # grid reach, in units of the mean generation time
_MALTHUS_BRACKET = (-5.0, 5.0)  # growth rates searched by the Malthusian bisection
_MALTHUS_TOL = 1e-10
_MALTHUS_MAX_ITER = 200
_BACKWARD_DENSITY_TOL = 1e-6  # largest |L(alpha) - 1| a backward density may keep


# ---------------------------------------------------------------------------
# contact rate
# ---------------------------------------------------------------------------


def _real_entries(name: str, values) -> np.ndarray:
    """Contact rate `name` as a float array; a ValueError naming the first
    entry that is not a real number (a bool is not one), or the whole value
    when it is not a sequence."""
    if isinstance(values, (str, dict)) or not np.iterable(values):
        raise ValueError(f"contact rate {name} must be a sequence of real numbers, "
                         f"got {SHOWN.repr(values)}")
    return np.array([as_real(f"contact rate {name}[{i}]", v) for i, v in enumerate(values)],
                    dtype=float)


@dataclass(frozen=True)
class ContactRate:
    """Time-varying contact rate c(t) with values in [0, 1].

    Piecewise-constant (right-continuous) or piecewise-linear between knots;
    constant at the last value beyond the final knot.
    """

    knots: np.ndarray
    levels: np.ndarray
    kind: str = "step"  # "step" | "linear"

    def __post_init__(self) -> None:
        knots, levels = _real_entries("knots", self.knots), _real_entries("levels", self.levels)
        if self.kind not in ("step", "linear"):
            raise ValueError(f"unknown contact rate kind {SHOWN.repr(self.kind)}")
        if knots.shape != levels.shape or knots.size == 0:
            raise ValueError(f"contact rate knots and levels must be nonempty and of one length, "
                             f"got {knots.size} and {levels.size}")
        for name, must, broken in (  # in this order, so the last three see finite values
                ("knots", "be finite", lambda: not np.all(np.isfinite(knots))),
                ("levels", "be finite", lambda: not np.all(np.isfinite(levels))),
                ("knots", "start at t = 0", lambda: knots[0] != 0.0),
                ("knots", "be strictly increasing", lambda: np.any(np.diff(knots) <= 0)),
                ("levels", "lie in [0, 1]", lambda: np.any((levels < 0.0) | (levels > 1.0)))):
            if broken():
                shown = SHOWN.repr((knots if name == "knots" else levels).tolist())
                raise ValueError(f"contact rate {name} must {must}, got {shown}")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "levels", levels)

    @staticmethod
    def constant(value: float) -> "ContactRate":
        return ContactRate(np.array([0.0]), np.array([float(value)]))

    @property
    def terminal_value(self) -> float:
        return float(self.levels[-1])

    @property
    def settles_at(self) -> float:
        """Time after which c is constant."""
        return float(self.knots[-1])

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return np.interp(t, self.knots, self.levels)
        idx = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, None)
        return self.levels[idx]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class IntensityKernel:
    """Base class: a nonnegative intensity on [0, infinity) with finite mass.

    Subclasses fill in `ages`/`table` (the uniform-grid tabulation), `r0`,
    and may override `value` and `laplace` with closed forms.
    """

    ages: np.ndarray
    table: np.ndarray
    r0: float

    def _init_grid(self, step: float, a_max: float) -> None:
        step = check_real("step", step, positive=True)
        a_max = check_real("a_max", a_max, positive=True)
        if a_max <= step:
            raise ValueError("a_max must exceed the age step")
        self.ages = uniform_grid(a_max, step)
        self.table = np.asarray(self.value(self.ages), dtype=float)
        if np.any(self.table < 0) or not np.all(np.isfinite(self.table)):
            raise ValueError("intensity values must be finite and nonnegative")
        self._cum = cumulative_trapezoid(self.ages, self.table)

    @property
    def step(self) -> float:
        return float(self.ages[1] - self.ages[0])

    @property
    def a_max(self) -> float:
        return float(self.ages[-1])

    def value(self, a) -> np.ndarray:
        """tau(a); zero for a < 0 and, for tabulated kernels, beyond the grid."""
        raise NotImplementedError

    def laplace(self, theta: float) -> float:
        """integral of exp(-theta a) tau(a) da; may be +inf when divergent."""
        raise NotImplementedError

    @cached_property
    def cumulative(self) -> UniformInterp:  # built at the first lookup
        """integral of tau over [0, a], tabulated (0 below the grid, flat beyond)."""
        return UniformInterp(self.ages, self._cum)

    @cached_property
    def _cum_table(self) -> GuideTable:  # built at the first inversion
        return GuideTable(self._cum, self.ages)

    def inverse_cumulative(self, c) -> np.ndarray:
        """The age a with cumulative(a) = c, for c in [0, grid_mass): the
        inverse of the piecewise-linear trapezoid table, i.e. the quantile
        map of tau's cell-constant density."""
        return self._cum_table.inverse(c)

    @property
    def grid_mass(self) -> float:
        """Grid-quadrature mass (equals r0 up to truncation/quadrature error)."""
        return float(self._cum[-1])

    def generation_density(self) -> GridDensity:
        """Normalized generation-time density nu = tau / R0 on the grid."""
        if self.r0 <= 0:
            raise ValueError("generation density undefined for a zero kernel")
        return GridDensity(self.ages, self.table)


class ExponentialKernel(IntensityKernel):
    """tau(a) = beta * exp(-gamma a): constant-rate contacts over an
    exponentially distributed infectious period."""

    def __init__(self, beta: float, gamma: float, step: float = DEFAULT_AGE_STEP,
                 a_max: float | None = None):
        self.beta = check_real("beta", beta, positive=False)
        self.gamma = check_real("gamma", gamma, positive=True)
        self.r0 = self.beta / self.gamma
        if a_max is None:
            a_max = GENERATION_TIME_SPAN / self.gamma
        self._init_grid(step, a_max)

    def value(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        return np.where(a >= 0, self.beta * np.exp(-self.gamma * np.minimum(a, 7e2)), 0.0)

    def laplace(self, theta: float) -> float:
        if theta <= -self.gamma:
            return math.inf
        return self.beta / (theta + self.gamma)


class LatentExponentialKernel(IntensityKernel):
    """tau(a) = beta * P(infectious at age a) for an exponential latency
    (rate `activation`) followed by an exponential infectious period
    (rate `recovery`); contacts occur at rate beta while infectious."""

    def __init__(self, beta: float, activation: float, recovery: float,
                 step: float = DEFAULT_AGE_STEP, a_max: float | None = None):
        self.beta = check_real("beta", beta, positive=False)
        self.activation = check_real("activation", activation, positive=True)
        self.recovery = check_real("recovery", recovery, positive=True)
        if self.activation == self.recovery:
            raise ValueError("equal activation and recovery rates are not supported")
        self.r0 = self.beta / self.recovery
        if a_max is None:
            a_max = GENERATION_TIME_SPAN * (1.0 / self.activation + 1.0 / self.recovery)
        self._init_grid(step, a_max)

    def value(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        lam, gam = self.activation, self.recovery
        safe = np.minimum(a, 7e2)
        p_inf = lam / (lam - gam) * (np.exp(-gam * safe) - np.exp(-lam * safe))
        return np.where(a >= 0, self.beta * p_inf, 0.0)

    def laplace(self, theta: float) -> float:
        lam, gam = self.activation, self.recovery
        if theta <= -min(lam, gam):
            return math.inf
        return self.beta * lam / ((theta + gam) * (theta + lam))


class TabulatedKernel(IntensityKernel):
    """Kernel given by values on a uniform grid; linear interpolation between
    grid points, zero beyond the grid."""

    def __init__(self, ages: np.ndarray, values: np.ndarray):
        ages = np.asarray(ages, dtype=float)
        values = np.asarray(values, dtype=float)
        if ages.ndim != 1 or ages.size < 2 or ages.shape != values.shape:
            raise ValueError("ages and values must be matching 1-D arrays")
        steps = np.diff(ages)
        if ages[0] != 0.0 or np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("ages must form a uniform grid starting at 0")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("intensity values must be finite and nonnegative")
        self._ref_ages = ages
        self._ref_values = values
        self.r0 = float(np.trapezoid(values, ages))
        self._init_grid(float(steps[0]), float(ages[-1]))

    def value(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        return np.interp(a, self._ref_ages, self._ref_values, left=0.0, right=0.0)


# ---------------------------------------------------------------------------
# growth rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MalthusianSolve:
    alpha: float
    residual: float
    iterations: int


def malthusian_parameter(kernel: IntensityKernel) -> MalthusianSolve:
    """Solve integral(exp(-alpha a) tau(a) da) = 1 for alpha by bisection.

    The Laplace transform is decreasing in alpha, so a sign change of
    laplace - 1 over the bracket [-5, 5] pins the root.  Kernels whose
    transform never reaches 1 inside the bracket raise rather than
    extrapolate.
    """
    lo, hi = _MALTHUS_BRACKET
    f_lo = kernel.laplace(lo) - 1.0
    f_hi = kernel.laplace(hi) - 1.0
    if not (f_lo > 0.0 and f_hi < 0.0):
        raise ValueError(
            f"no Malthusian parameter in bracket {_MALTHUS_BRACKET}: "
            f"laplace({lo}) - 1 = {f_lo}, laplace({hi}) - 1 = {f_hi}"
        )
    it = 0
    mid = 0.5 * (lo + hi)
    for it in range(1, _MALTHUS_MAX_ITER + 1):
        mid = 0.5 * (lo + hi)
        f_mid = kernel.laplace(mid) - 1.0
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < _MALTHUS_TOL and abs(f_mid) < _MALTHUS_TOL:
            break
    residual = abs(kernel.laplace(mid) - 1.0)
    if residual > max(_MALTHUS_TOL, 1e-9):
        raise ValueError(f"Malthusian bisection stalled: residual {residual:g}")
    return MalthusianSolve(alpha=mid, residual=residual, iterations=it)


def backward_density(kernel: IntensityKernel, alpha: float) -> GridDensity:
    """Density exp(-alpha a) tau(a) of backward generation intervals.

    `alpha` must be the kernel's growth rate: the defining property makes
    this a probability density, which is checked via the kernel's own
    transform before tabulating.
    """
    defect = abs(kernel.laplace(alpha) - 1.0)
    if not defect <= _BACKWARD_DENSITY_TOL:
        raise ValueError(f"exp(-alpha a) tau(a) is not a probability density: defect {defect:g}")
    return GridDensity(kernel.ages, np.exp(-alpha * kernel.ages) * kernel.table)


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def shifted_age_sums(f, age_density: GridDensity, step: float, n: int) -> np.ndarray:
    """Trapezoid sums sum''_i g_i f(a_i + j * step), j < n, over the
    normalized initial age density g: times the step, E_g[f(Z + j * step)].
    The sliding sums are the n "valid" terms of the linear convolution of f,
    on g's grid continued by n points, with g reversed, so g must be
    tabulated on `step`.  The FFT errs by about eps times the largest sum."""
    if abs(age_density.step - step) > 1e-12 * max(1.0, step):
        raise ValueError(f"age density must be tabulated on the grid step {step:g}, "
                         f"not {age_density.step:g}")
    m = age_density.grid.size
    f_ext = np.asarray(f(np.linspace(0.0, (n + m - 2) * step, n + m - 1)), dtype=float)
    g_vals = age_density.values / age_density.total
    length = n + 2 * m - 2
    sums = _convolve(_spectrum(g_vals[::-1], length), f_ext, length)[m - 1:]  # n terms
    sums -= 0.5 * g_vals[0] * f_ext[:n]
    sums -= 0.5 * g_vals[-1] * f_ext[m - 1:]
    return sums


def bar_tau(kernel: IntensityKernel, age_density: GridDensity) -> TabulatedKernel:
    """Shifted intensity tau_bar(u) = integral g(a) tau(a + u) da.

    Tabulated on the kernel's grid; the kernel is evaluated on the extended
    grid so shifts up to a_max see true values (closed-form kernels beyond
    a_max included).
    """
    sums = shifted_age_sums(kernel.value, age_density, kernel.step, kernel.ages.size)
    return TabulatedKernel(kernel.ages, np.maximum(sums * kernel.step, 0.0))


@dataclass(frozen=True)
class InitialCondition:
    """Initial state: each individual independently infected with probability
    i0, with age-of-infection drawn from `age_density` (g).

    Holds its four inputs and `z_marginal`, G's age marginal, whose mass is
    r0_bar (zero mass is an error); tau_bar, an FFT, is built at its first read.
    """

    i0: float
    age_density: GridDensity
    kernel: IntensityKernel
    age_rate: float | None  # set when g is exponential with this rate

    def __post_init__(self) -> None:
        name, must = "initial infection probability i0", "lie in (0, 1)"
        i0 = as_real(name, self.i0, must)
        if not 0.0 < i0 < 1.0:
            raise ValueError(f"{name} must {must}, got {SHOWN.repr(self.i0)}")
        object.__setattr__(self, "i0", i0)
        kern, g = self.kernel, self.age_density
        weights = (np.interp(kern.ages, g.grid, g.values / g.total, left=0.0, right=0.0)
                   * np.maximum(kern.r0 - kern.cumulative(kern.ages), 0.0))
        if not weights.any():
            raise ValueError("shifted intensity has zero mass; no initial infectivity")
        object.__setattr__(self, "z_marginal", GridDensity(kern.ages, weights))

    @cached_property
    def tau_bar(self) -> TabulatedKernel:  # built at the first read
        return bar_tau(self.kernel, self.age_density)

    @property
    def r0_bar(self) -> float:
        return self.tau_bar.r0

    def check_kernel(self, kernel: IntensityKernel) -> None:
        """A ValueError unless `kernel` is this condition's own, not another model's."""
        if kernel is not self.kernel:
            raise ValueError(f"kernel with R0 = {kernel.r0:g} is not the initial condition's "
                             f"kernel, with R0 = {self.kernel.r0:g}; pass ic.kernel")

    def g_pdf(self, a) -> np.ndarray:
        if self.age_rate is not None:
            a = np.asarray(a, dtype=float)
            return np.where(a >= 0, self.age_rate * np.exp(-self.age_rate * np.minimum(a, 7e2)), 0.0)
        return self.age_density.pdf(a)


def initial_condition(kernel: IntensityKernel, i0: float, *, age_rate: float | None = None,
                      age_density: GridDensity | None = None) -> InitialCondition:
    """Build an InitialCondition from either an exponential age rate or an
    explicit tabulated density (exactly one must be given)."""
    if (age_rate is None) == (age_density is None):
        raise ValueError("give exactly one of age_rate or age_density")
    if age_rate is not None:
        age_rate = check_real("age_rate", age_rate, positive=True)
        ages = uniform_grid(kernel.a_max, kernel.step)
        age_density = GridDensity(ages, age_rate * np.exp(-age_rate * ages))
    return InitialCondition(i0=i0, age_density=age_density, kernel=kernel, age_rate=age_rate)


def joint_delay_age_from_uniforms(ic: InitialCondition, u_age, u_delay):
    """Map uniform pairs to (delay w, initial age z) with joint density
    g(z) tau(w + z) / r0_bar.

    z comes from its marginal (inverse-CDF table); w given z inverts the
    kernel's cumulative over [z, a_max].  Vectorized; the tree sampler feeds
    it keyed uniforms.
    """
    kern = ic.kernel
    z = ic.z_marginal.ppf_from_uniform(np.asarray(u_age, dtype=float))
    c_z = kern.cumulative(z)
    target = c_z + np.asarray(u_delay, dtype=float) * (kern.grid_mass - c_z)
    w = np.maximum(kern.inverse_cumulative(target) - z, 0.0)
    return w, z

