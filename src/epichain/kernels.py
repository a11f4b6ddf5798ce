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

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .densities import GridDensity, cumulative_trapezoid

DEFAULT_AGE_STEP = 0.01
GENERATION_TIME_SPAN = 40.0  # grid reach, in units of the mean generation time


# ---------------------------------------------------------------------------
# contact rate
# ---------------------------------------------------------------------------


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
        knots = np.asarray(self.knots, dtype=float)
        levels = np.asarray(self.levels, dtype=float)
        if self.kind not in ("step", "linear"):
            raise ValueError(f"unknown contact rate kind {self.kind!r}")
        if knots.ndim != 1 or knots.shape != levels.shape or knots.size == 0:
            raise ValueError("knots and levels must be matching 1-D arrays")
        if knots[0] != 0.0:
            raise ValueError("first knot must be at t = 0")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if np.any((levels < 0.0) | (levels > 1.0)):
            raise ValueError("contact rate values must lie in [0, 1]")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_knots_list", knots.tolist())
        object.__setattr__(self, "_levels_list", levels.tolist())

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

    def at(self, t: float) -> float:
        """Scalar evaluation (fast path for event loops)."""
        if self.kind == "linear":
            return float(np.interp(t, self.knots, self.levels))
        idx = bisect.bisect_right(self._knots_list, t) - 1
        if idx < 0:
            idx = 0
        return self._levels_list[idx]


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
        if step <= 0:
            raise ValueError("age step must be positive")
        if a_max <= step:
            raise ValueError("a_max must exceed the age step")
        n = int(round(a_max / step))
        self.ages = np.linspace(0.0, n * step, n + 1)
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

    def cumulative(self, a) -> np.ndarray:
        """integral of tau over [0, a], tabulated (flat beyond the grid)."""
        return np.interp(a, self.ages, self._cum, left=0.0, right=float(self._cum[-1]))

    @property
    def cumulative_table(self) -> np.ndarray:
        return self._cum

    def inverse_cumulative(self, c) -> np.ndarray:
        """The age a with cumulative(a) = c, for c in [0, grid_mass): the
        inverse of the piecewise-linear trapezoid table, i.e. the quantile
        map of tau's cell-constant density."""
        cum = self._cum
        j = np.clip(np.searchsorted(cum, c, side="right") - 1, 0, cum.size - 2)
        denom = np.maximum(cum[j + 1] - cum[j], 1e-300)
        return self.ages[j] + (c - cum[j]) / denom * self.step

    @property
    def grid_mass(self) -> float:
        """Grid-quadrature mass (equals r0 up to truncation/quadrature error)."""
        return float(self._cum[-1])

    def generation_density(self) -> GridDensity:
        """Normalized generation-time density nu = tau / R0 on the grid."""
        if self.r0 <= 0:
            raise ValueError("generation density undefined for a zero kernel")
        return GridDensity(self.ages, self.table)

    def mean_generation_time(self) -> float:
        return self.generation_density().mean()


class ExponentialKernel(IntensityKernel):
    """tau(a) = beta * exp(-gamma a): constant-rate contacts over an
    exponentially distributed infectious period."""

    def __init__(self, beta: float, gamma: float, step: float = DEFAULT_AGE_STEP,
                 a_max: float | None = None):
        if beta < 0 or gamma <= 0:
            raise ValueError("require beta >= 0 and gamma > 0")
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.r0 = self.beta / self.gamma
        if a_max is None:
            a_max = GENERATION_TIME_SPAN / gamma
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
        if beta < 0 or activation <= 0 or recovery <= 0:
            raise ValueError("require beta >= 0, activation > 0, recovery > 0")
        if activation == recovery:
            raise ValueError("equal activation and recovery rates are not supported")
        self.beta = float(beta)
        self.activation = float(activation)
        self.recovery = float(recovery)
        self.r0 = self.beta / self.recovery
        if a_max is None:
            a_max = GENERATION_TIME_SPAN * (1.0 / activation + 1.0 / recovery)
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
    grid points, zero beyond the grid unless an exponential tail is declared
    (`tail_rate` r continues the last grid value as table[-1]*exp(-r(a-a_max)))."""

    def __init__(self, ages: np.ndarray, values: np.ndarray, tail_rate: float | None = None):
        ages = np.asarray(ages, dtype=float)
        values = np.asarray(values, dtype=float)
        if ages.ndim != 1 or ages.size < 2 or ages.shape != values.shape:
            raise ValueError("ages and values must be matching 1-D arrays")
        steps = np.diff(ages)
        if ages[0] != 0.0 or np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("ages must form a uniform grid starting at 0")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("intensity values must be finite and nonnegative")
        if tail_rate is not None and tail_rate <= 0:
            raise ValueError("tail_rate must be positive")
        self.tail_rate = tail_rate
        self._ref_ages = ages
        self._ref_values = values
        tail_mass = 0.0 if tail_rate is None else float(values[-1]) / tail_rate
        self.r0 = float(np.trapezoid(values, ages)) + tail_mass
        self._init_grid(float(steps[0]), float(ages[-1]))

    def value(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        out = np.interp(a, self._ref_ages, self._ref_values, left=0.0, right=0.0)
        if self.tail_rate is not None:
            beyond = a > self._ref_ages[-1]
            if np.any(beyond):
                decay = np.exp(-self.tail_rate * np.minimum(a - self._ref_ages[-1], 7e2))
                out = np.where(beyond, self._ref_values[-1] * decay, out)
        return out

    def laplace(self, theta: float) -> float:
        integrand = np.exp(-theta * self._ref_ages) * self._ref_values
        if not np.all(np.isfinite(integrand)):
            return math.inf
        total = float(np.trapezoid(integrand, self._ref_ages))
        if self.tail_rate is not None:
            if theta <= -self.tail_rate:
                return math.inf
            total += float(self._ref_values[-1]) * math.exp(-theta * self._ref_ages[-1]) / (theta + self.tail_rate)
        return total


# ---------------------------------------------------------------------------
# growth rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MalthusianSolve:
    alpha: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


def malthusian_parameter(kernel: IntensityKernel, bracket: tuple[float, float] = (-5.0, 5.0),
                         tol: float = 1e-10, max_iter: int = 200) -> MalthusianSolve:
    """Solve integral(exp(-alpha a) tau(a) da) = 1 for alpha by bisection.

    The Laplace transform is decreasing in alpha, so a sign change of
    laplace - 1 over the bracket pins the root.  Kernels whose transform
    never reaches 1 inside the bracket (e.g. subcritical kernels with no
    declared tail) raise rather than extrapolate.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    f_lo = kernel.laplace(lo) - 1.0
    f_hi = kernel.laplace(hi) - 1.0
    if not (f_lo > 0.0 and f_hi < 0.0):
        raise ValueError(
            f"no Malthusian parameter in bracket {bracket}: "
            f"laplace({lo}) - 1 = {f_lo}, laplace({hi}) - 1 = {f_hi}"
        )
    it = 0
    mid = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        f_mid = kernel.laplace(mid) - 1.0
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol and abs(f_mid) < tol:
            break
    residual = abs(kernel.laplace(mid) - 1.0)
    if residual > max(tol, 1e-9):
        raise ValueError(f"Malthusian bisection stalled: residual {residual:g}")
    return MalthusianSolve(alpha=mid, residual=residual, iterations=it, bracket=(float(bracket[0]), float(bracket[1])))


def backward_density(kernel: IntensityKernel, alpha: float, tol: float = 1e-6) -> GridDensity:
    """Density exp(-alpha a) tau(a) of backward generation intervals.

    `alpha` must be the kernel's growth rate: the defining property makes
    this a probability density, which is checked via the kernel's own
    transform before tabulating.
    """
    defect = abs(kernel.laplace(alpha) - 1.0)
    if not defect <= tol:
        raise ValueError(f"exp(-alpha a) tau(a) is not a probability density: defect {defect:g}")
    return GridDensity(kernel.ages, np.exp(-alpha * kernel.ages) * kernel.table)


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def bar_tau(kernel: IntensityKernel, age_density: GridDensity) -> TabulatedKernel:
    """Shifted intensity tau_bar(u) = integral g(a) tau(a + u) da.

    Tabulated on the kernel's grid by a sliding trapezoid product; the kernel
    is evaluated on the doubled grid so shifts up to a_max see true values
    (closed-form kernels beyond a_max included).
    """
    ages = kernel.ages
    n = ages.size
    da = kernel.step
    g_grid = age_density.grid
    if abs(age_density.step - da) > 1e-12 * max(1.0, da):
        raise ValueError("age density must be tabulated on the kernel grid step")
    m = g_grid.size
    extended_ages = np.linspace(0.0, (n + m - 2) * da, n + m - 1)
    tau_ext = np.asarray(kernel.value(extended_ages), dtype=float)
    g_vals = age_density.values / age_density.total
    # sliding dot: full_j = sum_i g_i tau(a_i + u_j), then trapezoid end corrections
    full = np.correlate(tau_ext, g_vals, mode="valid")  # length n
    full -= 0.5 * g_vals[0] * tau_ext[:n]
    full -= 0.5 * g_vals[-1] * tau_ext[m - 1:]
    values = np.maximum(full * da, 0.0)
    return TabulatedKernel(ages, values)


@dataclass(frozen=True)
class InitialCondition:
    """Initial state: each individual independently infected with probability
    i0, with age-of-infection drawn from `age_density` (g).

    Carries the derived shifted quantities used by every downstream layer:
    tau_bar, its mass r0_bar, the normalized delay density nu_bar, and the
    marginal needed to sample (delay, age) pairs from the joint law
    G(w, z) = g(z) tau(w + z) / r0_bar.
    """

    i0: float
    age_density: GridDensity
    kernel: IntensityKernel
    age_rate: float | None  # set when g is exponential with this rate
    tau_bar: TabulatedKernel = field(init=False)
    r0_bar: float = field(init=False)
    nu_bar: GridDensity = field(init=False)
    z_marginal: GridDensity = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.i0 < 1.0:
            raise ValueError("initial infection probability must lie in (0, 1)")
        tb = bar_tau(self.kernel, self.age_density)
        object.__setattr__(self, "tau_bar", tb)
        object.__setattr__(self, "r0_bar", tb.r0)
        if tb.r0 <= 0:
            raise ValueError("shifted intensity has zero mass; no initial infectivity")
        object.__setattr__(self, "nu_bar", GridDensity(tb.ages, tb.table))
        kern = self.kernel
        g_on_kernel_grid = np.interp(kern.ages, self.age_density.grid,
                                     self.age_density.values / self.age_density.total,
                                     left=0.0, right=0.0)
        remaining = kern.r0 - kern.cumulative(kern.ages)
        object.__setattr__(self, "z_marginal", GridDensity(kern.ages, g_on_kernel_grid * np.maximum(remaining, 0.0)))

    def g_pdf(self, a) -> np.ndarray:
        if self.age_rate is not None:
            a = np.asarray(a, dtype=float)
            return np.where(a >= 0, self.age_rate * np.exp(-self.age_rate * np.minimum(a, 7e2)), 0.0)
        return self.age_density.pdf(a)

    def sample_initial_age(self, rng: np.random.Generator, size: int | None = None):
        return self.age_density.sample(rng, size)


def exponential_age_density(rate: float, step: float, a_max: float) -> GridDensity:
    n = int(round(a_max / step))
    grid = np.linspace(0.0, n * step, n + 1)
    return GridDensity(grid, rate * np.exp(-rate * grid))


def initial_condition(kernel: IntensityKernel, i0: float, *, age_rate: float | None = None,
                      age_density: GridDensity | None = None) -> InitialCondition:
    """Build an InitialCondition from either an exponential age rate or an
    explicit tabulated density (exactly one must be given)."""
    if (age_rate is None) == (age_density is None):
        raise ValueError("give exactly one of age_rate or age_density")
    if age_rate is not None:
        age_density = exponential_age_density(age_rate, kernel.step, kernel.a_max)
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
    cum = kern.cumulative_table
    c_end = cum[-1]
    c_z = np.interp(z, kern.ages, cum)
    target = c_z + np.asarray(u_delay, dtype=float) * (c_end - c_z)
    w = np.maximum(kern.inverse_cumulative(target) - z, 0.0)
    return w, z

