"""The exact lookups in tabulated laws: the guide table's index equals
`searchsorted` at every scale, the kernel's inverse keeps its arithmetic,
draws follow the cell-constant law of the trapezoid CDF out to its tail, and
the uniform-grid lookup is `np.interp` bit for bit."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from epichain import ExponentialKernel, backward_density, solve_delay
from epichain.densities import (
    GUIDE_BUCKETS, MAX_GRID_POINTS, GridDensity, GuideTable, UniformInterp, uniform_grid,
)
from epichain.kernels import LatentExponentialKernel, TabulatedKernel, initial_condition
from epichain.limit_solver import _time_grid
from epichain.poisson_tree import poisson_counts


def _zero_stretch_kernel():
    # zero on [2, 3] and from 6 on: flat stretches of equal knots
    ages = np.linspace(0.0, 8.0, 1601)
    values = np.where((ages > 2.0) & (ages < 3.0), 0.0, np.exp(-ages))
    values[ages >= 6.0] = 0.0
    return TabulatedKernel(ages, values)


TABLES = {
    "poisson-1.485": lambda kernel: poisson_counts(1.485),
    "poisson-0.015": lambda kernel: poisson_counts(0.015),
    "poisson-123.4": lambda kernel: poisson_counts(123.4),
    "generation-cdf": lambda kernel: kernel.generation_density()._cdf,
    "kernel-0.005": lambda kernel: kernel._cum_table,
    "kernel-0.002": lambda kernel: ExponentialKernel(1.5, 1.0, step=0.002, a_max=40.0)._cum_table,
    "zero-stretches": lambda kernel: _zero_stretch_kernel()._cum_table,
}


def _probes(table: GuideTable) -> np.ndarray:
    cum = table.cum
    top = cum[-1]
    edges = np.arange(GUIDE_BUCKETS + 1) / (GUIDE_BUCKETS / top)
    return np.concatenate((
        cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf), edges,
        [0.0, np.nextafter(top, 0.0)],
        np.random.default_rng(881).random(1_000_000) * top))


def _parent_inverse(kern, c):
    """The kernel's inverse as it was written before the guide table."""
    cum = kern._cum
    j = np.clip(np.searchsorted(cum, c, side="right") - 1, 0, cum.size - 2)
    denom = np.maximum(cum[j + 1] - cum[j], 1e-300)
    return kern.ages[j] + (c - cum[j]) / denom * kern.step


class TestGuideTable:
    @pytest.mark.parametrize("name", list(TABLES))
    def test_index_equals_searchsorted(self, kernel, name):
        table = TABLES[name](kernel)
        c = _probes(table)
        assert np.array_equal(table.index(c), np.searchsorted(table.cum, c, side="right"))

    def test_inverse_keeps_the_shape(self, kernel):
        c = np.linspace(0.0, kernel.grid_mass, 12).reshape(3, 4)
        assert np.array_equal(kernel.inverse_cumulative(c), _parent_inverse(kernel, c))
        assert kernel.inverse_cumulative(0.25) == _parent_inverse(kernel, 0.25)

    @pytest.mark.parametrize("which", ["0.005", "0.002", "zero-stretches"])
    def test_kernel_inverse_keeps_its_arithmetic(self, kernel, which):
        kern = {"0.005": kernel,
                "0.002": ExponentialKernel(1.5, 1.0, step=0.002, a_max=40.0),
                "zero-stretches": _zero_stretch_kernel()}[which]
        c = np.concatenate((kern._cum, np.random.default_rng(883).random(1_000_000)
                            * kern.grid_mass))
        assert kern.inverse_cumulative(c).tobytes() == _parent_inverse(kern, c).tobytes()

    def test_density_inverse_is_the_trapezoid_inverse(self, kernel):
        dens = kernel.generation_density()
        u = np.random.default_rng(885).random(100_000)
        cdf = dens._cdf.cum
        j = np.searchsorted(cdf, u, side="right") - 1
        want = dens.grid[j] + (u - cdf[j]) / (cdf[j + 1] - cdf[j]) * dens.step
        assert np.array_equal(dens.ppf_from_uniform(u), want)

    def test_zero_stretches_get_no_draws(self):
        # the cells inside [2, 3] and past 6 have zero mass; the cells at
        # their ends do not
        dens = _zero_stretch_kernel().generation_density()
        x = dens.ppf_from_uniform(np.random.default_rng(887).random(200_000))
        assert not np.any((x > 2.0 + dens.step) & (x < 3.0 - dens.step))
        assert np.any((x > 2.0) & (x < 2.0 + dens.step))
        assert x.max() <= 6.0


def _cell_law(dens: GridDensity):
    """Mass, midpoint and width of each cell of the cell-constant density
    whose CDF is the normalized trapezoid table."""
    mass = np.diff(dens._cdf.cum)
    mid = 0.5 * (dens.grid[1:] + dens.grid[:-1])
    return mass, mid, dens.step


class TestCellLaw:
    """4e6 draws on the reference kernel follow the cell law, tail included."""

    N = 4_000_000

    def _draws(self, dens: GridDensity, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.concatenate([dens.ppf_from_uniform(rng.random(self.N // 4))
                               for _ in range(4)])

    @pytest.mark.parametrize("which", ["generation", "backward"])
    def test_mean_within_three_se(self, kernel, alpha, which):
        dens = (kernel.generation_density() if which == "generation"
                else backward_density(kernel, alpha))
        mass, mid, step = _cell_law(dens)
        mean = float(np.sum(mass * mid))
        var = float(np.sum(mass * (mid ** 2 + step ** 2 / 12.0))) - mean ** 2
        want = 1.0 if which == "generation" else 2.0 / 3.0
        assert mean == pytest.approx(want, abs=1e-4)
        x = self._draws(dens, 889)
        assert abs(x.mean() - mean) < 3.0 * math.sqrt(var / x.size)

    def test_tail_share_and_reach(self, kernel):
        dens = kernel.generation_density()
        q = float(np.interp(1.0 - 1e-4, dens._cdf.cum, dens.grid))
        x = self._draws(dens, 891)
        share = float(np.mean(x > q))
        assert abs(share - 1e-4) < 3.0 * math.sqrt(1e-4 * (1.0 - 1e-4) / x.size)
        # the cell law puts 6.8e-9 of its mass past 18.8; the 4096-quantile
        # table it replaced put 1.27e-4 of its draws there
        assert x.max() < 18.8


def _interp_probes(xp: np.ndarray) -> np.ndarray:
    """Points between knots, on knots and next to them, below and above the
    grid, at the last knot, infinities and NaN."""
    lo, hi = xp[0], xp[-1]
    width = hi - lo
    return np.concatenate((
        np.random.default_rng(893).uniform(lo - 0.05 * width, hi + 0.05 * width, 1_000_000),
        xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
        0.5 * (xp[1:] + xp[:-1]),
        [lo - 1.0, np.nextafter(lo, -np.inf), -0.0, hi, np.nextafter(hi, np.inf), hi + 1.0,
         1e300, -1e300, np.inf, -np.inf, np.nan]))


class TestUniformInterp:
    """The lookup behind `LimitSolution.b_at` and `S_at` and
    `IntensityKernel.cumulative` is `np.interp`, bit for bit, NaN included,
    and raises no warning (a RuntimeWarning fails the test)."""

    @pytest.mark.parametrize("build", [
        lambda ic: ic.kernel, lambda ic: ic.tau_bar, lambda ic: _zero_stretch_kernel(),
        lambda ic: ExponentialKernel(1.5, 1.0, step=0.002, a_max=40.0),
        lambda ic: LatentExponentialKernel(2.0, 1.0, 1.5, step=0.01, a_max=50.0),
    ], ids=["reference", "tau_bar", "zero-stretches", "step-0.002", "latent"])
    def test_kernel_cumulative_is_np_interp_with_its_ends(self, ic, build):
        # np.interp's ends: 0 = _cum[0] below the grid and _cum[-1] beyond a_max
        kernel = build(ic)
        x = _interp_probes(kernel.ages)
        want = np.interp(x, kernel.ages, kernel._cum, left=0.0, right=float(kernel._cum[-1]))
        assert kernel.cumulative(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("field", ["b", "S", "B"])
    def test_equals_np_interp_on_the_solution(self, sol, field):
        table = getattr(sol, field)
        x = _interp_probes(sol.t)
        assert UniformInterp(sol.t, table)(x).tobytes() == np.interp(x, sol.t, table).tobytes()

    @pytest.mark.parametrize("lo, hi, n", [(0.0, 25.0, 12_501), (-3.0, 7.0, 11), (0.0, 1e-3, 2),
                                           (1e6, 1e6 + 10.0, 100_001)])
    def test_equals_np_interp_on_other_grids(self, lo, hi, n):
        xp = np.linspace(lo, hi, n)
        # signed zeros, a flat stretch and a jump
        fp = np.sin(np.arange(n) * 0.7)
        fp[: n // 3] = -0.0
        fp[n // 2:] += 5.0
        x = _interp_probes(xp)
        assert UniformInterp(xp, fp)(x).tobytes() == np.interp(x, xp, fp).tobytes()

    def test_knots_off_the_grid_by_less_than_half_a_step(self):
        # the floor index is then off by at most one, which one step mends
        n = 1_001
        xp = np.linspace(0.0, 10.0, n)
        xp[1:-1] += np.random.default_rng(897).uniform(-0.45, 0.45, n - 2) * 0.01
        fp = np.cos(xp)
        x = _interp_probes(xp)
        assert UniformInterp(xp, fp)(x).tobytes() == np.interp(x, xp, fp).tobytes()

    def test_keeps_the_shape(self, sol):
        x = np.linspace(-1.0, 26.0, 12).reshape(3, 4)
        table = UniformInterp(sol.t, sol.b)
        assert np.array_equal(table(x), np.interp(x, sol.t, sol.b))
        assert table(2.5).shape == () and table(2.5) == np.interp(2.5, sol.t, sol.b)

    @pytest.mark.parametrize("xp, fp", [
        ([0.0, 0.5, 3.0], [1.0, 2.0, 3.0]),
        ([0.0, 1.0, 2.0], [1.0, np.inf, 3.0]),
        ([2.0, 1.0, 0.0], [1.0, 2.0, 3.0]),
        ([0.0], [1.0]),
    ], ids=["not-uniform", "not-finite", "decreasing", "one-knot"])
    def test_rejects_tables_it_cannot_match(self, xp, fp):
        with pytest.raises(ValueError):
            UniformInterp(np.array(xp), np.array(fp))

    def test_b_at_and_S_at_are_their_parent_formulas(self, sol):
        # b_at evaluates each branch on its own x: np.interp where x >= 0,
        # I0 g(-x) below 0 and at NaN
        x = np.concatenate((_interp_probes(sol.t), -np.linspace(0.0, 40.0, 8001),
                            np.random.default_rng(895).uniform(-20.0, 0.0, 100_000)))
        b_want = np.where(x >= 0, np.interp(x, sol.t, sol.b),
                          sol.ic.i0 * sol.ic.g_pdf(np.maximum(-x, 0.0)))
        S_want = np.where(x >= 0, np.interp(x, sol.t, sol.S), 1.0 - sol.ic.i0)
        assert sol.b_at(x).tobytes() == b_want.tobytes()
        assert sol.S_at(x).tobytes() == S_want.tobytes()
        assert sol.b_at(-0.5) == b_want[x == -0.5][0] and sol.b_at(-0.5).shape == ()
        neg = x[x < 0]
        assert sol.b_at(neg).tobytes() == (sol.ic.i0 * sol.ic.g_pdf(-neg)).tobytes()


@pytest.mark.parametrize("extent, step", [(40.0, 0.01), (25.0, 0.005), (25.0, 0.002),
                                          (80.0, 0.005), (3.0, 1e-3), (7.5, 0.3)])
def test_every_grid_follows_the_grid_rule(extent, step):
    # kernel ages, exponential age densities and solver times all follow it
    def formula(extent, step):
        n = int(round(extent / step))
        return np.linspace(0.0, n * step, n + 1).tobytes()

    assert uniform_grid(extent, step).tobytes() == formula(extent, step)
    assert _time_grid(extent, step, step).tobytes() == formula(extent, step)
    kernel = ExponentialKernel(1.5, 1.0, step=step, a_max=extent)
    assert kernel.ages.tobytes() == formula(extent, step)
    ages = initial_condition(kernel, 0.01, age_rate=0.5).age_density.grid
    assert ages.tobytes() == formula(kernel.a_max, kernel.step)


# 1e300 / 1e-300 overflows to inf; 1e9 points would ask for 8 GB at once
@pytest.mark.parametrize("extent, step", [(1e300, 1e-300), (1e3, 1e-6)])
def test_every_grid_user_rejects_a_grid_too_large(extent, step, unit_contact, ic):
    message = re.escape(f"a grid of extent {extent:g} at step {step:g} would hold more than "
                        f"{MAX_GRID_POINTS:,} points")
    with pytest.raises(ValueError, match=message):
        uniform_grid(extent, step)
    with pytest.raises(ValueError, match=message):
        ExponentialKernel(1.5, 1.0, step=step, a_max=extent)
    with pytest.raises(ValueError, match=message):  # exponential initial ages
        initial_condition(SimpleNamespace(a_max=extent, step=step), 0.01, age_rate=0.5)
    with pytest.raises(ValueError, match=message):
        _time_grid(extent, step, step)
    with pytest.raises(ValueError, match=message):
        solve_delay(ic.kernel, unit_contact, ic, extent, step)


def test_the_largest_grid_is_allowed():
    assert uniform_grid(MAX_GRID_POINTS - 1.0, 1.0).size == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="would hold more than"):
        uniform_grid(float(MAX_GRID_POINTS), 1.0)
