"""The one inversion of tabulated laws: the guide table's index equals
`searchsorted` at every scale, the kernel's inverse keeps its arithmetic,
and draws follow the cell-constant law of the trapezoid CDF out to its tail."""

import math

import numpy as np
import pytest

from epichain import ExponentialKernel, backward_density
from epichain.densities import GUIDE_BUCKETS, GridDensity, GuideTable
from epichain.kernels import TabulatedKernel
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
