"""Tabulated densities on uniform grids.

All continuous sampling in the package flows through precomputed inverse-CDF
tables: O(1) per draw, linear between 4096 equally spaced quantiles of the
trapezoid CDF.  The top bucket is linear from q(1 - 1/4096) out to the first
grid point where the CDF rounds to 1, so it puts mass far out in the tail
that the grid CDF does not have.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

QUANTILE_TABLE_SIZE = 4096


def cumulative_trapezoid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0."""
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x), out=out[1:])
    return out


@dataclass(frozen=True)
class GridDensity:
    """A probability density tabulated on a uniform grid [0, a_max].

    `values` need not be normalized; `total` records the raw grid integral and
    the sampling tables are built from the normalized version.  Mass beyond
    the grid is discarded (callers choose a_max so that it is negligible).
    """

    grid: np.ndarray
    values: np.ndarray
    total: float = field(init=False)
    _quantiles: np.ndarray = field(init=False, repr=False)
    _quantile_steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-D with at least two points")
        if grid.shape != values.shape:
            raise ValueError("grid and values must have matching shapes")
        steps = np.diff(grid)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("grid must be uniform")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        raw_cdf = cumulative_trapezoid(grid, values)
        total = float(raw_cdf[-1])
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError("density must have positive finite mass on the grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "total", total)
        cdf = raw_cdf / total
        cdf[-1] = 1.0
        # quantile table: keep only strictly increasing CDF knots so that
        # flat (zero-density) stretches do not confuse the interpolation
        keep = np.concatenate(([True], np.diff(cdf) > 0.0))
        u_nodes = np.linspace(0.0, 1.0, QUANTILE_TABLE_SIZE + 1)
        quant = np.interp(u_nodes, cdf[keep], grid[keep])
        object.__setattr__(self, "_quantiles", quant)
        object.__setattr__(self, "_quantile_steps", np.diff(quant))

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def pdf(self, x) -> np.ndarray:
        """Normalized density, linear interpolation, 0 outside the grid."""
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0) / self.total

    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.values, self.grid) / self.total)

    def ppf_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0,1) through the tabulated inverse CDF."""
        q = np.asarray(u, dtype=float) * QUANTILE_TABLE_SIZE
        idx = np.minimum(q.astype(np.int64), QUANTILE_TABLE_SIZE - 1)
        q -= idx
        q *= self._quantile_steps[idx]
        q += self._quantiles[idx]
        return q

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        return self.ppf_from_uniform(rng.random(size))
