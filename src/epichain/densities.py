"""Tabulated densities on uniform grids (every grid is a `uniform_grid`),
the two exact lookups in such tables, and the one FFT convolution.

`GuideTable` is the one inversion behind every tabulated draw (the dual
tree's Poisson counts, `IntensityKernel.inverse_cumulative`,
`GridDensity.ppf_from_uniform`): draws follow the cell law of the trapezoid
CDF out to its last cell of mass.

`UniformInterp` is `np.interp` on a uniform grid, bit for bit, with the cell
index found by arithmetic instead of a binary search: the limit solution's
`b_at` and `S_at` and `IntensityKernel.cumulative` read their tables through
it.  A floor index off by one next to a knot is corrected by one step
against the knots, and the value comes from `np.interp`'s own slope formula
and end cases.

`_convolve` is every convolution of grid tables, tau_bar's included; its FFT
rounds alike under any number of BLAS threads, unlike a long BLAS dot."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

GUIDE_BUCKETS = 1 << 16
MAX_GRID_POINTS = 10_000_000  # far above every grid in use (the largest has 25,001 points)
_INTERP_BLOCK = 1 << 14  # points a `UniformInterp` block holds: its temporaries stay in cache


def uniform_grid(extent: float, step: float) -> np.ndarray:
    """0, step, ..., n * step, n = round(extent / step), at most
    `MAX_GRID_POINTS` points; callers check that both are positive."""
    if not extent / step < MAX_GRID_POINTS - 0.5:  # n + 1 <= MAX_GRID_POINTS; inf fails too
        raise ValueError(f"a grid of extent {extent:g} at step {step:g} would hold more "
                         f"than {MAX_GRID_POINTS:,} points")
    n = int(round(extent / step))
    return np.linspace(0.0, n * step, n + 1)


def _spectrum(f: np.ndarray, length: int | None = None) -> np.ndarray:
    """Real FFT of the table f at the size `fftconvolve` picks for a linear
    convolution of `length` terms (by default that of f with an f-sized b)."""
    from scipy import fft  # imported here so that `import epichain` does not load scipy

    return fft.rfft(f, fft.next_fast_len(length or 2 * f.size - 1, True))


def _convolve(spectrum: np.ndarray, b: np.ndarray, length: int | None = None) -> np.ndarray:
    """First b.size terms of the linear convolution f * b of `length` terms,
    given f's `_spectrum` for them: `fftconvolve(f, b)[:b.size]`, bit for
    bit, at the default length (f of b's size)."""
    from scipy import fft

    size = fft.next_fast_len(length or 2 * b.size - 1, True)
    # the ufunc, not `*`: numpy may write a large product of `*` into the
    # temporary rfft(b), and that product rounds differently from fftconvolve's
    return fft.irfft(np.multiply(spectrum, fft.rfft(b, size)), size)[:b.size]


class GuideTable:
    """A nondecreasing table `cum` with an O(1) index lookup (a guide table,
    Chen and Asau, 1974) and, on the uniform grid `grid`, its inverse.

    c and the knots fall into bucket trunc(c * G / cum[-1]) clipped to
    [0, G - 1], a map monotone in c (for |c| * G / cum[-1] < 2^63), so a bucket
    without knots stores the one index of all its c; a bucket with a knot
    stores -1 and sends its c to `searchsorted`.  The index is thus exact at
    every scale of `cum`.
    """

    def __init__(self, cum: np.ndarray, grid: np.ndarray | None = None):
        self.cum = cum
        self._scale = GUIDE_BUCKETS / cum[-1] if cum[-1] > 0 else 0.0
        knots = np.clip((cum * self._scale).astype(np.intp), 0, GUIDE_BUCKETS - 1)
        counts = np.bincount(knots, minlength=GUIDE_BUCKETS)
        self._guide = np.where(counts > 0, -1, np.cumsum(counts) - counts).astype(np.int32)
        if grid is not None:
            # cell j = k - 1 of each index k, clipped to the table
            j = np.clip(np.arange(cum.size + 1) - 1, 0, cum.size - 2)
            self._lo, self._x0, self.step = cum[j], grid[j], float(grid[1] - grid[0])
            self._width = np.maximum(cum[j + 1] - cum[j], 1e-300)

    def _lookup(self, c: np.ndarray):
        """The index of each c of a flat array, and a spare float buffer."""
        b = c * self._scale
        k = b.astype(np.intp)
        k[:] = self._guide.take(k, mode="clip")  # clipped as the knots' buckets
        fix = (k < 0).nonzero()[0]
        if fix.size:
            k[fix] = np.searchsorted(self.cum, c[fix], side="right")
        return k, b

    def index(self, c: np.ndarray) -> np.ndarray:
        """`np.searchsorted(cum, c, side="right")` for a 1-D array c."""
        return self._lookup(c)[0]

    def inverse(self, c) -> np.ndarray:
        """The x with cum(x) = c on the linear interpolant of the table: in
        the cell j that holds c, grid[j] + (c - cum[j]) / width[j] * step."""
        c = np.asarray(c, dtype=float)
        flat = c.reshape(-1)
        k, buf = self._lookup(flat)
        x = np.subtract(flat, self._lo.take(k, out=buf, mode="clip"))
        x /= self._width.take(k, out=buf, mode="clip")
        x *= self.step
        x += self._x0.take(k, out=buf, mode="clip")
        return x.reshape(c.shape)


class UniformInterp:
    """`np.interp(x, xp, fp)` for knots xp on a uniform grid and a finite
    table fp, bit for bit, in O(1) per point.

    x is clipped to [xp[0], xp[-1]], which gives `np.interp`'s end values
    fp[0] and fp[-1] (a NaN stays NaN).  Its cell j is the floor of
    (x - xp[0]) / step, moved by one step where a knot says otherwise
    (every knot lies within half a step of its place on the ideal grid, so
    the floor is off by at most one).  Then, as in `np.interp`, the value is
    fp[j] on a knot and slope[j] * (x - xp[j]) + fp[j] in between, with
    slope[j] = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]).  Every gather clips
    its index to the table, so x = xp[-1] may reach j = n, which reads the
    last knot and so lands on it.
    """

    def __init__(self, xp: np.ndarray, fp: np.ndarray):
        xp, fp = np.asarray(xp, dtype=float), np.asarray(fp, dtype=float)
        if xp.ndim != 1 or xp.size < 2 or xp.shape != fp.shape:
            raise ValueError("knots and table must be 1-D of one size, at least two")
        if not (np.all(np.isfinite(xp)) and np.all(np.isfinite(fp))):
            raise ValueError("knots and table must be finite")
        self._lo, self._hi = float(xp[0]), float(xp[-1])
        self._last = float(xp.size - 1)
        step = (self._hi - self._lo) / self._last
        if not step > 0 or np.any(np.abs(xp - (self._lo + np.arange(xp.size) * step))
                                  >= 0.5 * step):
            raise ValueError("knots must lie within half a step of a uniform grid, increasing")
        self._inv_step = 1.0 / step
        self._xp, self._fp = xp, fp
        self._slope = (fp[1:] - fp[:-1]) / (xp[1:] - xp[:-1])

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        y = np.empty(flat.size)
        for lo in range(0, flat.size, _INTERP_BLOCK):
            self._block(flat[lo:lo + _INTERP_BLOCK], y[lo:lo + _INTERP_BLOCK])
        return y.reshape(x.shape)

    def _block(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.maximum(x, self._lo)
        np.minimum(x, self._hi, out=x)
        buf = x - self._lo
        buf *= self._inv_step
        np.fmin(buf, self._last, out=buf)  # NaN -> the last cell, where it stays NaN
        j = buf.astype(np.intp)
        # "clip" also gathers straight into `buf`
        j -= self._xp.take(j, out=buf, mode="clip") > x
        j += self._xp.take(j + 1, out=buf, mode="clip") <= x
        d = np.subtract(x, self._xp.take(j, out=buf, mode="clip"), out=buf)
        on_knot = d == 0.0
        self._slope.take(j, out=y, mode="clip")
        y *= d
        fj = self._fp.take(j, out=buf, mode="clip")
        y += fj
        np.copyto(y, fj, where=on_knot)  # on a knot, fp[j] itself (a -0.0 stays -0.0)


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
    draws invert the normalized trapezoid CDF.  Mass beyond the grid is
    discarded (callers choose a_max so that it is negligible).
    """

    grid: np.ndarray
    values: np.ndarray
    total: float = field(init=False)

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
        total = float(cumulative_trapezoid(grid, values)[-1])
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError("density must have positive finite mass on the grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "total", total)

    @cached_property
    def _cdf(self) -> GuideTable:  # built at the first draw
        cdf = cumulative_trapezoid(self.grid, self.values) / self.total
        cdf[-1] = 1.0
        return GuideTable(cdf, self.grid)

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def pdf(self, x) -> np.ndarray:
        """Normalized density, linear interpolation, 0 outside the grid."""
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0) / self.total

    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.values, self.grid) / self.total)

    def ppf_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0,1) through the inverse of the trapezoid CDF."""
        return self._cdf.inverse(u)
