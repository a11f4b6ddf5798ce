"""Estimators the tests check the library against; no part of the package."""

import os
from dataclasses import dataclass

import numpy as np

from epichain import poisson_tree
from epichain.courses import CourseModel
from epichain.densities import GridDensity
from epichain.rng import check_count, child_keys, counter_offsets, keyed_bits, u01_from_bits


def kill_tree_workers(monkeypatch) -> None:
    """Make every forked tree worker exit with code 3 at its first chunk, as
    if killed, while this process expands its own chunks as before."""
    parent, expand = os.getpid(), poisson_tree._expand_chunk

    def expand_or_exit(*args):
        if os.getpid() != parent:
            os._exit(3)
        return expand(*args)

    monkeypatch.setattr(poisson_tree, "_expand_chunk", expand_or_exit)


def keyed_u01_vec(keys: np.ndarray, counters) -> np.ndarray:
    """Uniforms in [0,1) determined by (key, counter), 53-bit resolution: the
    reference a tree draw at that counter must equal."""
    return u01_from_bits(keyed_bits(np.asarray(keys, dtype=np.uint64), counter_offsets(counters)))


def child_key_vec(keys: np.ndarray, slots) -> np.ndarray:
    """Keys of the nodes' slot-th children (slots 0-based)."""
    return child_keys(np.asarray(keys, dtype=np.uint64), counter_offsets(slots))


def direct_shifted_age_sums(f, age_density: GridDensity, step: float, n: int) -> np.ndarray:
    """`kernels.shifted_age_sums` as a direct sliding sum in long double: the
    reference its FFT must come close to.  numpy sums long doubles in its own
    loop, not in BLAS, so the reference too is the same under any thread count."""
    m = age_density.grid.size
    f_ext = np.asarray(f(np.linspace(0.0, (n + m - 2) * step, n + m - 1)), dtype=np.longdouble)
    g_vals = (age_density.values / age_density.total).astype(np.longdouble)
    sums = np.correlate(f_ext, g_vals, mode="valid")
    sums -= 0.5 * g_vals[0] * f_ext[:n]
    sums -= 0.5 * g_vals[-1] * f_ext[m - 1:]
    return sums


@dataclass(frozen=True)
class EmpiricalIntensity:
    """Histogram estimate of a model's mean intensity with per-bin errors."""

    bin_edges: np.ndarray
    values: np.ndarray
    standard_errors: np.ndarray


def empirical_tau(model: CourseModel, n: int, rng: np.random.Generator,
                  grid: np.ndarray | None = None) -> EmpiricalIntensity:
    """Estimate the mean intensity by binning atoms from n sampled courses.

    Per-bin standard errors come from the across-course variance of bin
    counts, so the result is directly comparable to the declared kernel.
    """
    n = check_count("n", n, 2)
    if grid is None:
        grid = np.linspace(0.0, model.kernel.a_max, 65)
    grid = np.asarray(grid, dtype=float)
    n_bins = grid.size - 1
    width = grid[1] - grid[0]
    batch = model.sample_courses(rng, n)
    bins = np.searchsorted(grid, batch.atoms, side="right") - 1
    keep = (bins >= 0) & (bins < n_bins)
    keys, mult = np.unique(batch.owners()[keep] * n_bins + bins[keep], return_counts=True)
    key_bins = keys % n_bins
    counts = np.bincount(key_bins, mult, minlength=n_bins)
    sq = np.bincount(key_bins, mult.astype(float) ** 2, minlength=n_bins)
    mean_counts = counts / n
    var_counts = np.maximum(sq / n - mean_counts**2, 0.0)
    values = mean_counts / width
    se = np.sqrt(var_counts / n) / width
    return EmpiricalIntensity(bin_edges=grid, values=values, standard_errors=se)
