"""Statistical comparisons between the model's layers.

Histograms, the L1 distance between two of them over shared bins, and a
uniform report type carrying value / threshold / Monte Carlo error.  The
acceptance criteria build their checks from these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Histogram:
    """Density histogram: values are per-unit mass, so sum(density * width)
    is the total probability captured by the binning."""

    edges: np.ndarray
    density: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        density = np.asarray(self.density, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing with at least two entries")
        if density.shape != (edges.size - 1,):
            raise ValueError("density must have one entry per bin")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "density", density)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)


def histogram_from_samples(samples: np.ndarray, edges: np.ndarray,
                           weights: np.ndarray | None = None) -> Histogram:
    """Normalized histogram of the samples (weighted if given); mass outside
    the edges is dropped, normalization is by total weight including it, so
    two histograms remain comparable when tails escape the range."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    counts, edges = np.histogram(samples, bins=edges, weights=weights)
    total = float(samples.size) if weights is None else float(np.sum(weights))
    if total <= 0:
        raise ValueError("total weight must be positive")
    return Histogram(edges=edges, density=counts / total / np.diff(edges))


def histogram_from_density(pdf, edges: np.ndarray) -> Histogram:
    """Bin-averaged exact density (Simpson on each cell)."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    mass = (np.asarray(pdf(lo)) + 4.0 * np.asarray(pdf(mid)) + np.asarray(pdf(hi))) / 6.0
    return Histogram(edges=edges, density=mass)


def l1_histogram_distance(h1: Histogram, h2: Histogram) -> float:
    """Integral of |h1 - h2| over the shared binning; 2 for disjoint unit
    masses, 0 for identical histograms."""
    if h1.edges.shape != h2.edges.shape or not np.allclose(h1.edges, h2.edges, rtol=0.0, atol=1e-12):
        raise ValueError("histograms are binned on different grids")
    return float(np.sum(np.abs(h1.density - h2.density) * h1.widths))


@dataclass(frozen=True)
class ComparisonReport:
    """One checked statistic: passes iff value <= threshold.  `work` names the
    numbers behind it as Python ints and floats, so `asdict` gives JSON."""

    name: str
    value: float
    threshold: float
    se: float = 0.0
    n_samples: int = 0
    work: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.se < 0:
            raise ValueError("standard error must be nonnegative")
        object.__setattr__(self, "work", {k: np.asarray(v).item() for k, v in self.work.items()})
        object.__setattr__(self, "passed", bool(self.value <= self.threshold))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        se_part = f" se={self.se:.3g}" if self.se else ""
        work = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.work.items())  # a counter in full
        return (f"[{status}] {self.name}: value={self.value:.6g} "
                f"threshold={self.threshold:.6g}{se_part}" + (f" ({work})" if work else ""))
