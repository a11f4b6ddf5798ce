"""Simulation of the individual-based epidemic.

Everything random is drawn up front, in array order: who is initially
infected, their initial ages Z, a course for every individual, and a uniform
target and a uniform mark for every contact atom of every course.  These
draws decorate the infection graph (`InfectionGraph`), on which the infection
times are deterministic: `first_passage` solves them in a few vectorised
rounds.  Initially infected individuals enter with infection time -Z, so
only their contacts at ages beyond Z take effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .courses import CourseBatch, CourseModel
from .infection_graph import InfectionGraph, first_passage
from .kernels import ContactRate, InitialCondition
from .rng import as_real, check_count, make_rng


@dataclass(frozen=True)
class SimulationOutput:
    n: int
    horizon: float
    z: np.ndarray                 # initial age, 0 unless initially infected
    sigma: np.ndarray             # infection time; +inf if never infected
    infector: np.ndarray          # -1 for initial infections and the never infected
    initial: np.ndarray           # bool mask of initially infected
    courses: CourseBatch          # every individual's course, infected or not
    accepted: int                 # contacts of the infected in [0, horizon] passing c(t)
    rounds: int                   # frontier rounds of the infection-time solve
    graph: InfectionGraph | None = None

    @property
    def infected_ids(self) -> np.ndarray:
        return np.flatnonzero(np.isfinite(self.sigma))

    @property
    def contacts(self) -> int:
        """Contacts drawn: one target and one mark per atom of `courses`."""
        return int(self.courses.atoms.size)

    @property
    def infections(self) -> int:
        """Individuals infected during the run (initial infections excluded)."""
        return int(np.count_nonzero(self.infector >= 0))

    def infected_fraction(self, times) -> np.ndarray:
        sig = np.sort(self.sigma[np.isfinite(self.sigma)])
        return np.searchsorted(sig, np.asarray(times, dtype=float), side="right") / self.n

    def susceptible_fraction(self, times) -> np.ndarray:
        return 1.0 - self.infected_fraction(times)


def simulate(model: CourseModel, n_individuals: int, contact: ContactRate,
             ic: InitialCondition, horizon: float, seed: int | None = None,
             record_graph: bool = False) -> SimulationOutput:
    """Run the epidemic among `n_individuals` up to `horizon`.

    Draws, in this order: the initially infected, their ages, one course per
    individual (`model.sample_courses`), then a target and a mark per atom.
    The run always builds the decorated `InfectionGraph`; `record_graph`
    only decides whether it is returned as `out.graph` (the small-instance
    oracle cross-checks read it).
    """
    n = check_count("n_individuals", n_individuals, 1)
    horizon = as_real("horizon", horizon, "be a nonnegative number")
    if not horizon >= 0.0:
        raise ValueError(f"horizon must be a nonnegative number, got {horizon!r}")
    rng = make_rng(0 if seed is None else seed, "forward-sim")

    initial = rng.random(n) < ic.i0
    init_ids = np.flatnonzero(initial)
    z = np.zeros(n)
    z[init_ids] = ic.age_density.ppf_from_uniform(rng.random(init_ids.size))
    courses = model.sample_courses(rng, n)
    targets = rng.integers(0, n, courses.atoms.size)
    marks = rng.random(courses.atoms.size)
    graph = InfectionGraph(n=n, initial=initial, z=z, courses=courses, targets=targets,
                           marks=marks, horizon=horizon)
    solved = first_passage(graph, contact)
    return SimulationOutput(n=n, horizon=horizon, z=z, sigma=solved.sigma,
                            infector=solved.infector, initial=initial, courses=courses,
                            accepted=solved.accepted, rounds=solved.rounds,
                            graph=graph if record_graph else None)


# ---------------------------------------------------------------------------
# measures and summaries
# ---------------------------------------------------------------------------


def compartment_fraction(out: SimulationOutput, compartment: str, times) -> np.ndarray:
    """Fraction of the population occupying `compartment` at the given times."""
    names = out.courses.compartments
    if compartment in names:
        j = names.index(compartment)
        ids = out.infected_ids
        s, entry = out.sigma[ids], out.courses.entry_ages[ids]
        starts = np.sort(s + entry[:, j])
        ends = np.sort(s + entry[:, j + 1]) if j + 1 < len(names) else np.full(ids.size, math.inf)
    else:
        starts = ends = np.empty(0)
    times = np.asarray(times, dtype=float)
    active = np.searchsorted(starts, times, side="right") - np.searchsorted(ends, times, side="right")
    return active / out.n


@dataclass(frozen=True)
class HistoricalSummary:
    """Per-individual chain statistics for everyone infected by time t."""

    time: float
    ids: np.ndarray
    sigma: np.ndarray
    chain_length: np.ndarray
    first_increment: np.ndarray  # sigma_x - sigma_infector; nan for initial infections
    root_age: np.ndarray         # initial age of the chain's seed


def historical_measure(out: SimulationOutput, t: float) -> HistoricalSummary:
    """Chain-level summaries of the transmission history up to time t."""
    # pointer doubling over infector: up[x] is x's 2^k-th ancestor (stopping at
    # the chain's root) and hops[x] the number of infections between them
    has_parent = out.infector >= 0
    up = np.where(has_parent, out.infector, np.arange(out.n))
    hops = has_parent.astype(np.int64)
    while True:
        up2 = up[up]
        if np.array_equal(up2, up):
            break
        hops = hops + hops[up]
        up = up2
    sel = np.flatnonzero(np.isfinite(out.sigma) & (out.sigma <= t))
    parents = out.infector[sel]
    inc = np.where(parents >= 0, out.sigma[sel] - out.sigma[np.maximum(parents, 0)], np.nan)
    return HistoricalSummary(
        time=t,
        ids=sel,
        sigma=out.sigma[sel],
        chain_length=hops[sel] + 1,
        first_increment=inc,
        root_age=out.z[up[sel]],
    )
