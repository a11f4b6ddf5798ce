"""Event-driven simulation of the individual-based epidemic.

Each infected individual carries a sampled disease course; every contact age
in the course schedules a contact event at (infection time + age).  Events
pop in time order (ties broken by source id, then atom index); each contact
picks a uniform target, which gets infected if still susceptible and a
uniform mark falls below the contact rate c(t).  Initially infected
individuals enter with a negative infection time -Z, Z drawn from the
initial age density, and only the contact ages beyond Z take effect.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .courses import CourseModel, DiseaseCourse
from .infection_graph import InfectionGraph
from .kernels import ContactRate, InitialCondition
from .rng import make_rng


@dataclass
class SimulationOutput:
    n: int
    horizon: float
    z: np.ndarray                 # initial age, 0 unless initially infected
    sigma: np.ndarray             # infection time; +inf if never infected
    infector: np.ndarray          # -1 for initial infections and the never infected
    initial: np.ndarray           # bool mask of initially infected
    courses: dict[int, DiseaseCourse]
    graph: InfectionGraph | None = None
    _starts: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _ends: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def infected_ids(self) -> np.ndarray:
        return np.flatnonzero(np.isfinite(self.sigma))

    def infected_fraction(self, times) -> np.ndarray:
        sig = np.sort(self.sigma[np.isfinite(self.sigma)])
        return np.searchsorted(sig, np.asarray(times, dtype=float), side="right") / self.n

    def susceptible_fraction(self, times) -> np.ndarray:
        return 1.0 - self.infected_fraction(times)

    def _compartment_spans(self, compartment: str):
        if compartment not in self._starts:
            starts, ends = [], []
            for x, course in self.courses.items():
                s = self.sigma[x]
                ages = course.entry_ages
                for j, name in enumerate(course.compartments):
                    if name != compartment:
                        continue
                    starts.append(s + ages[j])
                    ends.append(s + ages[j + 1] if j + 1 < ages.size else math.inf)
            self._starts[compartment] = np.sort(np.asarray(starts, dtype=float))
            self._ends[compartment] = np.sort(np.asarray(ends, dtype=float))
        return self._starts[compartment], self._ends[compartment]


def simulate(model: CourseModel, n_individuals: int, contact: ContactRate,
             ic: InitialCondition, horizon: float, seed: int | None = None,
             rng: np.random.Generator | None = None,
             record_graph: bool = False) -> SimulationOutput:
    """Run the epidemic among `n_individuals` up to `horizon`.

    Draws happen lazily in event order: a course when an individual is
    infected, a target for every popped contact, and a mark only when that
    target is still susceptible.  With `record_graph=True` the run also
    records what it drew as an `InfectionGraph` (used by the small-instance
    geodesic cross-checks); recording draws nothing, so `sigma`, `infector`,
    `z` and the courses are bitwise those of the same run without it.
    """
    if n_individuals <= 0:
        raise ValueError("need a positive population size")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if rng is None:
        rng = make_rng(0 if seed is None else seed, "forward-sim")

    n = int(n_individuals)
    init_mask = rng.random(n) < ic.i0
    init_ids = np.flatnonzero(init_mask)
    z = np.zeros(n)
    z[init_ids] = ic.sample_initial_age(rng, init_ids.size)
    sigma = np.full(n, math.inf)
    sigma[init_ids] = -z[init_ids]
    infector = np.full(n, -1, dtype=np.int64)
    courses: dict[int, DiseaseCourse] = {}
    # decorations never drawn stay a self-target with mark inf (see InfectionGraph)
    targets: dict[int, np.ndarray] = {}
    marks: dict[int, np.ndarray] = {}

    heap: list[tuple[float, int, int]] = []

    def infect(x: int) -> None:
        course = model.sample_course(rng)
        courses[x] = course
        if record_graph:
            targets[x] = np.full(course.atoms.size, x, dtype=np.int64)
            marks[x] = np.full(course.atoms.size, math.inf)
        base = sigma[x]
        for idx in range(course.atoms.size):
            tc = base + course.atoms[idx]
            if 0.0 <= tc <= horizon:
                heapq.heappush(heap, (tc, x, idx))

    for x in init_ids:
        infect(int(x))

    c_at = contact.at
    while heap:
        t, x, k = heapq.heappop(heap)
        u = int(rng.integers(0, n))
        if record_graph:
            targets[x][k] = u
        if not sigma[u] <= t:  # still susceptible (self-contacts fail here too)
            s = float(rng.random())
            if record_graph:
                marks[x][k] = s
            if s <= c_at(t):
                sigma[u] = t
                infector[u] = x
                infect(u)

    graph = None
    if record_graph:
        graph = InfectionGraph(
            n=n, initial=init_mask, z=z, courses=courses,
            targets=targets, marks=marks, horizon=horizon,
        )
    return SimulationOutput(n=n, horizon=horizon, z=z, sigma=sigma, infector=infector,
                            initial=init_mask, courses=courses, graph=graph)


# ---------------------------------------------------------------------------
# measures and summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgeCompartmentMeasure:
    """Empirical joint (age, compartment) measure at a fixed time, per capita."""

    time: float
    bin_edges: np.ndarray
    compartments: tuple[str, ...]
    fractions: np.ndarray  # shape (bins, compartments); mass, not density


def age_compartment_measure(out: SimulationOutput, t: float,
                            age_bins: np.ndarray, model: CourseModel) -> AgeCompartmentMeasure:
    """Bin infected individuals by age-of-infection and compartment at time t."""
    if t < 0 or t > out.horizon:
        raise ValueError("time outside the simulated range")
    edges = np.asarray(age_bins, dtype=float)
    comps = model.compartment_set.names
    comp_idx = {name: j for j, name in enumerate(comps)}
    counts = np.zeros((edges.size - 1, len(comps)))
    for x, course in out.courses.items():
        s = out.sigma[x]
        if s > t:
            continue
        age = t - s
        b = int(np.searchsorted(edges, age, side="right")) - 1
        if 0 <= b < edges.size - 1:
            counts[b, comp_idx[course.compartment_at(age)]] += 1.0
    return AgeCompartmentMeasure(time=t, bin_edges=edges, compartments=comps,
                                 fractions=counts / out.n)


def compartment_fraction(out: SimulationOutput, compartment: str, times) -> np.ndarray:
    """Fraction of the population occupying `compartment` at the given times."""
    starts, ends = out._compartment_spans(compartment)
    times = np.asarray(times, dtype=float)
    active = np.searchsorted(starts, times, side="right") - np.searchsorted(ends, times, side="right")
    return active / out.n


@dataclass(frozen=True)
class AncestralPath:
    """Transmission chain traced backwards from one individual.

    `times` decrease strictly from the individual's own infection time to the
    (negative) infection time of the chain's initially infected root.
    """

    individuals: np.ndarray
    times: np.ndarray
    courses: tuple[DiseaseCourse, ...]
    root_age: float

    @property
    def length(self) -> int:
        return int(self.individuals.size)


def ancestral_path(out: SimulationOutput, x: int) -> AncestralPath:
    if not np.isfinite(out.sigma[x]):
        raise ValueError(f"individual {x} was never infected; no ancestral path")
    ids = [int(x)]
    while out.infector[ids[-1]] >= 0:
        ids.append(int(out.infector[ids[-1]]))
    times = out.sigma[ids]
    return AncestralPath(
        individuals=np.asarray(ids, dtype=np.int64),
        times=times,
        courses=tuple(out.courses[i] for i in ids),
        root_age=float(out.z[ids[-1]]),
    )


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
    order = np.argsort(out.sigma, kind="stable")
    lengths = np.zeros(out.n, dtype=np.int64)
    roots = np.full(out.n, -1, dtype=np.int64)
    for x in order:
        if not np.isfinite(out.sigma[x]):
            break
        p = out.infector[x]
        if p < 0:
            lengths[x] = 1
            roots[x] = x
        else:
            lengths[x] = lengths[p] + 1
            roots[x] = roots[p]
    sel = np.flatnonzero(np.isfinite(out.sigma) & (out.sigma <= t))
    parents = out.infector[sel]
    inc = np.where(parents >= 0, out.sigma[sel] - out.sigma[np.maximum(parents, 0)], np.nan)
    return HistoricalSummary(
        time=t,
        ids=sel,
        sigma=out.sigma[sel],
        chain_length=lengths[sel],
        first_increment=inc,
        root_age=out.z[roots[sel]],
    )
