"""Individual disease courses.

A course bundles the two age-indexed ingredients attached to each individual:
the point process of infectious-contact ages (atoms) and the life cycle, the
ages at which it enters each compartment of its model's fixed sequence
`compartments`.  Course models sample i.i.d. courses, declare their mean
intensity kernel, and expose the age-marginal occupation probabilities
p(a, i) when known in closed form.  Courses only ever exist in batches: a
`CourseBatch` stores n courses flat, and one course is one of its rows.
`_rows`, `_ragged` (rows with slots) and `_offsets` (CSR offsets from rows)
are the index maps of every flat layout: atoms, tree levels, graph edges.

`CourseModel.palm_courses` draws exact Palm courses: courses conditioned on
a contact at a given age.  Every built-in model is a Cox process (Poisson
contacts at a rate set by the life cycle), so by the Slivnyak-Mecke theorem
its Palm law at age a is the life cycle reweighted by the rate at a, plus
ordinary contacts, plus the atom at a.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import ExponentialKernel, IntensityKernel, LatentExponentialKernel
from .rng import check_count


@dataclass(frozen=True)
class CourseBatch:
    """n courses stored flat (CSR): course i has the sorted contact ages
    `atoms[offsets[i]:offsets[i + 1]]` and enters `compartments[j]` at age
    `entry_ages[i, j]`.  Every course of a batch runs through the same
    compartment sequence."""

    offsets: np.ndarray     # (n + 1,) int64
    atoms: np.ndarray       # (offsets[-1],)
    entry_ages: np.ndarray  # (n, len(compartments))
    compartments: tuple[str, ...]

    @property
    def n(self) -> int:
        return int(self.entry_ages.shape[0])

    def owners(self) -> np.ndarray:
        """The course index of every atom."""
        return _rows(np.diff(self.offsets))


def _rows(counts: np.ndarray) -> np.ndarray:
    """The row of every item when row i owns counts[i] items: 0,..,0,1,..,1,..."""
    return np.repeat(np.arange(counts.size), counts)


def _ragged(counts: np.ndarray):
    """(row, slot) of every item when row i owns counts[i] items: rows as in
    `_rows` and slots 0..c0-1, 0..c1-1, ..."""
    rows = _rows(counts)
    slots = np.arange(rows.size)
    slots -= (np.cumsum(counts) - counts).take(rows)
    return rows, slots


def _offsets(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of n rows, given the row of every item."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return offsets


def _sorted_uniforms(rng: np.random.Generator, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """counts[i] sorted uniforms on [0, 1] for each i, flat, with their owner i.

    No sort: the first k partial sums of k + 1 i.i.d. exponential spacings,
    divided by the last one, are the order statistics of k uniforms.  Atom m
    of the flat output owned by i uses spacing m + i (each earlier owner has
    one spacing more than atoms).  The partial sums run over the whole batch,
    so a uniform carries a rounding error of about 1e-16 times the sum of
    the spacings before its owner's (1e-11 at n = 5e4).
    """
    ends = np.cumsum(counts + 1)
    partial = np.cumsum(rng.standard_exponential(int(counts.sum()) + counts.size))
    before = np.concatenate(([0.0], partial[ends[:-1] - 1]))
    total = partial[ends - 1] - before
    owner = _rows(counts)
    spacing = np.arange(owner.size) + owner
    return owner, (partial[spacing] - before[owner]) / total[owner]


def _infectious_atoms(rng: np.random.Generator, start: np.ndarray, duration: np.ndarray,
                      beta: float, a_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Contacts at rate beta over [start, start + duration] of each course,
    up to the kernel grid's a_max: CSR offsets and sorted atoms."""
    owner, u = _sorted_uniforms(rng, rng.poisson(beta * duration))
    atoms = start[owner] + u * duration[owner]
    keep = atoms <= a_max
    return _offsets(owner[keep], start.size), atoms[keep]


class CourseModel:
    """Base class for course samplers."""

    compartments: tuple[str, ...]
    kernel: IntensityKernel

    def sample_courses(self, rng: np.random.Generator, n: int) -> CourseBatch:
        """n independent courses."""
        return self._sample(rng, check_count("n", n, 0))

    def _sample(self, rng: np.random.Generator, n: int) -> CourseBatch:
        """`sample_courses` for a checked count."""
        raise NotImplementedError

    def palm_courses(self, rng: np.random.Generator, ages) -> CourseBatch:
        """One course per age, conditioned (in the Palm sense) on a contact at
        that age: the atom sits exactly at the age, among the reduced-Palm
        contacts of `_palm_cycle`."""
        ages = np.atleast_1d(np.asarray(ages, dtype=float))
        ok = np.isfinite(ages) & (ages >= 0.0) & (ages <= self.kernel.a_max)
        ok[ok] = np.asarray(self.kernel.value(ages[ok])) > 0.0
        if not ok.all():
            raise ValueError(f"Palm course undefined at age {ages[~ok][0]}: an age must be "
                             f"finite, in [0, {self.kernel.a_max}] and of positive intensity")
        batch = self._palm_cycle(rng, ages)
        owner = batch.owners()
        below = np.bincount(owner[batch.atoms < ages[owner]], minlength=ages.size)
        atoms = np.insert(batch.atoms, batch.offsets[:-1] + below, ages)
        return replace(batch, offsets=batch.offsets + np.arange(ages.size + 1), atoms=atoms)

    def _palm_cycle(self, rng: np.random.Generator, ages: np.ndarray) -> CourseBatch:
        """Courses whose life cycle is reweighted by the contact rate at each
        age, with their ordinary contacts."""
        raise NotImplementedError

    def marginal_p(self, a, compartment: str) -> np.ndarray:
        """p(a, i) = P(course occupies compartment i at age a)."""
        raise NotImplementedError


class MarkovSIR(CourseModel):
    """Exponential infectious period (rate gamma), contacts at rate beta
    while infectious, then permanent recovery."""

    def __init__(self, beta: float, gamma: float, step: float = 0.01,
                 a_max: float | None = None):
        self.kernel = ExponentialKernel(beta, gamma, step=step, a_max=a_max)
        self.beta, self.gamma = self.kernel.beta, self.kernel.gamma
        self.compartments = ("I", "R")

    def _sample(self, rng: np.random.Generator, n: int) -> CourseBatch:
        return self._courses(rng, rng.exponential(1.0 / self.gamma, n))

    def _palm_cycle(self, rng: np.random.Generator, ages: np.ndarray) -> CourseBatch:
        # infectious at a: D > a, and D - a ~ Exp(gamma) by memorylessness
        return self._courses(rng, ages + rng.exponential(1.0 / self.gamma, ages.size))

    def _courses(self, rng: np.random.Generator, duration: np.ndarray) -> CourseBatch:
        n = duration.size
        offsets, atoms = _infectious_atoms(rng, np.zeros(n), duration, self.beta,
                                           self.kernel.a_max)
        entry = np.column_stack((np.zeros(n), duration))
        return CourseBatch(offsets, atoms, entry, self.compartments)

    def marginal_p(self, a, compartment: str) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        p_i = np.exp(-self.gamma * np.minimum(a, 7e2))
        if compartment == "I":
            return p_i
        if compartment == "R":
            return 1.0 - p_i
        raise ValueError(f"unknown compartment {compartment!r}")


class MarkovSEIR(CourseModel):
    """Exponential latency (rate activation) into an exponential infectious
    period (rate recovery); contacts at rate beta while infectious."""

    def __init__(self, beta: float, activation: float, recovery: float,
                 step: float = 0.01, a_max: float | None = None):
        self.kernel = LatentExponentialKernel(beta, activation, recovery, step=step, a_max=a_max)
        self.beta, self.activation, self.recovery = (
            self.kernel.beta, self.kernel.activation, self.kernel.recovery)
        self.compartments = ("E", "I", "R")

    def _sample(self, rng: np.random.Generator, n: int) -> CourseBatch:
        return self._courses(rng, rng.exponential(1.0 / self.activation, n), 0.0)

    def _palm_cycle(self, rng: np.random.Generator, ages: np.ndarray) -> CourseBatch:
        # infectious at a: L <= a < L + D.  Then L has density on [0, a]
        # proportional to exp(-d l), d = activation - recovery: a truncated
        # Exp(|d|), mirrored when d < 0; D - (a - L) ~ Exp(recovery).
        d = self.activation - self.recovery
        x = -np.log1p(rng.random(ages.size) * np.expm1(-abs(d) * ages)) / abs(d)
        latency = x if d > 0 else ages - x
        return self._courses(rng, latency, ages - latency)

    def _courses(self, rng: np.random.Generator, latency: np.ndarray,
                 lived: np.ndarray | float) -> CourseBatch:
        """Courses of the given latencies whose infectious period is `lived`
        plus an Exp(recovery) draw."""
        n = latency.size
        duration = lived + rng.exponential(1.0 / self.recovery, n)
        offsets, atoms = _infectious_atoms(rng, latency, duration, self.beta,
                                           self.kernel.a_max)
        entry = np.column_stack((np.zeros(n), latency, latency + duration))
        return CourseBatch(offsets, atoms, entry, self.compartments)

    def marginal_p(self, a, compartment: str) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        lam, gam = self.activation, self.recovery
        safe = np.minimum(a, 7e2)
        p_e = np.exp(-lam * safe)
        p_i = lam / (lam - gam) * (np.exp(-gam * safe) - np.exp(-lam * safe))
        if compartment == "E":
            return p_e
        if compartment == "I":
            return p_i
        if compartment == "R":
            return 1.0 - p_e - p_i
        raise ValueError(f"unknown compartment {compartment!r}")


class PoissonCourse(CourseModel):
    """Contacts form a Poisson process with the given mean intensity; the
    life cycle stays in a single compartment (the atoms alone drive
    transmission).  Conditional on the atom count, ages are i.i.d. from the
    normalized intensity, which is exactly the Poisson-process law.

    Its contact ages are not driven by a Markov life cycle, which is the
    paper's general setting: a course is any point process of contact ages
    with mean intensity tau.  No acceptance criterion runs a non-Markov
    course; the unit tests check on this model that sampled courses carry
    the declared intensity and that Palm courses hold the conditioning atom
    beyond the Markov families."""

    def __init__(self, kernel: IntensityKernel, compartment: str = "I"):
        self.kernel = kernel
        self.compartments = (compartment,)
        self._grid_mass = kernel.grid_mass
        self._nu = kernel.generation_density() if self._grid_mass > 0 else None

    def _sample(self, rng: np.random.Generator, n: int) -> CourseBatch:
        if self._nu is None:
            offsets, atoms = np.zeros(n + 1, dtype=np.int64), np.empty(0)
        else:
            # the tabulated quantile function is nondecreasing: sorted uniforms, sorted ages
            owner, u = _sorted_uniforms(rng, rng.poisson(self._grid_mass, n))
            offsets, atoms = _offsets(owner, n), self._nu.ppf_from_uniform(u)
        return CourseBatch(offsets, atoms, np.zeros((n, 1)), self.compartments)

    def _palm_cycle(self, rng: np.random.Generator, ages: np.ndarray) -> CourseBatch:
        # a Poisson process is its own reduced Palm process
        return self._sample(rng, ages.size)

    def marginal_p(self, a, compartment: str) -> np.ndarray:
        if compartment not in self.compartments:
            raise ValueError(f"unknown compartment {compartment!r}")
        return np.ones_like(np.asarray(a, dtype=float))
