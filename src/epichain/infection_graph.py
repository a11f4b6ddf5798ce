"""The decorated infection graph, its first-passage infection times, and a
brute-force oracle for them.

A run decorates every individual with a course and every contact atom of a
course with a uniform target and a uniform mark.  Given that decoration the
epidemic is deterministic: contact k of individual x happens at
t = sigma[x] + a_k and is accepted when t lies in [0, horizon] and its mark
is at most c(t), and

    sigma[u] = min over accepted contacts (x, k) aimed at u of sigma[x] + a_k

for every u not initially infected (initially infected individuals keep
sigma = -z).  `first_passage` solves this fixed point on the whole graph at
once; `brute_force_infection_times` evaluates the same minimum by
enumerating contact chains one at a time, so it can cross-check the solver
on small populations.  Both make the same floating-point additions, so they
agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .courses import CourseBatch, _offsets, _rows
from .kernels import ContactRate

_MAX_CHAINS = 500_000  # chains the oracle enumerates before giving up on a population


@dataclass(frozen=True)
class InfectionGraph:
    """Every individual's course, and a target and a mark for every atom.

    Atom e of the flat `courses` is a contact of individual
    `courses.owners()[e]`, aimed at `targets[e]` with mark `marks[e]`.  Edge
    lengths are the raw course ages; an initially infected individual starts
    at time -z, so its pre-time-0 contacts are removed by the arrival >= 0
    rule rather than by shifting lengths.
    """

    n: int
    initial: np.ndarray
    z: np.ndarray
    courses: CourseBatch
    targets: np.ndarray
    marks: np.ndarray
    horizon: float

    def out_edges(self, x: int) -> list[tuple[float, int, float]]:
        """(length, target, mark) triples for the atoms of x."""
        lo, hi = self.courses.offsets[x], self.courses.offsets[x + 1]
        return list(zip(self.courses.atoms[lo:hi].tolist(), self.targets[lo:hi].tolist(),
                        self.marks[lo:hi].tolist()))


@dataclass(frozen=True)
class FirstPassage:
    """Infection times of an `InfectionGraph` and what the solve did."""

    sigma: np.ndarray     # +inf if never infected
    infector: np.ndarray  # -1 for initial infections and the never infected
    accepted: int         # contacts of infected individuals in [0, horizon] passing c(t)
    rounds: int           # frontier rounds until no time changed


def _ranges(offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The concatenated index ranges offsets[i]:offsets[i + 1] for i in ids."""
    starts = offsets[ids]
    lengths = offsets[ids + 1] - starts
    ends = np.cumsum(lengths)
    return (starts - ends + lengths).take(_rows(lengths)) + np.arange(lengths.sum())


def first_passage(graph: InfectionGraph, contact: ContactRate) -> FirstPassage:
    """Solve the infection-time fixed point by Jacobi frontier rounds.

    Each round recomputes every target of the individuals whose time changed
    in the last round, from all of that target's in-edges.  Acceptance
    depends on absolute time, so a time that falls can turn an accepted
    contact into a rejected one downstream: a target is recomputed, never
    only lowered.  With positive ages the fixed point is unique, and after r
    rounds every time below (earliest seed time) + r * (smallest age) is
    final, so the rounds end at it.  The infector of u is the source of the
    accepted contact that sets sigma[u]; ties break by (time, source id,
    atom index), the order in which contacts happen.
    """
    courses, targets, marks = graph.courses, graph.targets, graph.marks
    horizon = graph.horizon
    source = courses.owners()
    atoms = courses.atoms

    def accepted(t: np.ndarray, e: np.ndarray) -> np.ndarray:
        return (t >= 0.0) & (t <= horizon) & (marks[e] <= contact(t))

    # only contacts between two individuals, the target not initially infected, can infect
    live = np.flatnonzero((targets != source) & ~graph.initial[targets])
    in_edges = live[np.argsort(targets[live])]
    in_offsets = _offsets(targets[live], graph.n)
    can_infect = np.zeros(atoms.size, dtype=bool)
    can_infect[live] = True

    sigma = np.full(graph.n, math.inf)
    frontier = np.flatnonzero(graph.initial)
    sigma[frontier] = -graph.z[frontier]
    is_touched = np.zeros(graph.n, dtype=bool)
    rounds = 0
    while frontier.size:
        rounds += 1
        out = _ranges(courses.offsets, frontier)
        is_touched[targets[out[can_infect[out]]]] = True
        touched = np.flatnonzero(is_touched)
        is_touched[touched] = False
        degree = in_offsets[touched + 1] - in_offsets[touched]
        e = in_edges[_ranges(in_offsets, touched)]
        t = sigma[source[e]] + atoms[e]
        best = np.minimum.reduceat(np.where(accepted(t, e), t, math.inf),
                                   np.cumsum(degree) - degree)
        changed = best != sigma[touched]
        frontier = touched[changed]
        sigma[frontier] = best[changed]

    e = np.flatnonzero(np.isfinite(sigma[source]))
    t = sigma[source[e]] + atoms[e]
    ok = accepted(t, e)
    # contacts that set their target's time, in (source id, atom index) order
    hit = e[ok & can_infect[e] & (t == sigma[targets[e]])]
    infected, first = np.unique(targets[hit], return_index=True)
    infector = np.full(graph.n, -1, dtype=np.int64)
    infector[infected] = source[hit[first]]
    return FirstPassage(sigma=sigma, infector=infector, accepted=int(np.count_nonzero(ok)),
                        rounds=rounds)


def brute_force_infection_times(graph: InfectionGraph, contact: ContactRate) -> np.ndarray:
    """Infection times from the decorated graph by explicit chain enumeration.

    Every simple chain out of an initially infected individual is generated
    (depth first, pruned at the horizon), then all chains are replayed in
    increasing arrival time: a chain assigns its arrival time to its endpoint
    when its parent chain was itself the realised one at the previous hop,
    the contact-rate check passes, and the endpoint has no earlier time.
    Prefix sums use the same additions as `first_passage`, so agreement is
    exact, not approximate.
    """
    n = graph.n
    sigma = np.full(n, math.inf)
    init_ids = np.flatnonzero(graph.initial)
    sigma[init_ids] = -graph.z[init_ids]

    # chains[i] = (arrival, endpoint, parent_chain, mark); parent -1 = starts at a seed
    chains: list[tuple[float, int, int, float]] = []

    def extend(chain_id: int, x: int, t: float, visited: frozenset[int]) -> None:
        if len(chains) > _MAX_CHAINS:
            raise RuntimeError("chain enumeration exceeded the cap; population too large")
        for length, u, mark in graph.out_edges(x):
            arrival = t + length
            if arrival < 0.0 or arrival > graph.horizon or u in visited or graph.initial[u]:
                continue
            chains.append((arrival, u, chain_id, mark))
            extend(len(chains) - 1, u, arrival, visited | {u})

    for x in init_ids:
        extend(-1, int(x), float(sigma[x]), frozenset([int(x)]))

    realised = np.zeros(len(chains), dtype=bool)
    order = sorted(range(len(chains)), key=lambda i: chains[i][0])
    for i in order:
        arrival, u, parent, mark = chains[i]
        if parent >= 0 and not realised[parent]:
            continue
        if parent >= 0 and chains[parent][0] != sigma[chains[parent][1]]:
            continue
        if mark > contact(arrival):
            continue
        if arrival < sigma[u]:
            sigma[u] = arrival
            realised[i] = True
    return sigma
