"""Fully decorated infection graph and a brute-force infection-time oracle.

`simulate(record_graph=True)` records every course, target and mark its run
drew.  Given that decoration the epidemic is deterministic: individual x
gets infected at the earliest candidate time over chains of contacts rooted
in the initially infected, where a chain only counts if every intermediate
host was itself infected exactly at the chain's prefix time and every jump
passed its contact-rate check.  Decorations the run never drew cannot
change that minimum (see `InfectionGraph`).  `brute_force_infection_times`
evaluates the minimisation by enumerating candidate chains directly, with no
event queue, so it can cross-check the event-driven run on small
populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .courses import DiseaseCourse
from .kernels import ContactRate


@dataclass(frozen=True)
class InfectionGraph:
    """Population-level decoration recorded by `simulate(record_graph=True)`.

    `courses[x]`, `targets[x][k]` and `marks[x][k]` decorate atom k of the
    course of an infected individual x; `courses` is the run's own dict.
    Edge lengths are the raw course ages; an initially infected individual
    starts at time -z, so its pre-time-0 contacts are removed by the
    arrival >= 0 rule rather than by shifting lengths.

    The run draws a target only for a contact it pops and a mark only when
    that target is still susceptible.  A decoration it never drew is stored
    as a self-target (the oracle skips it, the host being on its own chain)
    with mark inf, which no contact rate accepts: contacts outside
    [0, horizon], contacts whose target was already infected, and the
    contacts of individuals never infected (`out_edges` gives none).
    """

    n: int
    initial: np.ndarray
    z: np.ndarray
    courses: dict[int, DiseaseCourse]
    targets: dict[int, np.ndarray]
    marks: dict[int, np.ndarray]
    horizon: float

    def out_edges(self, x: int) -> list[tuple[float, int, float]]:
        """(length, target, mark) triples for the atoms of x."""
        if x not in self.courses:
            return []
        atoms = self.courses[x].atoms
        targets, marks = self.targets[x], self.marks[x]
        return [(float(atoms[k]), int(targets[k]), float(marks[k]))
                for k in range(atoms.size)]


def brute_force_infection_times(graph: InfectionGraph, contact: ContactRate,
                                max_chains: int = 500_000) -> np.ndarray:
    """Infection times from the decorated graph by explicit chain enumeration.

    Every simple chain out of an initially infected individual is generated
    (depth first, pruned at the horizon), then all chains are replayed in
    increasing arrival time: a chain assigns its arrival time to its endpoint
    when its parent chain was itself the realised one at the previous hop,
    the contact-rate check passes, and the endpoint has no earlier time.
    Prefix sums use the same additions as the event-driven run, so agreement
    is exact, not approximate.
    """
    n = graph.n
    sigma = np.full(n, math.inf)
    init_ids = np.flatnonzero(graph.initial)
    sigma[init_ids] = -graph.z[init_ids]

    # chains[i] = (arrival, endpoint, parent_chain, mark); parent -1 = starts at a seed
    chains: list[tuple[float, int, int, float]] = []

    def extend(chain_id: int, x: int, t: float, visited: frozenset[int]) -> None:
        if len(chains) > max_chains:
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
        if mark > contact.at(arrival):
            continue
        if arrival < sigma[u]:
            sigma[u] = arrival
            realised[i] = True
    return sigma
