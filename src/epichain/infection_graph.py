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
once, in frontier rounds.  At a constant rate the rounds relax only the
out-edges of the individuals whose time fell: with c constant an accepted
contact stays accepted when its source's time falls (every time but the
initial ones is >= 0), so lowering is exact.  Under a time-varying rate a
falling time can move a contact to where c(t) rejects it, so the rounds
recompute each touched target from all its in-edges (Jacobi).
`brute_force_infection_times` evaluates the same minimum by enumerating
contact chains one at a time, so it can cross-check the solver on small
populations.  Both make the same floating-point additions, so they agree
exactly.
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
    edges: int            # contacts the rounds evaluated: out-edges at constant c, else in-edges


def _ranges(offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The concatenated index ranges offsets[i]:offsets[i + 1] for i in ids."""
    starts = offsets[ids]
    lengths = offsets[ids + 1] - starts
    ends = np.cumsum(lengths)
    return (starts - ends + lengths).take(_rows(lengths)) + np.arange(lengths.sum())


def first_passage(graph: InfectionGraph, contact: ContactRate) -> FirstPassage:
    """Solve the infection-time fixed point in frontier rounds.

    The first round's frontier is the initially infected; each round
    evaluates the contacts its frontier can have changed, and the targets
    whose time changed are the next frontier.  The rate picks one of two
    routes:

    - constant c (`contact.settles_at == 0`): out-edge relaxation.  A round
      evaluates only the frontier's own contacts and lowers each target to
      its smallest accepted candidate.  Lowering is exact here: acceptance
      is 0 <= t <= horizon and mark <= c, every time but the initial ones is
      >= 0, and times only fall, so an accepted contact stays accepted when
      its source's time falls.  A target's recompute from all its in-edges
      is then the minimum of its time and the frontier's new candidates.
    - time-varying c: Jacobi rounds recompute every target of the frontier
      from all of that target's in-edges.  A time that falls can move a
      contact to where c(t) rejects it, so a target is recomputed, never
      only lowered.

    A constant rate written with a redundant knot settles later, so it takes
    the Jacobi rounds: they give the same sigma, infectors, accepted count
    and rounds, and only `edges` differs.  With positive ages the fixed
    point is unique, and after r rounds every time below (earliest seed
    time) + r * (smallest age) is final, so the rounds end at it.  The
    infector of u is the source of the accepted contact that sets sigma[u];
    ties break by (time, source id, atom index), the order in which
    contacts happen.
    """
    targets = graph.targets
    source = graph.courses.owners()
    atoms = graph.courses.atoms
    constant = contact.settles_at == 0.0

    def accepted(t: np.ndarray, e: np.ndarray) -> np.ndarray:
        c = contact.terminal_value if constant else contact(t)
        return (t >= 0.0) & (t <= graph.horizon) & (graph.marks[e] <= c)

    # only contacts between two individuals, the target not initially infected, can infect
    can_infect = (targets != source) & ~graph.initial[targets]
    sigma = np.full(graph.n, math.inf)
    seeds = np.flatnonzero(graph.initial)
    sigma[seeds] = -graph.z[seeds]
    solve = _relaxed if constant else _recomputed
    rounds, edges = solve(graph, source, can_infect, accepted, sigma, seeds)

    e = np.flatnonzero(np.isfinite(sigma[source]))
    t = sigma[source[e]] + atoms[e]
    ok = accepted(t, e)
    # contacts that set their target's time, in (source id, atom index) order
    hit = e[ok & can_infect[e] & (t == sigma[targets[e]])]
    infected, first = np.unique(targets[hit], return_index=True)
    infector = np.full(graph.n, -1, dtype=np.int64)
    infector[infected] = source[hit[first]]
    return FirstPassage(sigma=sigma, infector=infector, accepted=int(np.count_nonzero(ok)),
                        rounds=rounds, edges=edges)


def _relaxed(graph: InfectionGraph, source, can_infect, accepted, sigma,
             frontier) -> tuple[int, int]:
    """`first_passage`'s rounds for a constant rate: each relaxes the
    frontier's out-edges, lowering sigma in place.  (rounds, edges)."""
    targets, atoms, offsets = graph.targets, graph.courses.atoms, graph.courses.offsets
    best = np.full(graph.n, math.inf)  # each target's smallest candidate so far, >= sigma
    is_touched = np.zeros(graph.n, dtype=bool)
    rounds = edges = 0
    while frontier.size:
        rounds += 1
        e = _ranges(offsets, frontier)
        edges += e.size
        t = sigma[source[e]] + atoms[e]
        ok = can_infect[e] & accepted(t, e)
        u = targets[e[ok]]
        np.minimum.at(best, u, t[ok])
        is_touched[u] = True
        touched = np.flatnonzero(is_touched)
        is_touched[touched] = False
        frontier = touched[best[touched] < sigma[touched]]
        sigma[frontier] = best[frontier]
    return rounds, edges


def _recomputed(graph: InfectionGraph, source, can_infect, accepted, sigma,
                frontier) -> tuple[int, int]:
    """`first_passage`'s Jacobi rounds for a time-varying rate: each
    recomputes the frontier's targets from all their in-edges, updating
    sigma in place.  (rounds, edges)."""
    targets, atoms = graph.targets, graph.courses.atoms
    live = np.flatnonzero(can_infect)
    in_edges = live[np.argsort(targets[live])]
    in_offsets = _offsets(targets[live], graph.n)
    is_touched = np.zeros(graph.n, dtype=bool)
    rounds = edges = 0
    while frontier.size:
        rounds += 1
        out = _ranges(graph.courses.offsets, frontier)
        is_touched[targets[out[can_infect[out]]]] = True
        touched = np.flatnonzero(is_touched)
        is_touched[touched] = False
        degree = in_offsets[touched + 1] - in_offsets[touched]
        e = in_edges[_ranges(in_offsets, touched)]
        edges += e.size
        t = sigma[source[e]] + atoms[e]
        best = np.minimum.reduceat(np.where(accepted(t, e), t, math.inf),
                                   np.cumsum(degree) - degree)
        changed = best != sigma[touched]
        frontier = touched[changed]
        sigma[frontier] = best[changed]
    return rounds, edges


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
