"""Sampler for the limiting two-type branching dual of the epidemic.

The root stands for a focal individual.  It gets a Poisson((1-I0)R0) number
of potential-infector subtrees, each over an edge of length W ~ nu (the
generation density), and a Poisson(I0*R0_bar) number of leaf edges straight
to initially infected individuals, carrying a (delay, initial age) pair from
the joint density G.  The infection time sigma of a node is the smallest
candidate over its children,

    sigma = min( W_i + sigma_i  over subtree edges,   Wbar_j over leaf edges ),

where a candidate only counts if its uniform mark s satisfies
s <= c(candidate), the candidate value being the calendar time of that
transmission.  B(t) = (1-I0) P(sigma <= t) solves the same delay equation as
the macroscopic cumulative incidence, which is what `estimate_B` exploits.

One driver over an array of root indices serves every sampler.  It expands
a chunk of trees a generation at a time and folds the minima back up; given
a sigma window, a top-down walk then follows each windowed tree's argmin
edges from the root to the initially infected individual at the end of its
chain.  `estimate_B` reads only sigma, `conditioned_first_step` the paths'
first step, and `sample_geodesic` is the one-index case.

Memory is bounded by a node budget.  A finished level keeps only what the
fold and the walk read: each node's minimum i_min, the length W and mark s of
the edge from its parent, and its parent's row (int32, so a level holds fewer
than 2^31 rows), plus the few leaf edges that offer a candidate: 28 bytes a
node, 20 where c = 1 everywhere, since no mark can reject there and none is
drawn.  The keys, sample ids and depths live only on the frontier, the level
being expanded.  sigma is the first level's i_min, and the walk carries each
path's sample id down.  A batch runs in chunks of consecutive samples: the
first of `_NODE_BUDGET` // 1000 samples, each later one sized from the nodes
per sample seen so far to hold about `_NODE_BUDGET` nodes.  The node cap is
checked on each level's children before their keys and marks are drawn, so
a runaway tree stops within one chunk of a few hundred samples.

Each estimator expands its trees only as far as the latest time it reads:
`estimate_B` to the largest grid time and `conditioned_first_step` to the
end of its window, not to `params.horizon`.  Censoring at H is exact for
every sample with sigma <= H: a node at depth d only affects the root
through candidates of at least d, so a subtree rooted deeper than H offers
nothing at or below H, and ties in the argmin walk are unaffected for the
same reason.  (A path whose length lies within rounding of H may fall on
either side, as it does at `params.horizon`.)

Randomness is counter-based: every node owns a 64-bit key, and all its draws
are fixed functions of (key, counter).  A sample's draws therefore do not
depend on the chunk it is expanded in (`sample_geodesic(seed, index)` sees
the tree at position `index` of the batched estimators), and changing the
censoring horizon never changes the draws of the nodes both expansions keep
(the monotone coupling the censoring tests check).

Per-node draw layout (counter -> use):
    0 -> number of subtree children K_S       1 -> number of leaf edges K_I
    2+2j, 3+2j -> edge length W_j and mark s_j of subtree child j
    2+2K_S+3m, +1, +2 -> initial age Z_m, delay Wbar_m, mark sbar_m of leaf m
Subtree child j's key is `rng.child_keys` of the parent's key at counter j.
A draw at counter c hashes the key plus the offset (c + 1) * gamma mod 2^64;
the offsets of K_S, K_I and every subtree slot's W, s and key are tabled
once (`rng.counter_offsets`), so a level's draws cost one gather each and no
counter arithmetic, and a leaf edge's three draws step one offset by gamma.

No draw that the horizon cuts is ever made.  An edge's length comes first;
only a subtree child with depth + W <= H gets its mark and its key, and only
a leaf edge with depth + Wbar <= H gets its mark (marks only where c < 1
somewhere).  Since a draw depends only on (key, counter), skipping the others
leaves the layout above, and every draw that is made, as it would be if all
were made.  K_S and K_I invert the Poisson CDF through `densities.GuideTable`,
as every W and Z inverts its own CDF; its index is exactly that of
`searchsorted` on the CDF.  K_I is 0 for every node whose uniform lies below
P(K_I = 0), most of them; only the others (the leaf owners) are looked up.

A level records its leaf owners (row, key, depth, K_S, K_I) as it is
expanded.  Once the whole chunk is expanded, all of its leaf edges are drawn
in one pass, their Z, Wbar and marks at the counters above, and each level
gets the ones that offer a candidate, in row order; the bottom-up fold takes
each level's leaf minima before it folds the level into its parents.  The
draws and the levels are those of a per-level pass, bit for bit.

Workers.  A batch uses every CPU the process may run on
(`os.sched_getaffinity`, so `taskset` limits it), at most `_WORKER_CAP`.
Any split is exact: a tree's draws depend only on its root's key, and that
only on (seed, index), so trees at different indices are independent work
and no split of the indices can change a sigma, a path or a count.  The
batch's first chunk runs in this process: it measures the nodes per sample,
and a runaway tree trips the node cap there before any worker exists.  If
the remaining samples are expected to hold more than `_FORK_NODES` nodes
(below that a fork gains too little to measure), the same chunk loop hands
the rest to a pool of W forked workers, keeping 2W chunks in flight, and
collects them in index order, so a busy CPU delays one small chunk, not a
W-th of the batch; sigma and the paths are joined one chunk after the other
and the node counts summed.  The lowest-indexed failing chunk raises its
exception, and the chunks not yet handed out never run.  One process serves
where the platform cannot fork, and where another thread runs (a forked
child would inherit the locks it holds but not the thread).
"""

from __future__ import annotations

import collections
import contextlib
import math
import os
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .courses import CourseBatch, CourseModel, _ragged
from .densities import GridDensity, GuideTable
from .kernels import ContactRate, InitialCondition, IntensityKernel, joint_delay_age_from_uniforms
from .rng import (
    GAMMA, check_count, check_real, child_keys, counter_offsets, keyed_bits, make_rng,
    root_key_vec, u01_from_bits,
)

# nodes a chunk of samples aims at (see the module docstring); more nodes
# per chunk save per-call overhead but grow peak memory linearly
_NODE_BUDGET = 250_000
# the most processes a batch is expanded in, whatever the CPU count
_WORKER_CAP = 4
# a batch forks only when the samples after its first chunk are expected to
# hold more nodes than this.  A fork and the results sent back cost ~10 ms;
# on 2 CPUs two processes gained 25-45% on 1.6-2.2M nodes, 15% on 1.1M and
# no steady gain below 1M (x86-64, ~1e7 nodes/s in one process)
_FORK_NODES = 1_500_000
# per-sample node guard against runaway trees (edges short relative to the
# horizon); at horizon 10 the reference scenario's tree-size tail over 1.5e6
# samples stays below it
NODE_CAP = 150_000


def poisson_counts(lam: float) -> GuideTable:
    """Poisson(lam) draws by inversion: the table's `cum` holds P(K <= k) for
    k = 0..len-1, and its `index` of a uniform u is the count K."""
    if lam < 0:
        raise ValueError("Poisson mean must be nonnegative")
    from scipy.special import pdtr  # the Poisson CDF; scipy loads at first use

    k_max = int(lam + 40.0 * math.sqrt(lam + 1.0) + 40.0)
    return GuideTable(pdtr(np.arange(k_max), lam))


@dataclass(frozen=True)
class TreeParams:
    """Frozen inputs of the dual tree: offspring laws, densities, contact rate."""

    ic: InitialCondition
    contact: ContactRate
    horizon: float
    s0: float
    generation: GridDensity
    s_counts: GuideTable
    i_counts: GuideTable
    node_cap: int = NODE_CAP
    model: CourseModel | None = None


def tree_params(kernel: IntensityKernel, ic: InitialCondition, contact: ContactRate,
                horizon: float, node_cap: int = NODE_CAP,
                model: CourseModel | None = None) -> TreeParams:
    ic.check_kernel(kernel)
    horizon = check_real("horizon", horizon, positive=True)
    node_cap = check_count("node_cap", node_cap, 1)
    s0 = 1.0 - ic.i0
    return TreeParams(
        ic=ic, contact=contact, horizon=horizon, s0=s0,
        generation=kernel.generation_density(),
        s_counts=poisson_counts(s0 * kernel.r0),
        i_counts=poisson_counts(ic.i0 * ic.r0_bar),
        node_cap=node_cap, model=model,
    )


# Per-node draw layout and its offset tables: see the module docstring.

_KS_OFFSET, _KI_OFFSET = counter_offsets([0, 1])


@lru_cache(maxsize=None)
def _slot_offsets(slots: int):
    """The offsets of subtree slots j = 0..slots-1: the draws W_j (counter
    2+2j) and s_j (3+2j), and child j's key."""
    j = np.arange(slots)
    tables = counter_offsets(2 * j + 2), counter_offsets(2 * j + 3), counter_offsets(j)
    for table in tables:
        table.flags.writeable = False
    return tables


_NO_ROWS, _NO_VALUES = np.zeros(0, dtype=np.int64), np.zeros(0)  # shared, never written
_INT32_ROWS = 2 ** 31 - 1


class _Level:
    """One finished generation of a chunk's forest, one row per node: what the
    fold and the walk read.  `i_min` is the node's sigma, `parent_row`,
    `edge_w` and `edge_s` describe the edge from its parent (`edge_s` is None
    where c = 1 everywhere, as no mark is drawn), and the leaf edges that
    offer a candidate are listed by owning row, value and initial age."""

    __slots__ = ("i_min", "parent_row", "edge_w", "edge_s", "leaf_row", "leaf_val", "leaf_z")

    def __init__(self, parent_row, edge_w, edge_s, size):
        self.i_min = np.full(size, np.inf)
        self.parent_row = parent_row
        self.edge_w = edge_w
        self.edge_s = edge_s
        self.leaf_row, self.leaf_val, self.leaf_z = _NO_ROWS, _NO_VALUES, _NO_VALUES


def _expand_chunk(p: TreeParams, keys0: np.ndarray):
    """Forward expansion + bottom-up minimisation for one chunk of samples.

    Returns (levels, nodes_expanded, nodes_pruned); `levels[0]` has one row
    per sample, so its `i_min` is the chunk's sigma, and `_walk` recovers
    argmin paths from the levels.  A pruned node is a child cut at the
    horizon or a leaf edge that offers no candidate.
    """
    n = keys0.size
    contact, horizon = p.contact, p.horizon
    marks = bool(contact.levels.min() < 1.0)  # at c = 1 everywhere no mark rejects
    w_offset, s_offset, key_offset = _slot_offsets(p.s_counts.cum.size)
    no_leaf = p.i_counts.cum[0]  # P(K_I = 0): a uniform below it gives K_I = 0
    # the frontier: keys, sample ids and depths of the level being expanded
    key, sample, depth_len = keys0, np.arange(n, dtype=np.int64), np.zeros(n)
    cur = _Level(np.zeros(0, dtype=np.int32), _NO_VALUES, None, n)
    levels: list[_Level] = []
    owners = []  # per level with leaf edges: (level, row, key, depth, K_S, K_I) of each owner
    per_sample_nodes = np.ones(n, dtype=np.int64)
    nodes_pruned = 0

    while True:
        if key.size > _INT32_ROWS:
            raise RuntimeError(f"a level of {key.size} nodes has more rows than an int32 "
                               "parent row can index")
        levels.append(cur)
        k_s = p.s_counts.index(u01_from_bits(keyed_bits(key, _KS_OFFSET)))
        u = u01_from_bits(keyed_bits(key, _KI_OFFSET))
        rows = (u >= no_leaf).nonzero()[0]
        if rows.size:  # the leaf owners: their K_I is looked up, their edges drawn later
            owners.append((np.full(rows.size, len(levels) - 1), rows, key[rows], depth_len[rows],
                           k_s[rows], p.i_counts.index(u[rows])))
        del u

        # subtree children: marks and keys only within H
        rows, slots = _ragged(k_s)
        del k_s
        w = p.generation.ppf_from_uniform(
            u01_from_bits(keyed_bits(key.take(rows), w_offset.take(slots))))
        depth_len = depth_len.take(rows)
        depth_len += w
        keep = (depth_len <= horizon).nonzero()[0]
        nodes_pruned += rows.size - keep.size
        if keep.size == 0:
            break
        rows, slots = rows.take(keep), slots.take(keep)
        w, depth_len = w.take(keep), depth_len.take(keep)
        del keep
        sample = sample.take(rows)
        per_sample_nodes += np.bincount(sample, minlength=n)
        if np.any(per_sample_nodes > p.node_cap):
            worst = int(per_sample_nodes.max())
            raise RuntimeError(
                f"node cap {p.node_cap} exceeded ({worst} nodes in one sample, "
                f"depth {len(levels)}, {int(per_sample_nodes.sum())} nodes total); "
                "edge lengths are too short relative to the horizon")
        parent_key = key.take(rows)
        del key  # read no more: freed before the children's keys are drawn
        edge_s = u01_from_bits(keyed_bits(parent_key, s_offset.take(slots))) if marks else None
        key = child_keys(parent_key, key_offset.take(slots))
        del parent_key, slots
        cur = _Level(rows.astype(np.int32), w, edge_s, key.size)
        del rows, w, edge_s

    if owners:
        nodes_pruned += _leaf_edges(p, levels, owners, marks)
    # bottom-up: each level's leaf candidates, then its sigma into its parents' minima
    for k in range(len(levels) - 1, -1, -1):
        lev = levels[k]
        if lev.leaf_row.size:
            np.minimum.at(lev.i_min, lev.leaf_row, lev.leaf_val)
        if k:
            np.minimum.at(levels[k - 1].i_min, lev.parent_row, _candidates(contact, lev))

    return levels, int(per_sample_nodes.sum()), nodes_pruned


def _leaf_edges(p: TreeParams, levels: list[_Level], owners, marks: bool) -> int:
    """Draw the leaf edges of a chunk's owners at once and list, on each
    level, those that offer a candidate: within H and, where c < 1 somewhere,
    accepted by their mark.  Returns the number pruned.

    `owners` holds, level by level, (level, row, key, depth, K_S, K_I) of the
    owners in row order.  Leaf m of a node draws Z_m, Wbar_m and sbar_m at
    counters base = 2+2K_S+3m, base+1 and base+2.
    """
    level, rows, keys, depth_len, k_s, k_i = (np.concatenate(col) for col in zip(*owners))
    owner, slot = _ragged(k_i)
    keys = keys[owner]
    offset = counter_offsets(2 * k_s[owner] + 3 * slot + 2)  # Z_m; + GAMMA: Wbar_m, sbar_m
    u_age = u01_from_bits(keyed_bits(keys, offset))
    offset += GAMMA
    w, z = joint_delay_age_from_uniforms(p.ic, u_age, u01_from_bits(keyed_bits(keys, offset)))
    ok = (depth_len[owner] + w <= p.horizon).nonzero()[0]
    if marks:
        offset += GAMMA
        ok = ok[u01_from_bits(keyed_bits(keys[ok], offset[ok])) <= p.contact(w[ok])]
    level = level[owner[ok]]  # nondecreasing, so each level's edges are one run
    for k in np.unique(level):
        lo, hi = np.searchsorted(level, (k, k + 1))
        sel = ok[lo:hi]
        levels[k].leaf_row, levels[k].leaf_val, levels[k].leaf_z = rows[owner[sel]], w[sel], z[sel]
    return owner.size - ok.size


def _candidates(contact: ContactRate, lev: _Level, sel=slice(None)) -> np.ndarray:
    """Subtree candidates W + sigma of the level's rows `sel` for their
    parents, inf where the mark rejects them."""
    cand = lev.edge_w[sel] + lev.i_min[sel]
    if lev.edge_s is None:  # no marks drawn: c = 1 everywhere
        return cand
    return np.where(lev.edge_s[sel] <= contact(cand), cand, np.inf)


def _first_per_owner(idx: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The first of `idx` (ascending, with nondecreasing owners) per owner."""
    g = owner[idx]
    first = np.ones(idx.size, dtype=bool)
    first[1:] = g[1:] != g[:-1]
    return idx[first]


def _walk(contact: ContactRate, levels: list[_Level], rows: np.ndarray,
          steps: int | None = None):
    """Follow the argmin edges down from the roots `rows` (ascending) of a
    chunk until every path has ended, or for at most `steps` generations.

    Returns (times, ages), row i for root rows[i], NaN past its path's end:
    times[i, k] is the infection time of the k-th individual up the chain
    (sigma first, -Z last, where an initially infected individual ends it),
    and ages[i, k] the age at which individual k + 1 transmitted to k.  A tie
    goes to a leaf edge, then to the lowest slot, the order of the per-node
    draws.  `rows` are the paths' nodes in the current level, and `owners`
    the paths they belong to.
    """
    last = len(levels) if steps is None else min(steps, len(levels))
    times = np.full((rows.size, last + 1), np.nan)
    ages = np.full((rows.size, last), np.nan)
    times[:, 0] = levels[0].i_min[rows]
    owners, depth = np.arange(rows.size), 0
    while rows.size and depth < last:
        lev = levels[depth]
        on_path = np.zeros(lev.i_min.size, dtype=bool)
        on_path[rows] = True
        hit = on_path[lev.leaf_row] & (lev.leaf_val == lev.i_min[lev.leaf_row])
        leaf = _first_per_owner(np.flatnonzero(hit), lev.leaf_row)
        ended = lev.leaf_row[leaf]
        on_path[ended] = False
        paths = owners[np.searchsorted(rows, ended)]
        times[paths, depth + 1] = -lev.leaf_z[leaf]
        ages[paths, depth] = lev.leaf_val[leaf] + lev.leaf_z[leaf]
        depth += 1
        if depth == len(levels):
            break
        child = levels[depth]
        sel = np.flatnonzero(on_path[child.parent_row])
        cand = _candidates(contact, child, sel)
        nxt = _first_per_owner(sel[cand == lev.i_min[child.parent_row[sel]]], child.parent_row)
        owners = owners[np.searchsorted(rows, child.parent_row[nxt])]
        rows = nxt
        times[owners, depth] = child.i_min[rows]
        ages[owners, depth - 1] = child.edge_w[rows]
    return times[:, :depth + 1], ages[:, :depth]


def _stack(blocks) -> np.ndarray:
    """The chunks' path matrices one under the other, NaN-padded to the widest."""
    if len(blocks) == 1:
        return blocks[0]
    width = max(b.shape[1] for b in blocks)
    return np.concatenate([np.pad(b, ((0, 0), (0, width - b.shape[1])), constant_values=np.nan)
                           for b in blocks])


@dataclass(frozen=True)
class TreeWork:
    """The work behind a tree result: nodes expanded and pruned over all its
    samples, the deepest generation any of them reached, the number of
    chunks they ran in, with the most nodes in one chunk, and the number of
    processes that expanded the chunks past the first (1 where this process
    expanded them all, W where a pool of W workers did).  The chunk sizes
    follow the nodes per sample measured as chunks return, so `chunks`,
    `max_chunk_nodes` and `workers` depend on the CPUs the run may use; the
    others do not."""

    nodes_expanded: int
    nodes_pruned: int
    max_depth: int
    chunks: int
    max_chunk_nodes: int
    workers: int


def _chunk_size(samples: int, nodes: int) -> int:
    """Samples in a chunk of about `_NODE_BUDGET` nodes, at `nodes` per
    `samples` samples."""
    return max(1, round(_NODE_BUDGET * samples / nodes))


_GUESS = (1, 1000)  # (samples, nodes) until measured: 1000 nodes per sample


def _chunk(p: TreeParams, seed: int, window, steps, indices: np.ndarray):
    """(sigma, times, ages, nodes expanded, nodes pruned, depth) of the trees
    at `indices`, expanded as one chunk; times and ages are None without a
    window."""
    levels, expanded, pruned = _expand_chunk(p, root_key_vec(seed, indices))
    sigma, times, ages = levels[0].i_min, None, None
    if window is not None:
        walked = np.flatnonzero((sigma >= window[0]) & (sigma <= window[1]))
        times, ages = _walk(p.contact, levels, walked, steps)
    return sigma, times, ages, expanded, pruned, len(levels) - 1


def _workers() -> int:
    """The processes a batch may use: the CPUs this process may run on, at
    most `_WORKER_CAP`; 1 where the platform cannot fork or tell its CPUs,
    or where another thread runs."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), _WORKER_CAP)


# in a pool worker: the batch's (p, seed, window, steps), set by `_start_worker`; the
# fork hands them over unpickled, where a pickled TreeParams takes about 2.6 MiB
_batch = ()


def _start_worker(*batch) -> None:
    global _batch
    _batch = batch


def _worker_chunk(indices: np.ndarray):
    return _chunk(*_batch, indices)


def _expand_batch(p: TreeParams, indices: np.ndarray, seed: int, window=None, steps=None):
    """(sigma, times, ages, work) of the trees at positions `indices` of the
    seed's stream, censored at `p.horizon`, with a sigma per index.

    Given a sigma `window` (lo, hi), times and ages hold the paths (see
    `_walk`) of the trees whose sigma lies in [lo, hi], in index order and
    NaN-padded to the longest, each cut after `steps` generations if given;
    without a window they are None.  Chunks are sized by `_NODE_BUDGET`,
    and those after the first may go to a pool of forked workers (see the
    module docstring); since a draw depends only on its node's key, neither
    changes an output.
    """
    batch, lo, seen = (p, seed, window, steps), 0, _GUESS

    def take() -> np.ndarray:  # the next chunk, sized from the samples and nodes seen so far
        nonlocal lo
        chunk = indices[lo:lo + _chunk_size(*seen)]
        lo += chunk.size
        return chunk

    parts = [_chunk(*batch, take())]  # the head: a runaway tree trips the node cap here
    seen, workers = (lo, parts[0][3]), 1
    if (indices.size - lo) * seen[1] / seen[0] > _FORK_NODES:
        workers = min(_workers(), indices.size - lo)
    if workers > 1:
        # both load at first use: most runs never fork
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                                   initializer=_start_worker, initargs=batch)
    else:
        pool = contextlib.nullcontext()
    with pool:
        pending = collections.deque()  # chunks in the pool, in index order
        while lo < indices.size or pending:
            while workers > 1 and lo < indices.size and len(pending) < 2 * workers:
                pending.append(pool.submit(_worker_chunk, take()))
            parts.append(pending.popleft().result() if pending else _chunk(*batch, take()))
            seen = (seen[0] + parts[-1][0].size, seen[1] + parts[-1][3])
    sigma, times, ages, expanded, pruned, depth = zip(*parts)
    work = TreeWork(sum(expanded), sum(pruned), max(depth), len(parts), max(expanded), workers)
    if window is None:
        return np.concatenate(sigma), None, None, work
    return np.concatenate(sigma), _stack(times), _stack(ages), work


# ---------------------------------------------------------------------------
# the samplers: one geodesic, the B curve, conditioned first steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicSample(TreeWork):
    """One sampled infection time with its decorated ancestral path.

    `path_times` runs strictly downward from sigma to -terminal_age; entry i
    is the infection time of the i-th individual along the chain (the focal
    one first).  `path_courses`, when a course model is attached to the
    params, is one batch with a row per individual of the path: row 0 is
    the focal individual's ordinary course, and row k + 1 the Palm course of
    the k-th transmitter, conditioned on a contact at its transmission age
    path_times[k] - path_times[k + 1] and holding that age as an atom.
    """

    sigma: float
    censored: bool
    path_times: np.ndarray
    path_courses: CourseBatch | None
    terminal_age: float | None


def sample_geodesic(p: TreeParams, seed: int, index: int = 0) -> GeodesicSample:
    """Sample one tree, returning sigma and the realised ancestral path.

    `index` selects an independent sample within the seed's stream; it lines
    up with position `index` of the batched samplers.  The course decoration
    draws from its own stream of (seed, index), never from the tree's.

    With a course model in `p.model`, the path is decorated with the marks
    along the spine of the paper's marked tree: each transmitter on the
    geodesic carries a course in the Palm sense, conditioned on a contact at
    its transmission age.  No acceptance criterion reads these courses; the
    unit tests check that every spine course holds its transmission age and
    that the decoration leaves the path bitwise unchanged.
    """
    index = check_count("index", index, 0)
    if index >= 2 ** 64:
        raise ValueError(f"index must be below 2**64, got {index}")
    _, times, ages, work = _expand_batch(p, np.array([index], dtype=np.uint64), seed,
                                         window=(-math.inf, p.horizon))
    if times.shape[0] == 0:
        return GeodesicSample(**vars(work), sigma=math.inf, censored=True,
                              path_times=np.zeros(0), path_courses=None, terminal_age=None)
    # one path, so its row is as wide as the path: no NaN padding
    path_times = times[0]

    courses = None
    if p.model is not None:
        rng = make_rng(seed, "geodesic-courses", index)
        focal = p.model.sample_courses(rng, 1)
        palm = p.model.palm_courses(rng, ages[0])
        courses = CourseBatch(
            np.concatenate((focal.offsets, focal.offsets[-1] + palm.offsets[1:])),
            np.concatenate((focal.atoms, palm.atoms)),
            np.concatenate((focal.entry_ages, palm.entry_ages)), focal.compartments)

    return GeodesicSample(**vars(work), sigma=float(path_times[0]), censored=False,
                          path_times=path_times, path_courses=courses,
                          terminal_age=float(-path_times[-1]))


@dataclass(frozen=True)
class DualCurve(TreeWork):
    """B estimated on a time grid, from trees expanded up to the largest
    grid time."""

    t: np.ndarray
    estimate: np.ndarray
    se: np.ndarray
    n_samples: int


def estimate_B(p: TreeParams, t_grid, n_samples: int, seed: int) -> DualCurve:
    """Monte Carlo cumulative-incidence curve B(t) = (1-I0) P(sigma <= t).

    The trees are censored at max(t_grid), the latest time the curve reads.
    """
    n_samples = check_count("n_samples", n_samples, 1000)  # fewer give no stable curve
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.ndim != 1:
        raise ValueError(f"curve grid t_grid must be 1-D, got shape {t_grid.shape}")
    if t_grid.size == 0:
        raise ValueError("curve grid t_grid is empty")
    if not np.all(np.isfinite(t_grid)):
        i = int(np.argmin(np.isfinite(t_grid)))
        raise ValueError(f"curve grid t_grid must be finite, got {t_grid[i]} at index {i}")
    if t_grid.max() > p.horizon:
        raise ValueError(f"curve grid extends beyond the censoring horizon: max(t_grid) = "
                         f"{t_grid.max()} > {p.horizon}")
    sigma, _, _, work = _expand_batch(replace(p, horizon=float(t_grid.max())),
                                      np.arange(n_samples), seed)
    frac = np.searchsorted(np.sort(sigma), t_grid, side="right") / n_samples
    se = p.s0 * np.sqrt(frac * (1.0 - frac) / n_samples)
    return DualCurve(**vars(work), t=t_grid, estimate=p.s0 * frac, se=se, n_samples=n_samples)


@dataclass(frozen=True)
class FirstStepSample(TreeWork):
    """First backward times among samples conditioned on sigma in a window,
    from trees expanded up to the end of the window."""

    window: tuple[float, float]
    values: np.ndarray
    sigmas: np.ndarray
    n_samples: int

    @property
    def n_conditioned(self) -> int:
        return int(self.values.size)


def conditioned_first_step(p: TreeParams, t: float, delta: float,
                           n_samples: int, seed: int) -> FirstStepSample:
    """Condition on sigma in [t, t+delta] and report each sample's first
    backward time (the infector's infection time, negative if the infector
    was initially infected).  The trees are censored at t + delta."""
    n_samples = check_count("n_samples", n_samples, 1)
    t = check_real("window t", t, positive=None)
    delta = check_real("window delta", delta, positive=True)
    if t + delta > p.horizon:
        raise ValueError(f"window extends beyond the censoring horizon: t + delta = "
                         f"{t + delta} > {p.horizon}")
    if t + delta <= 0:
        raise ValueError(f"window [{t}, {t + delta}] ends at or before 0, where no sigma "
                         "(always positive) can land")
    # column 1 is all it reads, so each path is walked one generation down
    _, times, _, work = _expand_batch(replace(p, horizon=t + delta), np.arange(n_samples), seed,
                                      window=(t, t + delta), steps=1)
    if times.shape[0] < 200:
        raise RuntimeError(f"only {times.shape[0]} samples landed in [{t}, {t + delta}]; "
                           "increase n_samples")
    return FirstStepSample(**vars(work), window=(t, t + delta), values=times[:, 1].copy(),
                           sigmas=times[:, 0].copy(), n_samples=n_samples)
