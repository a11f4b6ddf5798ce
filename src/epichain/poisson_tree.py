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
Subtree child j's key is child_key_vec(parent_key, j).

No draw that the horizon cuts is ever made.  An edge's length comes first;
only a subtree child with depth + W <= H gets its mark and its key, and only
a leaf edge with depth + Wbar <= H gets its mark (marks only where c < 1
somewhere).  Since a draw depends only on (key, counter), skipping the others
leaves the layout above, and every draw that is made, as it would be if all
were made.  K_S and K_I invert the Poisson CDF through `densities.GuideTable`,
as every W and Z inverts its own CDF; its index is exactly that of
`searchsorted` on the CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .courses import CourseBatch, CourseModel
from .densities import GridDensity, GuideTable
from .kernels import ContactRate, InitialCondition, IntensityKernel, joint_delay_age_from_uniforms
from .rng import check_count, child_key_vec, keyed_u01_vec, make_rng, root_key_vec

# nodes a chunk of samples aims at (see the module docstring); more nodes
# per chunk save per-call overhead but grow peak memory linearly
_NODE_BUDGET = 250_000
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
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError("finite positive censoring horizon required")
    node_cap = check_count("node_cap", node_cap, 1)
    s0 = 1.0 - ic.i0
    return TreeParams(
        ic=ic, contact=contact, horizon=horizon, s0=s0,
        generation=kernel.generation_density(),
        s_counts=poisson_counts(s0 * kernel.r0),
        i_counts=poisson_counts(ic.i0 * ic.r0_bar),
        node_cap=node_cap, model=model,
    )


def _ragged(counts: np.ndarray):
    """(row, slot) of every item when row i owns counts[i] items: rows
    0,..,0,1,..,1,... and slots 0..c0-1, 0..c1-1, ... (uint64, the counter
    arithmetic's type)."""
    rows = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = (np.cumsum(counts) - counts).astype(np.uint64)
    return rows, np.arange(rows.size, dtype=np.uint64) - starts[rows]


# Per-node draw layout (see the module docstring); each helper makes only the
# draws its name says, so that a draw the horizon cuts is never made.

_COUNT_COUNTERS = np.array([[0], [1]], dtype=np.uint64)


def _offspring_counts(p: TreeParams, keys: np.ndarray):
    """K_S and K_I of each node (counters 0 and 1, drawn in one pass)."""
    u = keyed_u01_vec(keys, _COUNT_COUNTERS)
    return p.s_counts.index(u[0]), p.i_counts.index(u[1])


def _subtree_edges(p: TreeParams, keys: np.ndarray, k_s: np.ndarray):
    """(row, slot, key of the row, W) of every subtree child; W_j is drawn at
    counter 2+2j."""
    rows, slots = _ragged(k_s)
    keys_rep = keys[rows]
    w = p.generation.ppf_from_uniform(keyed_u01_vec(keys_rep, np.uint64(2) * slots + np.uint64(2)))
    return rows, slots, keys_rep, w


def _subtree_marks(keys_rep: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Marks s_j of subtree children (counter 3+2j)."""
    return keyed_u01_vec(keys_rep, np.uint64(2) * slots + np.uint64(3))


def _leaf_edges(p: TreeParams, keys: np.ndarray, k_s: np.ndarray, k_i: np.ndarray):
    """(row, key of the row, counter base, Wbar, Z) of every leaf edge; leaf m
    draws Z_m and Wbar_m at base = 2+2K_S+3m and base+1."""
    # few nodes own a leaf edge, so spread only over those that do
    owners = (k_i > 0).nonzero()[0]
    rows, slots = _ragged(k_i[owners])
    rows = owners[rows]
    keys_rep = keys[rows]
    base = np.uint64(2) * k_s[rows].astype(np.uint64) + np.uint64(3) * slots + np.uint64(2)
    w, z = joint_delay_age_from_uniforms(p.ic, keyed_u01_vec(keys_rep, base),
                                         keyed_u01_vec(keys_rep, base + np.uint64(1)))
    return rows, keys_rep, base, w, z


def _leaf_marks(keys_rep: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Marks sbar_m of leaf edges (counter base+2)."""
    return keyed_u01_vec(keys_rep, base + np.uint64(2))


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
    contact = p.contact
    marks = bool(contact.levels.min() < 1.0)  # at c = 1 everywhere no mark rejects
    # the frontier: keys, sample ids and depths of the level being expanded
    key, sample, depth_len = keys0, np.arange(n, dtype=np.int64), np.zeros(n)
    cur = _Level(np.zeros(0, dtype=np.int32), _NO_VALUES, None, n)
    levels: list[_Level] = []
    per_sample_nodes = np.ones(n, dtype=np.int64)
    nodes_pruned = 0

    while True:
        if key.size > _INT32_ROWS:
            raise RuntimeError(f"a level of {key.size} nodes has more rows than an int32 "
                               "parent row can index")
        levels.append(cur)
        k_s, k_i = _offspring_counts(p, key)

        # leaf edges to initially infected individuals: marks only within H
        if k_i.any():
            rows, keys_rep, base, w, z = _leaf_edges(p, key, k_s, k_i)
            ok = (depth_len[rows] + w <= p.horizon).nonzero()[0]
            if marks:
                ok = ok[_leaf_marks(keys_rep[ok], base[ok]) <= contact(w[ok])]
            nodes_pruned += rows.size - ok.size
            cur.leaf_row, cur.leaf_val, cur.leaf_z = rows[ok], w[ok], z[ok]
            np.minimum.at(cur.i_min, cur.leaf_row, cur.leaf_val)

        # subtree children: marks and keys only within H
        rows, slots, keys_rep, w = _subtree_edges(p, key, k_s)
        del key, k_s, k_i  # read no more: freed before the children's frontier is built
        depth_len = depth_len[rows] + w
        keep = (depth_len <= p.horizon).nonzero()[0]
        nodes_pruned += rows.size - keep.size
        if keep.size == 0:
            break
        rows, slots, keys_rep = rows[keep], slots[keep], keys_rep[keep]
        w, depth_len = w[keep], depth_len[keep]
        sample = sample[rows]
        per_sample_nodes += np.bincount(sample, minlength=n)
        if np.any(per_sample_nodes > p.node_cap):
            worst = int(per_sample_nodes.max())
            raise RuntimeError(
                f"node cap {p.node_cap} exceeded ({worst} nodes in one sample, "
                f"depth {len(levels)}, {int(per_sample_nodes.sum())} nodes total); "
                "edge lengths are too short relative to the horizon")
        key = child_key_vec(keys_rep, slots)
        cur = _Level(rows.astype(np.int32), w,
                     _subtree_marks(keys_rep, slots) if marks else None, key.size)

    # bottom-up: fold each level's sigma into its parents' minima
    for k in range(len(levels) - 1, 0, -1):
        lev = levels[k]
        np.minimum.at(levels[k - 1].i_min, lev.parent_row, _candidates(contact, lev))

    return levels, int(per_sample_nodes.sum()), nodes_pruned


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


def _walk(contact: ContactRate, levels: list[_Level], rows: np.ndarray):
    """Follow the argmin edges down from the roots `rows` (ascending) of a
    chunk until every path has ended.

    Returns (times, ages), row i for root rows[i], NaN past its path's end:
    times[i, k] is the infection time of the k-th individual up the chain
    (sigma first, -Z last, where an initially infected individual ends it),
    and ages[i, k] the age at which individual k + 1 transmitted to k.  A tie
    goes to a leaf edge, then to the lowest slot, the order of the per-node
    draws.  `rows` are the paths' nodes in the current level, and `owners`
    the paths they belong to.
    """
    times = np.full((rows.size, len(levels) + 1), np.nan)
    ages = np.full((rows.size, len(levels)), np.nan)
    times[:, 0] = levels[0].i_min[rows]
    owners, depth = np.arange(rows.size), 0
    while rows.size:
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
    samples, the deepest generation any of them reached, and the number of
    chunks they ran in, with the most nodes in one chunk."""

    nodes_expanded: int
    nodes_pruned: int
    max_depth: int
    chunks: int
    max_chunk_nodes: int


def _expand_batch(p: TreeParams, indices: np.ndarray, seed: int, window=None):
    """(sigma, times, ages, work) of the trees at positions `indices` of the
    seed's stream, censored at `p.horizon`, with a sigma per index.

    Given a sigma `window` (lo, hi), times and ages hold the paths (see
    `_walk`) of the trees whose sigma lies in [lo, hi], in index order and
    NaN-padded to the longest; without one they are None.  Chunks are sized
    by `_NODE_BUDGET` (see the module docstring); since a draw depends only
    on its node's key, the sizes never change an output.
    """
    sigma = np.empty(indices.size)
    nodes, pruned, max_depth, paths = [], 0, 0, []
    lo, size = 0, max(1, _NODE_BUDGET // 1000)  # until measured, guess 1000 nodes per sample
    while lo < indices.size:
        hi = min(lo + size, indices.size)
        levels, expanded, cut = _expand_chunk(p, root_key_vec(seed, indices[lo:hi]))
        sigma[lo:hi] = levels[0].i_min
        nodes.append(expanded)
        pruned += cut
        max_depth = max(max_depth, len(levels) - 1)
        if window is not None:
            walked = (sigma[lo:hi] >= window[0]) & (sigma[lo:hi] <= window[1])
            paths.append(_walk(p.contact, levels, np.flatnonzero(walked)))
        del levels  # free this chunk's forest before expanding the next
        lo = hi
        size = max(1, round(_NODE_BUDGET * lo / sum(nodes)))
    work = TreeWork(sum(nodes), pruned, max_depth, len(nodes), max(nodes))
    if window is None:
        return sigma, None, None, work
    times, ages = zip(*paths)
    return sigma, _stack(times), _stack(ages), work


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
        raise ValueError("curve grid extends beyond the censoring horizon")
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
    for name, value in (("t", t), ("delta", delta)):
        if not math.isfinite(value):
            raise ValueError(f"window {name} must be finite, got {value}")
    if delta <= 0:
        raise ValueError("window width must be positive")
    if t + delta > p.horizon:
        raise ValueError("window extends beyond the censoring horizon")
    if t + delta <= 0:
        raise ValueError(f"window [{t}, {t + delta}] ends at or before 0, where no sigma "
                         "(always positive) can land")
    _, times, _, work = _expand_batch(replace(p, horizon=t + delta), np.arange(n_samples), seed,
                                      window=(t, t + delta))
    if times.shape[0] < 200:
        raise RuntimeError(f"only {times.shape[0]} samples landed in [{t}, {t + delta}]; "
                           "increase n_samples")
    return FirstStepSample(**vars(work), window=(t, t + delta), values=times[:, 1].copy(),
                           sigmas=times[:, 0].copy(), n_samples=n_samples)
