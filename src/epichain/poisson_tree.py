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

One sampler serves every question.  It expands a chunk of trees a
generation at a time and folds the minima back up; when a question needs the
chain behind sigma (the first backward step, or the whole geodesic), a
top-down walk then follows each node's argmin edge from the root to the
initially infected individual at the end of the chain.

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
a leaf edge with depth + Wbar <= H gets its mark.  Since a draw depends only
on (key, counter), skipping the others leaves the layout above, and every
draw that is made, as it would be if all were made.  K_S and K_I invert the
Poisson CDF through `densities.GuideTable`, as every W and Z inverts its own
CDF; its index is exactly that of `searchsorted` on the CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .courses import CourseBatch, CourseModel
from .densities import GridDensity, GuideTable
from .kernels import ContactRate, InitialCondition, IntensityKernel, joint_delay_age_from_uniforms
from .rng import check_count, child_key_vec, keyed_u01_vec, make_rng, root_key_vec

_CHUNK = 2048
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
    if node_cap < 1:
        raise ValueError("node cap must be at least 1")
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

def _offspring_counts(p: TreeParams, keys: np.ndarray):
    """K_S and K_I of each node (counters 0 and 1)."""
    return (p.s_counts.index(keyed_u01_vec(keys, np.uint64(0))),
            p.i_counts.index(keyed_u01_vec(keys, np.uint64(1))))


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
    owners = np.flatnonzero(k_i > 0)
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


class _Level:
    """One generation of a chunk's forest, one row per node, with the leaf
    edges of its nodes that offer a candidate (owning row, value, initial
    age)."""

    __slots__ = ("key", "sample", "depth_len", "i_min", "parent_row", "edge_w", "edge_s",
                 "leaf_row", "leaf_val", "leaf_z")

    def __init__(self, key, sample, depth_len, parent_row, edge_w, edge_s):
        self.key = key
        self.sample = sample
        self.depth_len = depth_len
        self.i_min = np.full(key.size, np.inf)
        self.parent_row = parent_row
        self.edge_w = edge_w
        self.edge_s = edge_s
        self.leaf_row = np.zeros(0, dtype=np.int64)
        self.leaf_val = self.leaf_z = np.zeros(0)


def _expand_chunk(p: TreeParams, keys0: np.ndarray):
    """Forward expansion + bottom-up minimisation for one chunk of samples.

    Returns (sigma, levels, nodes_expanded, nodes_pruned); `levels[0]` has one
    row per sample, and `_walk` recovers argmin paths from the levels.  A
    pruned node is a child cut at the horizon or a leaf edge that offers no
    candidate.
    """
    n = keys0.size
    contact = p.contact
    levels: list[_Level] = []
    cur = _Level(keys0, np.arange(n, dtype=np.int64), np.zeros(n),
                 np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))
    per_sample_nodes = np.zeros(n, dtype=np.int64)
    nodes_pruned = 0

    while cur.key.size:
        per_sample_nodes += np.bincount(cur.sample, minlength=n)
        if np.any(per_sample_nodes > p.node_cap):
            worst = int(per_sample_nodes.max())
            raise RuntimeError(
                f"node cap {p.node_cap} exceeded ({worst} nodes in one sample, "
                f"depth {len(levels)}, {int(per_sample_nodes.sum())} nodes total); "
                "edge lengths are too short relative to the horizon")
        levels.append(cur)
        k_s, k_i = _offspring_counts(p, cur.key)

        # leaf edges to initially infected individuals: marks only within H
        if k_i.any():
            rows, keys_rep, base, w, z = _leaf_edges(p, cur.key, k_s, k_i)
            cut = np.flatnonzero(cur.depth_len[rows] + w <= p.horizon)
            ok = cut[_leaf_marks(keys_rep[cut], base[cut]) <= contact(w[cut])]
            nodes_pruned += rows.size - ok.size
            cur.leaf_row, cur.leaf_val, cur.leaf_z = rows[ok], w[ok], z[ok]
            np.minimum.at(cur.i_min, cur.leaf_row, cur.leaf_val)

        # subtree children: marks and keys only within H
        rows, slots, keys_rep, w = _subtree_edges(p, cur.key, k_s)
        if rows.size == 0:
            break
        depth_child = cur.depth_len[rows] + w
        keep = np.flatnonzero(depth_child <= p.horizon)
        nodes_pruned += rows.size - keep.size
        rows, slots, keys_rep = rows[keep], slots[keep], keys_rep[keep]
        cur = _Level(
            key=child_key_vec(keys_rep, slots),
            sample=cur.sample[rows],
            depth_len=depth_child[keep],
            parent_row=rows,
            edge_w=w[keep],
            edge_s=_subtree_marks(keys_rep, slots),
        )

    # bottom-up: fold each level's sigma into its parents' minima
    for k in range(len(levels) - 1, 0, -1):
        lev = levels[k]
        cand = _candidates(contact, lev.edge_w, lev.i_min, lev.edge_s)
        np.minimum.at(levels[k - 1].i_min, lev.parent_row, cand)

    sigma = np.full(n, np.inf)
    np.minimum.at(sigma, levels[0].sample, levels[0].i_min)
    return sigma, levels, int(per_sample_nodes.sum()), nodes_pruned


def _candidates(contact: ContactRate, edge_w, i_min, edge_s) -> np.ndarray:
    """Subtree candidates W + sigma for the parents, inf where the mark
    rejects them."""
    cand = edge_w + i_min
    return np.where(edge_s <= contact(cand), cand, np.inf)


def _first_per_owner(idx: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The first of `idx` (ascending, with nondecreasing owners) per owner."""
    g = owner[idx]
    first = np.ones(idx.size, dtype=bool)
    first[1:] = g[1:] != g[:-1]
    return idx[first]


def _walk(contact: ContactRate, levels: list[_Level]):
    """Follow every finite sample's argmin edges down from its root.

    Yields one (samples, times, ages) triple of arrays per generation: the
    infection time of each sample's next individual up the chain (-Z once it
    is an initially infected individual, which ends that sample's path) and
    the age at which that individual transmitted.  A tie goes to a leaf
    edge, then to the lowest slot, the order of the per-node draws.
    """
    rows = np.flatnonzero(np.isfinite(levels[0].i_min))
    for k, lev in enumerate(levels):
        if rows.size == 0:
            return
        on_path = np.zeros(lev.key.size, dtype=bool)
        on_path[rows] = True
        hit = on_path[lev.leaf_row] & (lev.leaf_val == lev.i_min[lev.leaf_row])
        leaf = _first_per_owner(np.flatnonzero(hit), lev.leaf_row)
        on_path[lev.leaf_row[leaf]] = False
        samples = lev.sample[lev.leaf_row[leaf]]
        times = -lev.leaf_z[leaf]
        ages = lev.leaf_val[leaf] + lev.leaf_z[leaf]
        if k + 1 < len(levels):
            child = levels[k + 1]
            sel = np.flatnonzero(on_path[child.parent_row])
            cand = _candidates(contact, child.edge_w[sel], child.i_min[sel], child.edge_s[sel])
            rows = _first_per_owner(sel[cand == lev.i_min[child.parent_row[sel]]],
                                    child.parent_row)
            samples = np.concatenate((samples, child.sample[rows]))
            times = np.concatenate((times, child.i_min[rows]))
            ages = np.concatenate((ages, child.edge_w[rows]))
        yield samples, times, ages


def _expand_batch(p: TreeParams, n_samples: int, seed: int, want_first_step: bool = False):
    """sigma (and the first backward time) of samples 0..n_samples-1 of the
    seed, censored at `p.horizon`, with the nodes expanded and pruned and the
    deepest level reached."""
    sigma = np.empty(n_samples)
    first = np.full(n_samples, np.nan) if want_first_step else None
    expanded = pruned = max_depth = 0
    for lo in range(0, n_samples, _CHUNK):
        hi = min(lo + _CHUNK, n_samples)
        keys = root_key_vec(seed, np.arange(lo, hi, dtype=np.uint64))
        sigma[lo:hi], levels, chunk_expanded, chunk_pruned = _expand_chunk(p, keys)
        expanded += chunk_expanded
        pruned += chunk_pruned
        max_depth = max(max_depth, len(levels) - 1)
        if want_first_step:
            for samples, times, _ in _walk(p.contact, levels):
                first[lo + samples] = times
                break
        del levels  # free this chunk's forest before expanding the next
    return sigma, first, expanded, pruned, max_depth


# ---------------------------------------------------------------------------
# single samples with the full geodesic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicSample:
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
    nodes_expanded: int
    nodes_pruned: int
    max_depth: int


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
    keys = root_key_vec(seed, np.array([index], dtype=np.uint64))
    sigma, levels, expanded, pruned = _expand_chunk(p, keys)
    max_depth = len(levels) - 1
    if not sigma[0] <= p.horizon:
        return GeodesicSample(math.inf, True, np.zeros(0), None, None,
                              expanded, pruned, max_depth)

    steps = [(times[0], ages[0]) for _, times, ages in _walk(p.contact, levels)]
    path_times = np.array([sigma[0]] + [t for t, _ in steps])

    courses = None
    if p.model is not None:
        rng = make_rng(seed, "geodesic-courses", index)
        focal = p.model.sample_courses(rng, 1)
        palm = p.model.palm_courses(rng, [age for _, age in steps])
        courses = CourseBatch(
            np.concatenate((focal.offsets, focal.offsets[-1] + palm.offsets[1:])),
            np.concatenate((focal.atoms, palm.atoms)),
            np.concatenate((focal.entry_ages, palm.entry_ages)), focal.compartments)

    return GeodesicSample(float(sigma[0]), False, path_times, courses, float(-path_times[-1]),
                          expanded, pruned, max_depth)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualCurve:
    """B estimated on a time grid; `nodes_expanded`/`nodes_pruned` count the
    tree nodes of all samples, expanded up to the largest grid time, and
    `max_depth` is the deepest generation any of them reached."""

    t: np.ndarray
    estimate: np.ndarray
    se: np.ndarray
    n_samples: int
    nodes_expanded: int
    nodes_pruned: int
    max_depth: int


def estimate_B(p: TreeParams, t_grid, n_samples: int, seed: int) -> DualCurve:
    """Monte Carlo cumulative-incidence curve B(t) = (1-I0) P(sigma <= t).

    The trees are censored at max(t_grid), the latest time the curve reads.
    """
    n_samples = check_count("n_samples", n_samples, 1000)  # fewer give no stable curve
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ValueError("curve grid t_grid is empty")
    if not np.all(np.isfinite(t_grid)):
        i = int(np.argmin(np.isfinite(t_grid)))
        raise ValueError(f"curve grid t_grid must be finite, got {t_grid[i]} at index {i}")
    if t_grid.max() > p.horizon:
        raise ValueError("curve grid extends beyond the censoring horizon")
    sigma, _, expanded, pruned, depth = _expand_batch(replace(p, horizon=float(t_grid.max())),
                                                      n_samples, seed)
    frac = (sigma[:, None] <= t_grid[None, :]).mean(axis=0)
    se = p.s0 * np.sqrt(frac * (1.0 - frac) / n_samples)
    return DualCurve(t=t_grid, estimate=p.s0 * frac, se=se, n_samples=n_samples,
                     nodes_expanded=expanded, nodes_pruned=pruned, max_depth=depth)


@dataclass(frozen=True)
class FirstStepSample:
    """First backward times among samples conditioned on sigma in a window;
    `nodes_expanded`/`nodes_pruned` count the tree nodes of all n_samples,
    expanded up to the end of the window, and `max_depth` is the deepest
    generation any of them reached."""

    window: tuple[float, float]
    values: np.ndarray
    sigmas: np.ndarray
    n_samples: int
    nodes_expanded: int
    nodes_pruned: int
    max_depth: int

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
    sigma, first, expanded, pruned, depth = _expand_batch(replace(p, horizon=t + delta),
                                                          n_samples, seed, want_first_step=True)
    sel = (sigma >= t) & (sigma <= t + delta)
    if int(sel.sum()) < 200:
        raise RuntimeError(
            f"only {int(sel.sum())} samples landed in [{t}, {t + delta}]; "
            "increase n_samples")
    return FirstStepSample(window=(t, t + delta), values=first[sel], sigmas=sigma[sel],
                           n_samples=n_samples, nodes_expanded=expanded, nodes_pruned=pruned,
                           max_depth=depth)

