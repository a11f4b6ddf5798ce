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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from .courses import CourseModel, DiseaseCourse, sample_palm_course
from .densities import GridDensity
from .kernels import ContactRate, InitialCondition, IntensityKernel, joint_delay_age_from_uniforms
from .rng import child_key_vec, keyed_u01_vec, make_rng, root_key_vec

_CHUNK = 2048
# per-sample node guard against runaway trees (edges short relative to the
# horizon); at horizon 10 the reference scenario's tree-size tail over 1.5e6
# samples stays below it
NODE_CAP = 150_000


def _poisson_cdf_table(lam: float) -> np.ndarray:
    if lam < 0:
        raise ValueError("Poisson mean must be nonnegative")
    k_max = int(lam + 40.0 * math.sqrt(lam + 1.0) + 40.0)
    return stats.poisson.cdf(np.arange(k_max), lam)


@dataclass(frozen=True)
class TreeParams:
    """Frozen inputs of the dual tree: offspring means, densities, contact rate."""

    kernel: IntensityKernel
    ic: InitialCondition
    contact: ContactRate
    horizon: float
    s0: float
    mean_s_children: float
    mean_i_children: float
    generation: GridDensity
    s_cdf: np.ndarray
    i_cdf: np.ndarray
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
    mean_s = s0 * kernel.r0
    mean_i = ic.i0 * ic.r0_bar
    return TreeParams(
        kernel=kernel, ic=ic, contact=contact, horizon=horizon, s0=s0,
        mean_s_children=mean_s, mean_i_children=mean_i,
        generation=kernel.generation_density(),
        s_cdf=_poisson_cdf_table(mean_s), i_cdf=_poisson_cdf_table(mean_i),
        node_cap=node_cap, model=model,
    )


def _ragged_slots(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for nonnegative integer counts."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


class _Level:
    """One generation of a chunk's forest, one row per node, with the leaf
    edges of its nodes (owning row, value or inf if rejected, initial age)."""

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
    row per sample, and `_walk` recovers argmin paths from the levels.
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
        k_s = np.searchsorted(p.s_cdf, keyed_u01_vec(cur.key, np.uint64(0)), side="right")
        k_i = np.searchsorted(p.i_cdf, keyed_u01_vec(cur.key, np.uint64(1)), side="right")

        # leaf edges to initially infected individuals
        rep = np.repeat(np.arange(cur.key.size, dtype=np.int64), k_i)
        if rep.size:
            slot = _ragged_slots(k_i)
            base = (2 + 2 * k_s[rep] + 3 * slot).astype(np.uint64)
            keys_rep = cur.key[rep]
            u_age = keyed_u01_vec(keys_rep, base)
            u_delay = keyed_u01_vec(keys_rep, base + np.uint64(1))
            marks = keyed_u01_vec(keys_rep, base + np.uint64(2))
            w, z = joint_delay_age_from_uniforms(p.ic, u_age, u_delay)
            ok = (marks <= contact(w)) & (cur.depth_len[rep] + w <= p.horizon)
            nodes_pruned += int(np.count_nonzero(~ok))
            cur.leaf_row, cur.leaf_val, cur.leaf_z = rep, np.where(ok, w, np.inf), z
            np.minimum.at(cur.i_min, rep, cur.leaf_val)

        # subtree children
        rep = np.repeat(np.arange(cur.key.size, dtype=np.int64), k_s)
        if rep.size == 0:
            break
        slot = _ragged_slots(k_s)
        keys_rep = cur.key[rep]
        w = p.generation.ppf_from_uniform(keyed_u01_vec(keys_rep, (2 + 2 * slot).astype(np.uint64)))
        s = keyed_u01_vec(keys_rep, (3 + 2 * slot).astype(np.uint64))
        depth_child = cur.depth_len[rep] + w
        keep = depth_child <= p.horizon
        nodes_pruned += int(np.count_nonzero(~keep))
        cur = _Level(
            key=child_key_vec(keys_rep, slot.astype(np.uint64))[keep],
            sample=cur.sample[rep[keep]],
            depth_len=depth_child[keep],
            parent_row=rep[keep],
            edge_w=w[keep],
            edge_s=s[keep],
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


def _batch_sigma(p: TreeParams, n_samples: int, seed: int, want_first_step: bool = False):
    """sigma (and the first backward time) of samples 0..n_samples-1 of the
    seed, censored at `p.horizon`, with the nodes expanded and pruned."""
    sigma = np.empty(n_samples)
    first = np.full(n_samples, np.nan) if want_first_step else None
    expanded = pruned = 0
    for lo in range(0, n_samples, _CHUNK):
        hi = min(lo + _CHUNK, n_samples)
        keys = root_key_vec(seed, np.arange(lo, hi, dtype=np.uint64))
        sigma[lo:hi], levels, chunk_expanded, chunk_pruned = _expand_chunk(p, keys)
        expanded += chunk_expanded
        pruned += chunk_pruned
        if want_first_step:
            for samples, times, _ in _walk(p.contact, levels):
                first[lo + samples] = times
                break
        del levels  # free this chunk's forest before expanding the next
    return sigma, first, expanded, pruned


# ---------------------------------------------------------------------------
# single samples with the full geodesic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicSample:
    """One sampled infection time with its decorated ancestral path.

    `path_times` runs strictly downward from sigma to -terminal_age; entry i
    is the infection time of the i-th individual along the chain (the focal
    one first).  `path_courses`, when a course model is attached to the
    params, holds the focal individual's ordinary course followed by
    size-biased courses for everyone who transmitted along the path.
    """

    sigma: float
    censored: bool
    path_times: np.ndarray
    path_courses: tuple[DiseaseCourse, ...] | None
    terminal_age: float | None
    nodes_expanded: int
    nodes_pruned: int
    max_depth: int


def sample_geodesic(p: TreeParams, seed: int, index: int = 0,
                    rng: np.random.Generator | None = None) -> GeodesicSample:
    """Sample one tree, returning sigma and the realised ancestral path.

    `index` selects an independent sample within the seed's stream; it lines
    up with position `index` of the batched samplers.  `rng` only feeds the
    course decoration, never the tree itself.
    """
    if index < 0:
        raise ValueError(f"sample index must be nonnegative, got {index}")
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
        if rng is None:
            rng = make_rng(seed, "geodesic-courses", index)
        courses = (p.model.sample_course(rng),) + tuple(
            sample_palm_course(p.model, age, rng) for _, age in steps)

    return GeodesicSample(float(sigma[0]), False, path_times, courses, float(-path_times[-1]),
                          expanded, pruned, max_depth)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualCurve:
    """B estimated on a time grid; `nodes_expanded`/`nodes_pruned` count the
    tree nodes of all samples, expanded up to the largest grid time."""

    t: np.ndarray
    estimate: np.ndarray
    se: np.ndarray
    n_samples: int
    nodes_expanded: int
    nodes_pruned: int


def estimate_B(p: TreeParams, t_grid, n_samples: int, seed: int) -> DualCurve:
    """Monte Carlo cumulative-incidence curve B(t) = (1-I0) P(sigma <= t).

    The trees are censored at max(t_grid), the latest time the curve reads.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for a stable curve")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ValueError("curve grid t_grid is empty")
    if not np.all(np.isfinite(t_grid)):
        i = int(np.argmin(np.isfinite(t_grid)))
        raise ValueError(f"curve grid t_grid must be finite, got {t_grid[i]} at index {i}")
    if t_grid.max() > p.horizon:
        raise ValueError("curve grid extends beyond the censoring horizon")
    sigma, _, expanded, pruned = _batch_sigma(replace(p, horizon=float(t_grid.max())),
                                              n_samples, seed)
    frac = (sigma[:, None] <= t_grid[None, :]).mean(axis=0)
    se = p.s0 * np.sqrt(frac * (1.0 - frac) / n_samples)
    return DualCurve(t=t_grid, estimate=p.s0 * frac, se=se, n_samples=n_samples,
                     nodes_expanded=expanded, nodes_pruned=pruned)


@dataclass(frozen=True)
class FirstStepSample:
    """First backward times among samples conditioned on sigma in a window;
    `nodes_expanded`/`nodes_pruned` count the tree nodes of all n_samples,
    expanded up to the end of the window."""

    window: tuple[float, float]
    values: np.ndarray
    sigmas: np.ndarray
    n_samples: int
    nodes_expanded: int
    nodes_pruned: int

    @property
    def n_conditioned(self) -> int:
        return int(self.values.size)


def conditioned_first_step(p: TreeParams, t: float, delta: float,
                           n_samples: int, seed: int) -> FirstStepSample:
    """Condition on sigma in [t, t+delta] and report each sample's first
    backward time (the infector's infection time, negative if the infector
    was initially infected).  The trees are censored at t + delta."""
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
    sigma, first, expanded, pruned = _batch_sigma(replace(p, horizon=t + delta), n_samples,
                                                  seed, want_first_step=True)
    sel = (sigma >= t) & (sigma <= t + delta)
    if int(sel.sum()) < 200:
        raise RuntimeError(
            f"only {int(sel.sum())} samples landed in [{t}, {t + delta}]; "
            "increase n_samples")
    return FirstStepSample(window=(t, t + delta), values=first[sel], sigmas=sigma[sel],
                           n_samples=n_samples, nodes_expanded=expanded, nodes_pruned=pruned)


def sample_root_decorations(p: TreeParams, n_samples: int, seed: int):
    """Root-level offspring counts and edge decorations, for distributional
    diagnostics: (K_S, K_I, subtree edge lengths, leaf (delay, age) pairs)."""
    keys = root_key_vec(seed, np.arange(n_samples, dtype=np.uint64))
    k_s = np.searchsorted(p.s_cdf, keyed_u01_vec(keys, np.uint64(0)), side="right")
    k_i = np.searchsorted(p.i_cdf, keyed_u01_vec(keys, np.uint64(1)), side="right")
    rep = np.repeat(np.arange(n_samples, dtype=np.int64), k_s)
    slot = _ragged_slots(k_s)
    w = p.generation.ppf_from_uniform(keyed_u01_vec(keys[rep], (2 + 2 * slot).astype(np.uint64)))
    rep_i = np.repeat(np.arange(n_samples, dtype=np.int64), k_i)
    slot_i = _ragged_slots(k_i)
    base = (2 + 2 * k_s[rep_i] + 3 * slot_i).astype(np.uint64)
    wbar, z = joint_delay_age_from_uniforms(
        p.ic, keyed_u01_vec(keys[rep_i], base), keyed_u01_vec(keys[rep_i], base + np.uint64(1)))
    return k_s, k_i, w, wbar, z
