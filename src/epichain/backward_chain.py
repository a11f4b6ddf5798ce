"""Backward-in-time transmission chains.

Two processes walk from a calendar time t toward (and past) zero:

* the plain renewal chain, with i.i.d. downward jumps from the tilted
  density r(a) = e^{-alpha a} tau(a), optionally killed at every positive
  state x with probability 1 - S(x)c(x);
* the conditioned chain with one-step kernel
  Q(x, y) = S(x) c(x) b(y) tau(x - y) / b(x),  b(-u) := I0 g(u),
  which is the true law of an infected individual's ancestral times.

The two are linked by the harmonic function h(x) = b(x)e^{-alpha x}: the
killed renewal chain reweighted by its terminal h-value is the conditioned
chain, M_k = h(R_{k and L}) 1{not yet killed} is a martingale, and the
survival probability of the killed chain represents b itself when the
initial age density is the equilibrium exponential.  Each of those
statements has a sampler or diagnostic here; together they cross-check the
solver and the tree sampler.  alpha is always the kernel's Malthusian
parameter.

Every chain runs on one batched walk, `_walk`: a chain moves while it is
alive and above 0, and a killed chain stops at its first failed check.
Draws are made only for moving chains, and the walk holds only the current
states, so memory is O(n) for n chains.  Paths come back as a NaN-padded
`ChainBatch`; the diagnostics read the states as the walk goes.

A conditioned step from x draws the jump v = x - y from the density
proportional to q(v) b(x - v) on [0, a_max], where q is tau's cell-constant
density on the kernel's trapezoid table (within O(da^2) of tau).  It is
sampled by rejection against one envelope per call: the ancestor-time axis
[-a_max, T] is cut into blocks of width `_ENVELOPE_WIDTH`, each carrying the
sup of b over it; a block is proposed in proportion to that sup times the
kernel mass it covers, v inside it by inverting the kernel's cumulative
table, and about 1.1 proposals are made per step.  The kernel enters only
through its table, so every kernel takes the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import IntensityKernel, backward_density, malthusian_parameter
from .limit_solver import LimitSolution
from .rng import as_real, check_count, make_rng

_B_FLOOR = 1e-12
_ENVELOPE_WIDTH = 0.5  # width of the ancestor-time blocks of the b envelope
_MAX_ROUNDS = 1_000    # rejection rounds before a conditioned step is declared stuck
_MAX_STEPS = 500       # transitions before a conditioned chain is declared runaway


@dataclass(frozen=True)
class ChainBatch:
    """Stacked backward paths; row i holds chain i, NaN past its end."""

    times: np.ndarray      # (n, max_len + 1); column 0 is the start state
    lengths: np.ndarray    # transitions per chain
    proposals: int = 0     # envelope draws behind the transitions (conditioned chains)

    @property
    def increments(self) -> np.ndarray:
        """All jumps of all chains, pooled."""
        jumps = self.times[:, :-1] - self.times[:, 1:]
        return jumps[~np.isnan(jumps)]

    @property
    def terminals(self) -> np.ndarray:
        return self.times[np.arange(self.times.shape[0]), self.lengths]


def _walk(states, step, rng: np.random.Generator, survival=None):
    """Advance one chain from each start state; yield (x, alive) first for
    the starts and then after each transition, x holding each chain's state
    R_{k and L} and alive whether it has passed every check so far.

    A chain moves while it is alive and above 0.  With `survival`, a moving
    chain at x first passes a check with probability survival(x); a chain
    that fails it dies and stops where it is.  The passers move to step(x).
    Draws are made only for moving chains, and the walk ends once no chain
    moves.  Both arrays are updated in place: copy what must outlive a
    transition."""
    x = np.array(states, dtype=float)
    alive = np.ones(x.size, dtype=bool)
    moving = np.flatnonzero(x > 0)
    yield x, alive
    while moving.size:
        if survival is not None:
            passed = rng.random(moving.size) <= survival(x[moving])
            alive[moving[~passed]] = False
            moving = moving[passed]
        x[moving] = step(x[moving])
        moving = moving[x[moving] > 0]
        yield x, alive


def _paths(walk) -> ChainBatch:
    """The states of a walk without killing as a NaN-padded `ChainBatch`."""
    times = np.column_stack([x.copy() for x, _ in walk])
    lengths = np.count_nonzero(times > 0, axis=1)
    times[np.arange(times.shape[1]) > lengths[:, None]] = np.nan
    return ChainBatch(times=times, lengths=lengths)


# ---------------------------------------------------------------------------
# renewal chain with killing
# ---------------------------------------------------------------------------


def _renewal_step(kernel: IntensityKernel, alpha: float, rng: np.random.Generator):
    """The renewal transition x -> x - a, a drawn from r(a) = e^{-alpha a} tau(a)."""
    r_density = backward_density(kernel, alpha)
    return lambda x: x - r_density.ppf_from_uniform(rng.random(x.size))


def sample_renewal_chains(t: float, kernel: IntensityKernel, n_chains: int,
                          seed: int) -> ChainBatch:
    """n independent renewal paths R_0 = t > R_1 > ... > R_L <= 0 with jumps
    from r(a) = e^{-alpha a} tau(a); a start t <= 0 gives L = 0."""
    n_chains = check_count("n_chains", n_chains, 1)
    t = as_real("chain start", t)
    if not math.isfinite(t):
        raise ValueError(f"chain start {t:g} is not finite")
    rng = make_rng(seed, "renewal", t)
    step = _renewal_step(kernel, malthusian_parameter(kernel).alpha, rng)
    return _paths(_walk(np.full(n_chains, t), step, rng))


def _killed_walk(t: float, sol: LimitSolution, alpha: float, n: int, rng: np.random.Generator):
    """`_walk` of n renewal chains from t, each killed at a positive state x
    with probability 1 - S(x)c(x); t must pass `_check_starts`."""
    starts = _check_starts(np.full(n, t), sol, positive=False)
    return _walk(starts, _renewal_step(sol.kernel, alpha, rng), rng,
                 lambda x: sol.S_at(x) * sol.contact(x))


@dataclass(frozen=True)
class MartingaleReport:
    """Empirical per-step means of M_k = b(R_{k and L}) e^{-alpha R_{k and L}}
    on the not-yet-killed event, against the constant b(t)e^{-alpha t}."""

    t: float
    k: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    reference: float
    n_samples: int

    @property
    def max_deviation_in_se(self) -> float:
        """Worst |mean - reference| / SE over k >= 1.  A step with SE 0 is
        deterministic (so is M_0, which is left out): it counts 0 when its
        mean is the reference up to rounding, and inf otherwise."""
        dev = np.abs(self.mean[1:] - self.reference)
        se = self.se[1:]
        exact = dev <= 1e-12 * abs(self.reference)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(se > 0, dev / se, np.where(exact, 0.0, np.inf))
        return float(np.max(ratio))


def martingale_diagnostic(t: float, sol: LimitSolution, n_samples: int, k_max: int,
                          seed: int) -> MartingaleReport:
    n_samples = check_count("n_samples", n_samples, 1)
    k_max = check_count("k_max", k_max, 1)
    t = as_real("chain start", t)
    alpha = malthusian_parameter(sol.kernel).alpha
    sums = np.zeros(k_max + 1)
    sq_sums = np.zeros(k_max + 1)
    walk = _killed_walk(t, sol, alpha, n_samples, make_rng(seed, "martingale", t))
    x = alive = None
    for k in range(k_max + 1):
        x, alive = next(walk, (x, alive))  # a settled walk keeps its last state
        m = np.where(alive, sol.b_at(x) * np.exp(-alpha * x), 0.0)
        sums[k] = m.sum()
        sq_sums[k] = (m * m).sum()
    mean = sums / n_samples
    var = np.maximum(sq_sums / n_samples - mean ** 2, 0.0)
    se = np.sqrt(var / n_samples)
    reference = float(sol.b_at(t) * math.exp(-alpha * t))
    return MartingaleReport(t=t, k=np.arange(k_max + 1), mean=mean, se=se,
                            reference=reference, n_samples=n_samples)


@dataclass(frozen=True)
class SurvivalReport:
    """Survival probability of the killed renewal chain against b(t).

    The identity reads b(t) = I0 alpha e^{alpha t} P(never killed) when the
    initial age density is g = Exp(alpha).  `unit_estimate` drops the I0
    factor (the convention in which the seed mass is normalized away);
    `discrepancy_ratio` reports how far that unscaled form sits from the
    solver's b, which is the I0 normalization itself.
    """

    t: float
    p_survive: float
    se: float
    b_solver: float
    estimate: float
    band: float
    unit_estimate: float
    discrepancy_ratio: float
    n_samples: int

    @property
    def within_band(self) -> bool:
        return abs(self.b_solver - self.estimate) <= self.band


def survival_representation_check(t: float, sol: LimitSolution, n_samples: int,
                                  seed: int) -> SurvivalReport:
    n_samples = check_count("n_samples", n_samples, 1)
    t = as_real("chain start", t)
    if t <= 0:
        raise ValueError(f"chain start {t:g} is not positive: the survival representation "
                         "is stated for t > 0")
    alpha = malthusian_parameter(sol.kernel).alpha
    rate = sol.ic.age_rate
    if rate is None or abs(rate - alpha) > 1e-8 * max(1.0, abs(alpha)):
        raise ValueError("representation requires equilibrium g (exponential with the Malthusian rate)")
    for _, alive in _killed_walk(t, sol, alpha, n_samples, make_rng(seed, "survival", t)):
        pass
    p = int(alive.sum()) / n_samples
    se_p = math.sqrt(p * (1.0 - p) / n_samples)
    scale = sol.ic.i0 * alpha * math.exp(alpha * t)
    b_sol = float(sol.b_at(t))
    return SurvivalReport(t=t, p_survive=p, se=se_p, b_solver=b_sol,
                          estimate=scale * p, band=3.0 * scale * se_p,
                          unit_estimate=alpha * math.exp(alpha * t) * p,
                          discrepancy_ratio=(alpha * math.exp(alpha * t) * p) / b_sol,
                          n_samples=n_samples)


# ---------------------------------------------------------------------------
# conditioned (h-transformed) chain
# ---------------------------------------------------------------------------


def _b_envelope(sol: LimitSolution) -> tuple[np.ndarray, np.ndarray]:
    """Block edges y_0 < ... < y_K, `_ENVELOPE_WIDTH` apart with 0 among
    them, covering the ancestor-time axis [-a_max, T], and bmax_k >= b on
    each closed block [y_k, y_{k+1}].

    b is linear between solver knots on [0, T], and for y < 0 it is I0 g(-y)
    with g linear between age-density knots or exponential (monotone), so
    its sup over a block is attained at a knot or an edge.  At 0 the
    solver's b(0) and the left limit I0 g(0) differ; both count for the two
    blocks that meet there."""
    w = _ENVELOPE_WIDTH
    edges = w * np.arange(-math.ceil(sol.kernel.a_max / w), math.ceil(sol.t[-1] / w) + 1)
    pts = np.concatenate([edges, sol.t, -sol.ic.age_density.grid])
    vals = sol.b_at(pts)
    pts = np.append(pts, 0.0)
    vals = np.append(vals, sol.ic.i0 * sol.ic.g_pdf(0.0))
    inside = (pts >= edges[0]) & (pts <= edges[-1])
    bmax = np.zeros(edges.size - 1)
    for side in ("left", "right"):  # a point on an edge belongs to both blocks
        k = np.clip(np.searchsorted(edges, pts[inside], side=side) - 1, 0, bmax.size - 1)
        np.maximum.at(bmax, k, vals[inside])
    return edges, bmax


class _HTransition:
    """The conditioned step y = x - v from each positive state x, as a
    `_walk` step: it builds the envelope of b once, counts the envelope
    proposals of all its calls in `proposals`, and declares a chain runaway
    past `_MAX_STEPS` calls.

    v is drawn exactly from the density proportional to q(v) b(x - v) on
    [0, a_max], q being the cell-constant density of the kernel's trapezoid
    table, by rejection against the blockwise envelope of b: block k is
    proposed with weight bmax_k times the kernel mass of its v-interval
    (x - y_{k+1}, x - y_k], v inside it by inverting the kernel's
    cumulative table, and the proposal is accepted when u bmax_k <= b(x - v).
    Rejected rows redraw in the next round."""

    def __init__(self, sol: LimitSolution, rng: np.random.Generator):
        self.sol, self.rng = sol, rng
        self.edges, self.bmax = _b_envelope(sol)
        self.calls = 0
        self.proposals = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        if self.calls > _MAX_STEPS:
            raise RuntimeError(f"conditioned chain exceeded {_MAX_STEPS} steps")
        if x.size == 0:
            return x.copy()
        sol, kern = self.sol, self.sol.kernel
        # only blocks meeting [min x - a_max, max x] can carry mass
        lo = max(int(np.searchsorted(self.edges, x.min() - kern.a_max, side="right")) - 1, 0)
        hi = int(np.searchsorted(self.edges, x.max(), side="left"))
        edges, bmax = self.edges[lo:hi + 1], self.bmax[lo:hi]
        c_edge = kern.cumulative(x[:, None] - edges[None, :])
        weights = np.cumsum((c_edge[:, :-1] - c_edge[:, 1:]) * bmax, axis=1)
        total = weights[:, -1]
        dead = total <= 0.0
        if dead.any():
            bad = float(x[dead][0])
            raise RuntimeError(
                f"conditioned chain stuck at x={bad:g}: integral tau(v) b(x - v) dv vanishes "
                f"although b(x)={float(sol.b_at(bad)):g} > 0, so no ancestor time is assignable")
        out = np.empty_like(x)
        pending = np.arange(x.size)
        for _ in range(_MAX_ROUNDS):
            self.proposals += pending.size
            u = self.rng.random((3, pending.size))
            # 1 - u lies in (0, 1], so the chosen block always has positive weight
            k = np.count_nonzero(weights[pending] < ((1.0 - u[0]) * total[pending])[:, None],
                                 axis=1)
            c_lo = c_edge[pending, k + 1]
            v = kern.inverse_cumulative(c_lo + u[1] * (c_edge[pending, k] - c_lo))
            y = x[pending] - v
            accept = u[2] * bmax[k] <= sol.b_at(y)
            out[pending[accept]] = y[accept]
            pending = pending[~accept]
            if pending.size == 0:
                return out
        raise RuntimeError(
            f"conditioned chain step from x={float(x[pending[0]]):g} rejected {_MAX_ROUNDS} "
            "envelope proposals in a row: the envelope of b is far above b there")


def _check_starts(starts, sol: LimitSolution, positive: bool) -> np.ndarray:
    """The start states as a float array.  A ValueError names the first
    start that is not finite, lies past the solver horizon, has b below
    `_B_FLOOR`, or, when `positive`, is not above 0."""
    starts = np.asarray(starts, dtype=float)
    horizon = float(sol.t[-1])
    checks = [(~np.isfinite(starts), "is not finite"),
              (starts > horizon, f"lies past the solver horizon T={horizon:g}, where b is not solved")]
    if positive:
        checks.append((starts <= 0, "is not positive: a chain ends at its first state <= 0, "
                                    "so no step follows it"))
    checks.append((sol.b_at(starts) < _B_FLOOR,
                   f"has incidence b below {_B_FLOOR:g}, so no chain is defined there"))
    for bad, why in checks:
        if bad.any():
            raise ValueError(f"chain start {float(starts[bad][0]):g} {why}")
    return starts


def sample_h_chains(t: float, sol: LimitSolution, n_chains: int, seed: int) -> ChainBatch:
    """n independent conditioned paths from calendar time t; a start t <= 0
    gives L = 0.  `proposals` counts the envelope draws of all transitions."""
    n_chains = check_count("n_chains", n_chains, 1)
    t = as_real("chain start", t)
    starts = _check_starts(np.full(n_chains, t), sol, positive=False)
    rng = make_rng(seed, "h-chain", t)
    step = _HTransition(sol, rng)
    return replace(_paths(_walk(starts, step, rng)), proposals=step.proposals)


def sample_h_first_steps(starts: np.ndarray, sol: LimitSolution, seed: int) -> np.ndarray:
    """One conditioned transition from each (possibly distinct) start state;
    every start must be positive."""
    starts = _check_starts(starts, sol, positive=True)
    return _HTransition(sol, make_rng(seed, "h-first"))(starts)


@dataclass(frozen=True)
class ReweightedFirstSteps:
    """Killed-renewal survivors, reweighted to the conditioned-chain law."""

    values: np.ndarray   # first backward state R_1 of each surviving chain
    weights: np.ndarray  # terminal h-value over the starting h-value
    n_samples: int


def reweighted_first_steps(t: float, sol: LimitSolution, n_samples: int,
                           seed: int) -> ReweightedFirstSteps:
    """Sample killed renewal chains; keep survivors with weight
    b(R_L)e^{-alpha R_L} / (b(t)e^{-alpha t}).  Their weighted first-step
    histogram reproduces the conditioned chain's first step.

    This is the paper's claim that the killed renewal chain reweighted by
    its terminal h-value is the Doob h-transformed chain.  No acceptance
    criterion covers it (criteria 8 and 9 check the martingale and the
    survival probability, not the reweighted law); the unit tests compare
    the weighted histogram with `sample_h_first_steps`."""
    n_samples = check_count("n_samples", n_samples, 1)
    t = as_real("chain start", t)
    alpha = malthusian_parameter(sol.kernel).alpha
    h_start = float(sol.b_at(t)) * math.exp(-alpha * t)
    walk = _killed_walk(t, sol, alpha, n_samples, make_rng(seed, "reweighted", t))
    x, alive = next(walk)
    first = next(walk, (x, alive))[0].copy()  # R_1; a start t <= 0 is its own R_1
    for x, alive in walk:
        pass
    weights = sol.b_at(x[alive]) * np.exp(-alpha * x[alive]) / h_start
    return ReweightedFirstSteps(values=first[alive], weights=weights,
                                n_samples=n_samples)
