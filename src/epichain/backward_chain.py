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
solver and the tree sampler.  Every sampler is batched: chains advance one
column at a time across all rows, and paths come back as a NaN-padded
`ChainBatch`.  alpha is always the kernel's Malthusian parameter.

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
from dataclasses import dataclass

import numpy as np

from .densities import GridDensity
from .kernels import IntensityKernel, backward_density, malthusian_parameter
from .limit_solver import LimitSolution
from .rng import make_rng

_B_FLOOR = 1e-12
_BLOCK = 100_000
_ENVELOPE_WIDTH = 0.5  # width of the ancestor-time blocks of the b envelope
_MAX_ROUNDS = 1_000    # rejection rounds before a conditioned step is declared stuck


@dataclass(frozen=True)
class ChainBatch:
    """Stacked backward paths; row i holds chain i, NaN past its end."""

    times: np.ndarray      # (n, max_len + 1); column 0 is the start state
    lengths: np.ndarray    # transitions per chain
    proposals: int = 0     # envelope draws behind the transitions (conditioned chains)

    @property
    def first_steps(self) -> np.ndarray:
        return self.times[:, 1]

    @property
    def first_increments(self) -> np.ndarray:
        return self.times[:, 0] - self.times[:, 1]

    @property
    def increments(self) -> np.ndarray:
        """All jumps of all chains, pooled."""
        jumps = self.times[:, :-1] - self.times[:, 1:]
        return jumps[~np.isnan(jumps)]

    @property
    def terminals(self) -> np.ndarray:
        return self.times[np.arange(self.times.shape[0]), self.lengths]


# ---------------------------------------------------------------------------
# renewal chain with killing
# ---------------------------------------------------------------------------


def _renewal_block(t: float, r_density: GridDensity, n: int, k_min: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(n, cols) matrix of renewal states, frozen at the first value <= 0.

    Guarantees at least k_min+1 columns and that every row has crossed zero.
    """
    cols = [np.full(n, float(t))]
    cur = cols[0]
    while (cur > 0).any() or len(cols) <= k_min:
        jump = r_density.ppf_from_uniform(rng.random(n))
        cur = np.where(cur > 0, cur - jump, cur)
        cols.append(cur)
    return np.column_stack(cols)


def sample_renewal_chains(t: float, kernel: IntensityKernel, n_chains: int,
                          seed: int) -> ChainBatch:
    """n independent renewal paths R_0 = t > R_1 > ... > R_L <= 0 with jumps
    from r(a) = e^{-alpha a} tau(a); a start t <= 0 gives L = 0."""
    r_density = backward_density(kernel, malthusian_parameter(kernel).alpha)
    R = _renewal_block(t, r_density, n_chains, 0, make_rng(seed, "renewal", t))
    lengths = np.count_nonzero(R > 0, axis=1)
    past_end = np.arange(R.shape[1])[None, :] > lengths[:, None]
    return ChainBatch(times=np.where(past_end, np.nan, R), lengths=lengths)


def _killing_failures(R: np.ndarray, sol: LimitSolution,
                      rng: np.random.Generator) -> np.ndarray:
    """Cumulative failed-check counts, same shape as R.

    Column k counts failures among the checks at states R_0..R_k; a check at
    a positive state x fails with probability 1 - S(x)c(x), and entries at
    nonpositive states never fail.
    """
    ell = sol.S_at(R) * sol.contact(R)
    fail = (R > 0) & (rng.random(R.shape) > ell)
    return np.cumsum(fail, axis=1)


def _killed_blocks(t: float, sol: LimitSolution, alpha: float, n_samples: int,
                   k_min: int, rng: np.random.Generator):
    """Killed renewal chains from t, in blocks of at most `_BLOCK` rows:
    yields (R, fails) from `_renewal_block` and `_killing_failures`."""
    r_density = backward_density(sol.kernel, alpha)
    for lo in range(0, n_samples, _BLOCK):
        R = _renewal_block(t, r_density, min(_BLOCK, n_samples - lo), k_min, rng)
        yield R, _killing_failures(R, sol, rng)


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
        """Worst |mean - reference| / SE over k >= 1 (M_0 is deterministic,
        so its SE is zero and the ratio is meaningless there)."""
        dev = np.abs(self.mean[1:] - self.reference)
        return float(np.max(dev / np.maximum(self.se[1:], 1e-300)))


def martingale_diagnostic(t: float, sol: LimitSolution, n_samples: int, k_max: int,
                          seed: int) -> MartingaleReport:
    alpha = malthusian_parameter(sol.kernel).alpha
    sums = np.zeros(k_max + 1)
    sq_sums = np.zeros(k_max + 1)
    for R, fails in _killed_blocks(t, sol, alpha, n_samples, k_max,
                                   make_rng(seed, "martingale", t)):
        for k in range(k_max + 1):
            x = R[:, k]
            alive = np.ones(x.size, dtype=bool) if k == 0 else fails[:, k - 1] == 0
            m = np.where(alive, sol.b_at(x) * np.exp(-alpha * x), 0.0)
            sums[k] += m.sum()
            sq_sums[k] += (m * m).sum()
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
    alpha = malthusian_parameter(sol.kernel).alpha
    rate = sol.ic.age_rate
    if rate is None or abs(rate - alpha) > 1e-8 * max(1.0, abs(alpha)):
        raise ValueError("representation requires equilibrium g (exponential with the Malthusian rate)")
    survived = 0
    for _, fails in _killed_blocks(t, sol, alpha, n_samples, 0, make_rng(seed, "survival", t)):
        survived += int((fails[:, -1] == 0).sum())
    p = survived / n_samples
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


def _h_transition(x: np.ndarray, sol: LimitSolution, envelope: tuple[np.ndarray, np.ndarray],
                  rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One conditioned step y = x - v from each positive state x, and the
    number of envelope proposals it took.

    v is drawn exactly from the density proportional to q(v) b(x - v) on
    [0, a_max], q being the cell-constant density of the kernel's trapezoid
    table, by rejection against the blockwise envelope of b: block k is
    proposed with weight bmax_k times the kernel mass of its v-interval
    (x - y_{k+1}, x - y_k], v inside it by inverting the kernel's
    cumulative table, and the proposal is accepted when u bmax_k <= b(x - v).
    Rejected rows redraw in the next round."""
    if x.size == 0:
        return x.copy(), 0
    kern = sol.kernel
    edges, bmax = envelope
    # only blocks meeting [min x - a_max, max x] can carry mass
    lo = max(int(np.searchsorted(edges, x.min() - kern.a_max, side="right")) - 1, 0)
    hi = int(np.searchsorted(edges, x.max(), side="left"))
    edges, bmax = edges[lo:hi + 1], bmax[lo:hi]
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
    proposals = 0
    for _ in range(_MAX_ROUNDS):
        proposals += pending.size
        u = rng.random((3, pending.size))
        # 1 - u lies in (0, 1], so the chosen block always has positive weight
        k = np.count_nonzero(weights[pending] < ((1.0 - u[0]) * total[pending])[:, None], axis=1)
        c_lo = c_edge[pending, k + 1]
        v = kern.inverse_cumulative(c_lo + u[1] * (c_edge[pending, k] - c_lo))
        y = x[pending] - v
        accept = u[2] * bmax[k] <= sol.b_at(y)
        out[pending[accept]] = y[accept]
        pending = pending[~accept]
        if pending.size == 0:
            return out, proposals
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


def _h_paths(starts: np.ndarray, sol: LimitSolution, rng: np.random.Generator,
             max_steps: int = 500) -> ChainBatch:
    envelope = _b_envelope(sol)
    n = starts.size
    columns = [starts.copy()]
    cur = starts.copy()
    active = cur > 0
    steps = 0
    proposals = 0
    while active.any():
        steps += 1
        if steps > max_steps:
            raise RuntimeError(f"conditioned chain exceeded {max_steps} steps")
        nxt = np.full(n, np.nan)
        nxt[active], drawn = _h_transition(cur[active], sol, envelope, rng)
        proposals += drawn
        columns.append(nxt)
        cur = nxt
        active = np.where(np.isnan(cur), False, cur > 0)
    times = np.column_stack(columns)
    lengths = np.sum(~np.isnan(times), axis=1) - 1
    return ChainBatch(times=times, lengths=lengths, proposals=proposals)


def sample_h_chains(t: float, sol: LimitSolution, n_chains: int, seed: int) -> ChainBatch:
    """n independent conditioned paths from calendar time t; a start t <= 0
    gives L = 0.  `proposals` counts the envelope draws of all transitions."""
    starts = _check_starts(np.full(n_chains, float(t)), sol, positive=False)
    return _h_paths(starts, sol, make_rng(seed, "h-chain", t))


def sample_h_first_steps(starts: np.ndarray, sol: LimitSolution, seed: int) -> np.ndarray:
    """One conditioned transition from each (possibly distinct) start state;
    every start must be positive."""
    starts = _check_starts(starts, sol, positive=True)
    values, _ = _h_transition(starts, sol, _b_envelope(sol), make_rng(seed, "h-first"))
    return values


def h_row_sums(sol: LimitSolution, state_indices) -> np.ndarray:
    """Integral of the conditioned kernel Q(x, .) at solver grid states,
    using the solver's own quadrature; equals 1 up to the stored renewal
    residual."""
    from .limit_solver import _force_grid

    t = sol.t
    dt = sol.dt
    tau_vals, forcing = _force_grid(sol.kernel, sol.ic, t)
    c_vals = sol.contact(t)
    out = np.empty(len(state_indices))
    for i, k in enumerate(state_indices):
        k = int(k)
        conv = dt * (float(np.dot(tau_vals[k:0:-1], sol.b[:k])) - 0.5 * tau_vals[k] * sol.b[0]) \
            if k > 0 else 0.0
        a_k = conv + 0.5 * dt * tau_vals[0] * sol.b[k] + forcing[k] if k > 0 else forcing[0]
        out[i] = c_vals[k] * sol.S[k] * a_k / sol.b[k]
    return out


@dataclass(frozen=True)
class ReweightedFirstSteps:
    """Killed-renewal survivors, reweighted to the conditioned-chain law."""

    values: np.ndarray   # first backward state R_1 of each surviving chain
    weights: np.ndarray  # terminal h-value over the starting h-value
    n_samples: int

    @property
    def n_survivors(self) -> int:
        return int(self.values.size)


def reweighted_first_steps(t: float, sol: LimitSolution, n_samples: int,
                           seed: int) -> ReweightedFirstSteps:
    """Sample killed renewal chains; keep survivors with weight
    b(R_L)e^{-alpha R_L} / (b(t)e^{-alpha t}).  Their weighted first-step
    histogram reproduces the conditioned chain's first step."""
    alpha = malthusian_parameter(sol.kernel).alpha
    vals = []
    wts = []
    h_start = float(sol.b_at(t)) * math.exp(-alpha * t)
    for R, fails in _killed_blocks(t, sol, alpha, n_samples, 1, make_rng(seed, "reweighted", t)):
        keep = fails[:, -1] == 0
        term_idx = np.argmax(R <= 0, axis=1)
        term = R[np.arange(R.shape[0]), term_idx]
        vals.append(R[keep, 1])
        wts.append(sol.b_at(term[keep]) * np.exp(-alpha * term[keep]) / h_start)
    return ReweightedFirstSteps(values=np.concatenate(vals), weights=np.concatenate(wts),
                                n_samples=n_samples)
