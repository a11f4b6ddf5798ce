"""The acceptance suite: twelve numbered checks tying the layers together.

Reference scenario throughout: MarkovSIR(beta=1.5, gamma=1), so
tau(a) = 1.5 e^{-a}, R0 = 1.5, alpha = 1/2; initial ages g = Exp(1/2);
I0 = 0.01; c == 1; T = 25.  Criterion 12 swaps in a piecewise-constant
contact rate.  Each criterion reports one or more ComparisonReports plus a
runtime, and the suite is deterministic: every random input derives from one
master seed.

Monte Carlo criteria compare against the solver at a grid step fine enough
that the quadrature bias sits well inside the statistical band (dt = 0.002
for the chain criteria, dt = 0.005 elsewhere; criterion 1 runs at dt = 1e-3
as specified).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .analysis import (
    ComparisonReport, histogram_from_density, histogram_from_samples, l1_histogram_distance,
)
from .backward_chain import (
    martingale_diagnostic, sample_h_chains, sample_h_first_steps, survival_representation_check,
)
from .courses import MarkovSIR
from .densities import cumulative_trapezoid
from .forward_sim import compartment_fraction, simulate
from .infection_graph import brute_force_infection_times
from .kernels import (
    ContactRate, ExponentialKernel, backward_density, initial_condition, malthusian_parameter,
)
from .limit_solver import (
    compartment_curve, final_size, final_size_settled_contact, picard_delay, solve_delay,
)
from .poisson_tree import conditioned_first_step, estimate_B, tree_params
from .rng import derive_seed, make_rng

MASTER_SEED = 20_240_901

STEP_CONTACT = dict(knots=(0.0, 4.0, 8.0), levels=(1.0, 0.3, 0.8), kind="step")


@dataclass(frozen=True)
class CriterionResult:
    criterion: int
    name: str
    checks: tuple[ComparisonReport, ...]
    runtime_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def _worst(self) -> ComparisonReport:
        def ratio(c: ComparisonReport) -> float:
            if c.threshold > 0:
                return c.value / c.threshold
            # exactness checks: any excess is a hard failure
            return math.inf if c.value > c.threshold else -math.inf
        return max(self.checks, key=ratio)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = self._worst
        return (f"[{status}] criterion {self.criterion:2d} ({self.name}): "
                f"worst {worst.name} = {worst.value:.4g} (threshold {worst.threshold:.4g}), "
                f"{self.runtime_s:.1f}s")


class SharedReferences:
    """Lazily built objects reused across criteria (solver runs dominate)."""

    def __init__(self) -> None:
        self._cache: dict[str, object] = {}

    def _get(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def model(self) -> MarkovSIR:
        return self._get("model", lambda: MarkovSIR(1.5, 1.0, step=0.005, a_max=40.0))

    @property
    def kernel(self):
        return self.model.kernel

    @property
    def ic(self):
        return self._get("ic", lambda: initial_condition(self.kernel, 0.01, age_rate=0.5))

    @property
    def contact(self) -> ContactRate:
        return self._get("contact", lambda: ContactRate.constant(1.0))

    @property
    def step_contact(self) -> ContactRate:
        return self._get("step_contact", lambda: ContactRate(**STEP_CONTACT))

    @property
    def alpha(self) -> float:
        return self._get("alpha", lambda: malthusian_parameter(self.kernel).alpha)

    @property
    def sol(self):
        """General-purpose reference solution, dt = 0.005."""
        return self._get("sol", lambda: solve_delay(
            self.kernel, self.contact, self.ic, 25.0, 0.005))

    @property
    def sol_millistep(self):
        """Criterion 1/2 solution at dt = 1e-3."""
        return self._get("sol_millistep", lambda: solve_delay(
            self.kernel, self.contact, self.ic, 25.0, 1e-3))

    @property
    def sol_fine(self):
        """Chain-criteria solution: dt = 0.002 keeps quadrature bias well
        inside the 3-SE bands at 1e6 samples."""
        def build():
            kern = ExponentialKernel(1.5, 1.0, step=0.002, a_max=40.0)
            ic = initial_condition(kern, 0.01, age_rate=0.5)
            return solve_delay(kern, self.contact, ic, 25.0, 0.002)
        return self._get("sol_fine", build)

    @property
    def sol_step80(self):
        """Step-contact run extended to T = 80: the suppressed second wave
        settles late, and the final-size comparison needs b(T) ~ 0."""
        return self._get("sol_step80", lambda: solve_delay(
            self.kernel, self.step_contact, self.ic, 80.0, 0.005))


def _sim_solve_deviation(shared: SharedReferences, contact: ContactRate, sol, horizon: float,
                         n: int, replicas: int, tag: str, n_times: int = 64,
                         window: tuple[float, float] | None = None):
    """Replica sup-deviations of the I fraction from the limit curve, final
    infected fractions, and (optionally) first backward increments in a
    sigma-window, in one pass over the replicas."""
    times = np.linspace(0.0, horizon, n_times)
    limit = np.interp(times, sol.t, compartment_curve(sol, shared.model, "I"))
    devs, finals, increments = [], [], []
    for r in range(replicas):
        out = simulate(shared.model, n, contact, shared.ic, horizon,
                       seed=derive_seed(MASTER_SEED, tag, r))
        frac = compartment_fraction(out, "I", times)
        devs.append(float(np.max(np.abs(frac - limit))))
        finals.append(float(out.infected_fraction(horizon)))
        if window is not None:
            sel = np.flatnonzero(
                np.isfinite(out.sigma) & (out.sigma >= window[0])
                & (out.sigma <= window[1]) & (out.infector >= 0))
            increments.append(out.sigma[sel] - out.sigma[out.infector[sel]])
    inc = np.concatenate(increments) if window is not None else None
    return np.asarray(devs), np.asarray(finals), inc


def _b_weighted_starts(sol, lo: float, hi: float, n: int, seed: int) -> np.ndarray:
    """Starting times drawn with density proportional to the incidence b
    restricted to [lo, hi] (the weight of a chain read off at that time)."""
    i0 = int(round(lo / sol.dt))
    i1 = int(round(hi / sol.dt))
    grid = sol.t[i0:i1 + 1]
    cum = cumulative_trapezoid(grid, sol.b[i0:i1 + 1])
    cum = cum / cum[-1]
    u = make_rng(seed, "window-starts").random(n)
    return np.interp(u, cum, grid)


def criterion_1(shared: SharedReferences) -> CriterionResult:
    """Exponential tau reduces the limit system to the classical SIR ODE;
    S(t) from the marching solver must match the ODE to 1e-3 at dt = 1e-3."""
    t0 = time.time()
    solve_start = time.time()
    sol = shared.sol_millistep
    solve_time = time.time() - solve_start
    ic = sol.ic
    kern = sol.kernel
    j0 = ic.i0 * float(ic.tau_bar.value(0.0)) / kern.beta

    def rhs(_t, y):
        s, j = y
        return [-kern.beta * s * j, kern.beta * s * j - kern.gamma * j]

    ode = solve_ivp(rhs, (0.0, float(sol.t[-1])), [sol.s0, j0],
                    rtol=1e-11, atol=1e-13, dense_output=True)
    sup = float(np.max(np.abs(sol.S - ode.sol(sol.t)[0])))
    checks = (
        ComparisonReport(name="sup |S - S_ode|", value=sup, threshold=1e-3,
                         n_samples=sol.t.size),
        ComparisonReport(name="solver runtime (s)", value=solve_time, threshold=10.0),
    )
    return CriterionResult(1, "solver matches SIR ODE", checks, time.time() - t0)


def criterion_2(shared: SharedReferences) -> CriterionResult:
    """Marching and Picard solve the same grid equations; their fixed points
    must agree far below discretization error."""
    t0 = time.time()
    march = shared.sol_millistep
    pic = picard_delay(march.kernel, march.contact, march.ic, 25.0, 1e-3).solution
    sup = float(np.max(np.abs(march.b - pic.b)))
    checks = (ComparisonReport(name="sup |b_marching - b_picard|", value=sup,
                               threshold=1e-6, n_samples=march.t.size),)
    return CriterionResult(2, "marching agrees with Picard", checks, time.time() - t0)


def criterion_3(shared: SharedReferences) -> CriterionResult:
    """Functional LLN: the I-compartment fraction of N = 5e4 runs stays
    within 0.02 of the limit curve in at least 18 of 20 replicas."""
    t0 = time.time()
    devs, finals, _ = _sim_solve_deviation(
        shared, shared.contact, shared.sol, 25.0, 50_000, 20, "c3")
    shared._cache["c3_finals"] = finals
    failures = int(np.sum(devs > 0.02))
    runtime = time.time() - t0
    checks = (
        ComparisonReport(name="replicas exceeding 0.02 sup-deviation", value=float(failures),
                         threshold=2.0, n_samples=20,
                         detail=f"max deviation {devs.max():.4f}, median {np.median(devs):.4f}"),
        ComparisonReport(name="runtime (s)", value=runtime, threshold=120.0),
    )
    return CriterionResult(3, "LLN at N=50000", checks, runtime)


def _tree_nodes(result) -> str:
    """The work counts of an `estimate_B` or `conditioned_first_step` run."""
    return (f"{result.n_samples} trees: nodes expanded {result.nodes_expanded}, "
            f"pruned {result.nodes_pruned}")


def criterion_4(shared: SharedReferences) -> CriterionResult:
    """The dual tree's censored-root law reproduces cumulative incidence:
    B_hat(t) within 3 SE of the solver's B at t in {2, 5, 10}."""
    t0 = time.time()
    params = tree_params(shared.kernel, shared.ic, shared.contact, horizon=10.0)
    grid = np.array([2.0, 5.0, 10.0])
    curve = estimate_B(params, grid, 100_000, seed=derive_seed(MASTER_SEED, "c4"))
    b_sol = np.interp(grid, shared.sol.t, shared.sol.B)
    runtime = time.time() - t0
    checks = tuple(
        ComparisonReport(name=f"|B_hat - B| at t={t:g}", value=float(abs(curve.estimate[i] - b_sol[i])),
                         threshold=float(3.0 * curve.se[i]), se=float(curve.se[i]),
                         n_samples=curve.n_samples)
        for i, t in enumerate(grid)
    ) + (ComparisonReport(name="runtime (s)", value=runtime, threshold=60.0,
                          detail=_tree_nodes(curve)),)
    return CriterionResult(4, "tree dual estimates B", checks, runtime)


def criterion_5(shared: SharedReferences) -> CriterionResult:
    """Final size: simulated final infected fraction and solver B(T) + I0
    both land on the scalar fixed point."""
    t0 = time.time()
    if "c3_finals" not in shared._cache:
        criterion_3(shared)
    finals = shared._cache["c3_finals"]
    fp = final_size(shared.ic.r0_bar, shared.kernel.r0, shared.ic.i0, 1.0)
    mean = float(np.mean(finals))
    se = float(np.std(finals, ddof=1) / math.sqrt(finals.size))
    # dt = 1e-3 run (cached from criteria 1/2); the ~8.6e-4 gap that remains
    # is the epidemic's unsettled tail beyond T = 25, not quadrature error
    solver_total = float(shared.sol_millistep.B[-1]) + shared.ic.i0
    checks = (
        ComparisonReport(name="|mean final fraction - fixed point|", value=abs(mean - fp),
                         threshold=3.0 * se, se=se, n_samples=finals.size,
                         detail=f"fixed point {fp:.5f}, simulated {mean:.5f}"),
        ComparisonReport(name="|B(25)+I0 - fixed point|", value=abs(solver_total - fp),
                         threshold=1e-3),
    )
    return CriterionResult(5, "final-size fixed point", checks, time.time() - t0)


def criterion_6(shared: SharedReferences) -> CriterionResult:
    """Small populations, exact law: event-driven infection times equal
    brute-force evaluation of the geodesic recursion on the decorated graph,
    bit for bit, on 100 seeded instances."""
    t0 = time.time()
    mismatched = 0
    total = 0
    for i in range(100):
        n = 2 + (i % 11)
        out = simulate(shared.model, n, shared.contact, shared.ic, horizon=8.0,
                       seed=derive_seed(MASTER_SEED, "c6", i), record_graph=True)
        oracle = brute_force_infection_times(out.graph, shared.contact)
        total += n
        if not np.array_equal(out.sigma, oracle):
            mismatched += 1
    checks = (ComparisonReport(name="instances with any sigma mismatch", value=float(mismatched),
                               threshold=0.0, n_samples=total),)
    return CriterionResult(6, "geodesic recursion exactness", checks, time.time() - t0)


def criterion_7(shared: SharedReferences) -> CriterionResult:
    """Conditioned on infection near t = 5, the infector's infection time
    drawn from the tree matches the spinal density, and the h-chain's first
    transition reproduces the same histogram."""
    t0 = time.time()
    sol = shared.sol
    t_lo, delta = 5.0, 0.25
    params = tree_params(shared.kernel, shared.ic, shared.contact, horizon=10.0)
    sample = conditioned_first_step(params, t_lo, delta, 1_500_000,
                                    seed=derive_seed(MASTER_SEED, "c7"))

    # window-averaged spinal density, weighted by incidence across the window
    i0 = int(round(t_lo / sol.dt))
    i1 = int(round((t_lo + delta) / sol.dt))
    tw = sol.t[i0:i1 + 1]
    wts = np.full(tw.size, sol.dt)
    wts[0] = wts[-1] = 0.5 * sol.dt
    coef = wts * sol.contact(tw) * sol.S[i0:i1 + 1]
    denom = float(np.sum(wts * sol.b[i0:i1 + 1]))

    def spinal(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        tau_mat = shared.kernel.value(tw[None, :] - x[:, None])
        return sol.b_at(x) * (tau_mat @ coef) / denom

    edges = np.linspace(-8.0, t_lo + delta, 65)
    tree_hist = histogram_from_samples(sample.values, edges)
    oracle_hist = histogram_from_density(spinal, edges)
    l1_tree = l1_histogram_distance(tree_hist, oracle_hist)

    starts = _b_weighted_starts(sol, t_lo, t_lo + delta, sample.n_conditioned,
                                seed=derive_seed(MASTER_SEED, "c7-starts"))
    h_vals = sample_h_first_steps(starts, sol, seed=derive_seed(MASTER_SEED, "c7-h"))
    h_hist = histogram_from_samples(h_vals, edges)
    l1_h = l1_histogram_distance(tree_hist, h_hist)

    checks = (
        ComparisonReport(name="conditioned-sample deficit below 1e4",
                         value=max(0.0, 1e4 - sample.n_conditioned), threshold=0.0,
                         n_samples=sample.n_conditioned,
                         detail=_tree_nodes(sample)),
        ComparisonReport(name="L1(tree, spinal density)", value=l1_tree, threshold=0.05,
                         n_samples=sample.n_conditioned),
        ComparisonReport(name="L1(tree, h-chain)", value=l1_h, threshold=0.05,
                         n_samples=sample.n_conditioned),
    )
    return CriterionResult(7, "spinal first-step law", checks, time.time() - t0)


def criterion_8(shared: SharedReferences) -> CriterionResult:
    """h(R_{k and L}) on the not-yet-killed event is a martingale: per-step
    means over 1e6 killed-renewal chains stay within 3 SE of b(t)e^{-at}."""
    t0 = time.time()
    rep = martingale_diagnostic(5.0, shared.sol_fine, 1_000_000, k_max=10,
                                seed=derive_seed(MASTER_SEED, "c8"))
    checks = [
        ComparisonReport(name="|mean M_0 - reference| (deterministic)",
                         value=float(abs(rep.mean[0] - rep.reference)), threshold=1e-12,
                         n_samples=rep.n_samples),
    ]
    for k in range(1, 11):
        checks.append(ComparisonReport(
            name=f"|mean M_{k} - reference|", value=float(abs(rep.mean[k] - rep.reference)),
            threshold=float(3.0 * rep.se[k]), se=float(rep.se[k]), n_samples=rep.n_samples))
    return CriterionResult(8, "killed-chain martingale", tuple(checks), time.time() - t0)


def criterion_9(shared: SharedReferences) -> CriterionResult:
    """Survival representation b(t) = I0 a e^{at} P(never killed) for the
    equilibrium age density, with the unit-normalized discrepancy reported."""
    t0 = time.time()
    checks = []
    for t in (2.0, 5.0, 8.0):
        rep = survival_representation_check(t, shared.sol_fine, 1_000_000,
                                            seed=derive_seed(MASTER_SEED, "c9", t))
        checks.append(ComparisonReport(
            name=f"|b - I0 a e^(at) P_hat| at t={t:g}",
            value=abs(rep.b_solver - rep.estimate), threshold=rep.band,
            se=rep.se, n_samples=rep.n_samples,
            detail=(f"unit-normalized estimate {rep.unit_estimate:.4f} exceeds b "
                    f"by factor {rep.discrepancy_ratio:.1f} (the 1/I0 normalization)")))
    return CriterionResult(9, "survival representation", tuple(checks), time.time() - t0)


def criterion_10(shared: SharedReferences) -> CriterionResult:
    """Near-linear regime: conditioned-chain increments are exactly backward
    generation times, density e^{-au} tau(u)."""
    t0 = time.time()
    kern = shared.kernel
    ic_small = initial_condition(kern, 1e-3, age_rate=0.5)
    sol_small = solve_delay(kern, shared.contact, ic_small, 3.0, 0.005)
    batch = sample_h_chains(3.0, sol_small, 15_000, seed=derive_seed(MASTER_SEED, "c10"))
    inc = batch.increments
    r_density = backward_density(kern, shared.alpha)
    edges = np.linspace(0.0, 8.0, 65)
    emp = histogram_from_samples(inc, edges)
    exact = histogram_from_density(r_density.pdf, edges)
    l1 = l1_histogram_distance(emp, exact)
    transitions = int(batch.lengths.sum())
    checks = (ComparisonReport(name="L1(increments, e^(-au) tau(u))", value=l1,
                               threshold=0.05, n_samples=int(inc.size),
                               detail=(f"{transitions} transitions: "
                                       f"{batch.proposals / transitions:.4f} envelope "
                                       "proposals per transition")),)
    return CriterionResult(10, "backward generation times", checks, time.time() - t0)


def criterion_11(shared: SharedReferences) -> CriterionResult:
    """Historical process: first backward increments of simulated chains
    infected during a time window match the conditioned chain's law."""
    t0 = time.time()
    lo, hi = 4.0, 6.0
    _, _, inc_sim = _sim_solve_deviation(
        shared, shared.contact, shared.sol, hi + 0.5, 50_000, 12, "c11",
        window=(lo, hi))
    starts = _b_weighted_starts(shared.sol, lo, hi, inc_sim.size,
                                seed=derive_seed(MASTER_SEED, "c11-starts"))
    nxt = sample_h_first_steps(starts, shared.sol, seed=derive_seed(MASTER_SEED, "c11-h"))
    inc_h = starts - nxt
    edges = np.linspace(0.0, 10.0, 49)
    l1 = l1_histogram_distance(histogram_from_samples(inc_sim, edges),
                               histogram_from_samples(inc_h, edges))
    checks = (ComparisonReport(name="L1(sim increments, h-chain increments)", value=l1,
                               threshold=0.05, n_samples=int(inc_sim.size),
                               detail=f"window [{lo:g}, {hi:g}], {inc_sim.size} sim chains"),)
    return CriterionResult(11, "historical first increments", checks, time.time() - t0)


def criterion_12(shared: SharedReferences) -> CriterionResult:
    """Criteria 3-5 under the intervention contact rate c = 1 / 0.3 / 0.8.

    The suppressed second wave settles long after t = 25, so the run extends
    to T = 80 where b(T) is negligible; the fixed-point value itself is
    horizon-independent (the solved history enters only through [0, 8])."""
    t0 = time.time()
    sol = shared.sol_step80
    sim_start = time.time()
    devs, finals, _ = _sim_solve_deviation(
        shared, shared.step_contact, sol, 80.0, 50_000, 20, "c12")
    sim_runtime = time.time() - sim_start
    failures = int(np.sum(devs > 0.02))

    tree_start = time.time()
    params = tree_params(shared.kernel, shared.ic, shared.step_contact, horizon=10.0)
    grid = np.array([2.0, 5.0, 10.0])
    curve = estimate_B(params, grid, 100_000, seed=derive_seed(MASTER_SEED, "c12-tree"))
    tree_runtime = time.time() - tree_start
    b_sol = np.interp(grid, sol.t, sol.B)

    fp = final_size_settled_contact(sol)
    mean = float(np.mean(finals))
    se = float(np.std(finals, ddof=1) / math.sqrt(finals.size))
    solver_total = float(sol.B[-1]) + shared.ic.i0

    checks = (
        ComparisonReport(name="replicas exceeding 0.02 sup-deviation", value=float(failures),
                         threshold=2.0, n_samples=20,
                         detail=f"max deviation {devs.max():.4f}"),
        ComparisonReport(name="simulation runtime (s)", value=sim_runtime, threshold=120.0),
    ) + tuple(
        ComparisonReport(name=f"|B_hat - B| at t={t:g}", value=float(abs(curve.estimate[i] - b_sol[i])),
                         threshold=float(3.0 * curve.se[i]), se=float(curve.se[i]),
                         n_samples=curve.n_samples)
        for i, t in enumerate(grid)
    ) + (
        ComparisonReport(name="tree runtime (s)", value=tree_runtime, threshold=60.0,
                         detail=_tree_nodes(curve)),
        ComparisonReport(name="|mean final fraction - fixed point|", value=abs(mean - fp),
                         threshold=3.0 * se, se=se, n_samples=finals.size,
                         detail=f"fixed point {fp:.5f}, simulated {mean:.5f}"),
        ComparisonReport(name="|B(80)+I0 - fixed point|", value=abs(solver_total - fp),
                         threshold=1e-3),
    )
    return CriterionResult(12, "intervention contact rate", checks, time.time() - t0)


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11, 12: criterion_12,
}


def run_all(criteria: list[int] | None = None,
            shared: SharedReferences | None = None) -> list[CriterionResult]:
    """Run the selected criteria (all twelve by default) in order."""
    wanted = sorted(_CRITERIA) if criteria is None else list(criteria)
    unknown = [k for k in wanted if k not in _CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}")
    if shared is None:
        shared = SharedReferences()
    return [_CRITERIA[k](shared) for k in wanted]
