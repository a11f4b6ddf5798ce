"""The acceptance suite: twelve numbered checks tying the layers together.

Every reference is built from `reference_scenario()`: MarkovSIR(beta=1.5,
gamma=1), so tau(a) = 1.5 e^{-a}, R0 = 1.5, alpha = 1/2; initial ages
g = Exp(1/2); I0 = 0.01; c == 1; T = 25; dt = 0.005.  Its variants replace
dt = 1e-3 for criteria 1, 2 and 5, age_step = dt = 0.002 for the chain
criteria 8 and 9 (a grid fine enough that the quadrature bias sits well
inside their statistical bands), i0 = 1e-3 and T = 3 for criterion 10's
near-linear regime, and criterion 12's piecewise-constant contact rate at
T = 80.  `SharedReferences` holds the five scenarios, each of which builds
its model, contact rate, initial condition and solution once.  Each
criterion returns its name and one or more ComparisonReports, `run_all`
times it, and the suite is deterministic: every random input derives from
the master seed of the scenario it runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .analysis import (
    ComparisonReport, histogram_from_density, histogram_from_samples, l1_histogram_distance,
)
from .backward_chain import (
    martingale_diagnostic, sample_h_chains, sample_h_first_steps, survival_representation_check,
)
from .config import ScenarioConfig, reference_scenario
from .densities import cumulative_trapezoid
from .forward_sim import WORK as _SIM_WORK, compartment_fraction, simulate
from .infection_graph import brute_force_infection_times
from .kernels import backward_density, malthusian_parameter
from .limit_solver import compartment_curve, final_size_settled_contact, picard_delay
from .poisson_tree import TreeWork, conditioned_first_step, estimate_B, tree_params
from .rng import derive_seed, make_rng

MASTER_SEED = reference_scenario().seed  # the default; each criterion reads its scenario's

_SIM_TIMES = 64  # grid points of the simulated-vs-limit I-fraction comparison
_SIM_N = 50_000  # population of every simulated replica the limit is compared with
_TREE_WORK = ("n_samples", *(f.name for f in fields(TreeWork)))  # of a tree result

Outcome = tuple[str, tuple[ComparisonReport, ...]]  # a criterion's name and checks


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
    """The scenario variants the criteria share, each of which builds its
    parts (course model, contact rate, initial condition, solution) once, on
    first use, and criterion 3's replicas.  Every variant is the reference
    scenario with a few fields replaced, so each keeps its master seed."""

    def __init__(self):
        self.scenario = reference_scenario()
        # criteria 1, 2 and 5
        self.millistep = replace(self.scenario, dt=1e-3)
        # criteria 8 and 9: dt = 0.002 keeps quadrature bias well inside the
        # 3-SE bands at 1e6 samples
        self.fine = replace(self.scenario, age_step=0.002, dt=0.002)
        # criterion 10's near-linear regime
        self.small = replace(self.scenario, i0=1e-3, horizon=3.0)
        # criterion 12's intervention c = 1 / 0.3 / 0.8: the suppressed second
        # wave settles late, and the final-size comparison needs b(T) ~ 0
        self.step80 = replace(
            self.scenario, horizon=80.0,
            contact={"kind": "step", "knots": [0.0, 4.0, 8.0], "levels": [1.0, 0.3, 0.8]})

    @cached_property
    def unit_contact_replicas(self):
        """Criterion 3's 20 replicas at N = 5e4 under the unit contact rate, as
        `_sim_solve_deviation` returns them; criterion 5 reads their finals."""
        return _sim_solve_deviation(self.scenario, self.scenario.horizon, 20, "c3")


def _sim_solve_deviation(scenario: ScenarioConfig, horizon: float, replicas: int, tag: str,
                         window: tuple[float, float] | None = None):
    """Replica sup-deviations of the I fraction from `scenario`'s limit curve,
    final infected fractions, (optionally) first backward increments in a
    sigma-window, and the simulator's work (`_SIM_WORK` summed, the most rounds
    of one replica), in one pass over the replicas, each run to `horizon`."""
    model, sol = scenario.model, scenario.solution
    times = np.linspace(0.0, horizon, _SIM_TIMES)
    limit = np.interp(times, sol.t, compartment_curve(sol, model, "I"))
    devs, finals, increments, counts = [], [], [], []
    for r in range(replicas):
        out = simulate(model, _SIM_N, scenario.contact_rate, scenario.ic, horizon,
                       seed=derive_seed(scenario.seed, tag, r))
        counts.append([getattr(out, k) for k in _SIM_WORK])
        frac = compartment_fraction(out, "I", times)
        devs.append(float(np.max(np.abs(frac - limit))))
        finals.append(float(out.infected_fraction(horizon)))
        if window is not None:
            sel = np.flatnonzero(
                np.isfinite(out.sigma) & (out.sigma >= window[0])
                & (out.sigma <= window[1]) & (out.infector >= 0))
            increments.append(out.sigma[sel] - out.sigma[out.infector[sel]])
    inc = np.concatenate(increments) if window is not None else None
    counts = np.array(counts)
    work = {"replicas": replicas, **dict(zip(_SIM_WORK, counts.sum(axis=0))),
            "max_rounds": counts[:, _SIM_WORK.index("rounds")].max()}
    return np.asarray(devs), np.asarray(finals), inc, work


def _window(sol, lo: float, hi: float) -> slice:
    """The points of `sol`'s grid in [lo, hi], as a slice of its arrays."""
    return slice(int(round(lo / sol.dt)), int(round(hi / sol.dt)) + 1)


def _b_weighted_starts(sol, lo: float, hi: float, n: int, seed: int) -> np.ndarray:
    """Starting times drawn with density proportional to the incidence b
    restricted to [lo, hi] (the weight of a chain read off at that time)."""
    window = _window(sol, lo, hi)
    grid = sol.t[window]
    cum = cumulative_trapezoid(grid, sol.b[window])
    cum = cum / cum[-1]
    u = make_rng(seed, "window-starts").random(n)
    return np.interp(u, cum, grid)


def criterion_1(shared: SharedReferences) -> Outcome:
    """Exponential tau reduces the limit system to the classical SIR ODE;
    S(t) from the marching solver must match the ODE to 1e-3 at dt = 1e-3."""
    from scipy.integrate import solve_ivp  # here, so that `import epichain` does not load scipy

    solve_start = time.perf_counter()
    sol = shared.millistep.solution
    solve_time = time.perf_counter() - solve_start
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
    return "solver matches SIR ODE", checks


def criterion_2(shared: SharedReferences) -> Outcome:
    """Marching and Picard solve the same grid equations; their fixed points
    must agree far below discretization error."""
    march = shared.millistep.solution
    pic = picard_delay(march.kernel, march.contact, march.ic, float(march.t[-1]),
                       march.dt).solution
    sup = float(np.max(np.abs(march.b - pic.b)))
    checks = (ComparisonReport(name="sup |b_marching - b_picard|", value=sup,
                               threshold=1e-6, n_samples=march.t.size),)
    return "marching agrees with Picard", checks


def _lln_check(devs: np.ndarray, work: dict) -> ComparisonReport:
    """At most 2 of 20 replicas stray more than 0.02 from the limit I curve."""
    return ComparisonReport(name="replicas exceeding 0.02 sup-deviation",
                            value=float(np.sum(devs > 0.02)), threshold=2.0, n_samples=20,
                            work={"max_deviation": devs.max(),
                                  "median_deviation": np.median(devs), **work})


def _tree_checks(scenario: ScenarioConfig, tag: str):
    """B_hat(t) from 1e5 dual trees of `scenario` within 3 SE of its solver's
    B at t in {2, 5, 10}; returns the checks and the trees' work."""
    params = tree_params(scenario.model.kernel, scenario.ic, scenario.contact_rate, horizon=10.0)
    grid = np.array([2.0, 5.0, 10.0])
    curve = estimate_B(params, grid, 100_000, seed=derive_seed(scenario.seed, tag))
    b_sol = np.interp(grid, scenario.solution.t, scenario.solution.B)
    checks = tuple(
        ComparisonReport(name=f"|B_hat - B| at t={t:g}", value=float(abs(curve.estimate[i] - b_sol[i])),
                         threshold=float(3.0 * curve.se[i]), se=float(curve.se[i]),
                         n_samples=curve.n_samples)
        for i, t in enumerate(grid)
    )
    return checks, {k: getattr(curve, k) for k in _TREE_WORK}


def _final_size_checks(finals: np.ndarray, sol) -> tuple[ComparisonReport, ...]:
    """The simulated final infected fractions (within 3 SE) and the solver's
    B(T) + I0 (within 1e-3) both land on the final-size fixed point."""
    fp = final_size_settled_contact(sol)
    mean = float(np.mean(finals))
    se = float(np.std(finals, ddof=1) / math.sqrt(finals.size))
    solver_total = float(sol.B[-1]) + sol.ic.i0
    return (
        ComparisonReport(name="|mean final fraction - fixed point|", value=abs(mean - fp),
                         threshold=3.0 * se, se=se, n_samples=finals.size,
                         work={"fixed_point": fp, "simulated_mean": mean}),
        ComparisonReport(name=f"|B({sol.t[-1]:g})+I0 - fixed point|", value=abs(solver_total - fp),
                         threshold=1e-3),
    )


def criterion_3(shared: SharedReferences) -> Outcome:
    """Functional LLN: the I-compartment fraction of N = 5e4 runs stays
    within 0.02 of the limit curve in at least 18 of 20 replicas."""
    t0 = time.perf_counter()
    devs, _, _, work = shared.unit_contact_replicas
    runtime = time.perf_counter() - t0
    checks = (_lln_check(devs, work),
              ComparisonReport(name="runtime (s)", value=runtime, threshold=120.0))
    return "LLN at N=50000", checks


def criterion_4(shared: SharedReferences) -> Outcome:
    """The dual tree's censored-root law reproduces cumulative incidence:
    B_hat(t) within 3 SE of the solver's B at t in {2, 5, 10}."""
    t0 = time.perf_counter()
    checks, work = _tree_checks(shared.scenario, "c4")
    runtime = time.perf_counter() - t0
    checks += (ComparisonReport(name="runtime (s)", value=runtime, threshold=60.0, work=work),)
    return "tree dual estimates B", checks


def criterion_5(shared: SharedReferences) -> Outcome:
    """Final size: simulated final infected fraction and solver B(T) + I0
    both land on the scalar fixed point."""
    _, finals, _, _ = shared.unit_contact_replicas
    # dt = 1e-3 run (cached from criteria 1/2); the ~8.6e-4 gap that remains
    # is the epidemic's unsettled tail beyond T = 25, not quadrature error
    checks = _final_size_checks(finals, shared.millistep.solution)
    return "final-size fixed point", checks


def criterion_6(shared: SharedReferences) -> Outcome:
    """Small populations, exact law: the simulator's infection times equal
    brute-force evaluation of the geodesic recursion on the decorated graph,
    bit for bit, on 100 seeded instances."""
    scenario = shared.scenario
    mismatched = 0
    total = 0
    for i in range(100):
        n = 2 + (i % 11)
        out = simulate(scenario.model, n, scenario.contact_rate, scenario.ic, horizon=8.0,
                       seed=derive_seed(scenario.seed, "c6", i), record_graph=True)
        oracle = brute_force_infection_times(out.graph, scenario.contact_rate)
        total += n
        if not np.array_equal(out.sigma, oracle):
            mismatched += 1
    checks = (ComparisonReport(name="instances with any sigma mismatch", value=float(mismatched),
                               threshold=0.0, n_samples=total),)
    return "geodesic recursion exactness", checks


def criterion_7(shared: SharedReferences) -> Outcome:
    """Conditioned on infection near t = 5, the infector's infection time
    drawn from the tree matches the spinal density, and the h-chain's first
    transition reproduces the same histogram."""
    scenario = shared.scenario
    sol, kernel = scenario.solution, scenario.model.kernel
    t_lo, delta = 5.0, 0.25
    params = tree_params(kernel, scenario.ic, scenario.contact_rate, horizon=10.0)
    sample = conditioned_first_step(params, t_lo, delta, 1_500_000,
                                    seed=derive_seed(scenario.seed, "c7"))

    # window-averaged spinal density, weighted by incidence across the window
    window = _window(sol, t_lo, t_lo + delta)
    tw = sol.t[window]
    wts = np.full(tw.size, sol.dt)
    wts[0] = wts[-1] = 0.5 * sol.dt
    coef = wts * sol.contact(tw) * sol.S[window]
    denom = float(np.sum(wts * sol.b[window]))

    def spinal(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        tau_mat = kernel.value(tw[None, :] - x[:, None])
        return sol.b_at(x) * (tau_mat @ coef) / denom

    edges = np.linspace(-8.0, t_lo + delta, 65)
    tree_hist = histogram_from_samples(sample.values, edges)
    oracle_hist = histogram_from_density(spinal, edges)
    l1_tree = l1_histogram_distance(tree_hist, oracle_hist)

    starts = _b_weighted_starts(sol, t_lo, t_lo + delta, sample.n_conditioned,
                                seed=derive_seed(scenario.seed, "c7-starts"))
    h_vals = sample_h_first_steps(starts, sol, seed=derive_seed(scenario.seed, "c7-h"))
    h_hist = histogram_from_samples(h_vals, edges)
    l1_h = l1_histogram_distance(tree_hist, h_hist)

    checks = (
        ComparisonReport(name="conditioned-sample deficit below 1e4",
                         value=max(0.0, 1e4 - sample.n_conditioned), threshold=0.0,
                         n_samples=sample.n_conditioned,
                         work={k: getattr(sample, k) for k in _TREE_WORK}),
        ComparisonReport(name="L1(tree, spinal density)", value=l1_tree, threshold=0.05,
                         n_samples=sample.n_conditioned),
        ComparisonReport(name="L1(tree, h-chain)", value=l1_h, threshold=0.05,
                         n_samples=sample.n_conditioned),
    )
    return "spinal first-step law", checks


def criterion_8(shared: SharedReferences) -> Outcome:
    """h(R_{k and L}) on the not-yet-killed event is a martingale: per-step
    means over 1e6 killed-renewal chains stay within 3 SE of b(t)e^{-at}."""
    rep = martingale_diagnostic(5.0, shared.fine.solution, 1_000_000, k_max=10,
                                seed=derive_seed(shared.fine.seed, "c8"))
    checks = [
        ComparisonReport(name="|mean M_0 - reference| (deterministic)",
                         value=float(abs(rep.mean[0] - rep.reference)), threshold=1e-12,
                         n_samples=rep.n_samples),
    ]
    for k in range(1, 11):
        checks.append(ComparisonReport(
            name=f"|mean M_{k} - reference|", value=float(abs(rep.mean[k] - rep.reference)),
            threshold=float(3.0 * rep.se[k]), se=float(rep.se[k]), n_samples=rep.n_samples))
    return "killed-chain martingale", tuple(checks)


def criterion_9(shared: SharedReferences) -> Outcome:
    """Survival representation b(t) = I0 a e^{at} P(never killed) for the
    equilibrium age density, with the unit-normalized discrepancy reported."""
    checks = []
    for t in (2.0, 5.0, 8.0):
        rep = survival_representation_check(t, shared.fine.solution, 1_000_000,
                                            seed=derive_seed(shared.fine.seed, "c9", t))
        checks.append(ComparisonReport(
            name=f"|b - I0 a e^(at) P_hat| at t={t:g}",
            value=abs(rep.b_solver - rep.estimate), threshold=rep.band,
            se=rep.se, n_samples=rep.n_samples,
            work={"unit_estimate": rep.unit_estimate,
                  "discrepancy_ratio": rep.discrepancy_ratio}))
    return "survival representation", tuple(checks)


def criterion_10(shared: SharedReferences) -> Outcome:
    """Near-linear regime: conditioned-chain increments are exactly backward
    generation times, density e^{-au} tau(u)."""
    small = shared.small
    batch = sample_h_chains(3.0, small.solution, 15_000, seed=derive_seed(small.seed, "c10"))
    inc = batch.increments
    kernel = small.model.kernel
    r_density = backward_density(kernel, malthusian_parameter(kernel).alpha)
    edges = np.linspace(0.0, 8.0, 65)
    emp = histogram_from_samples(inc, edges)
    exact = histogram_from_density(r_density.pdf, edges)
    l1 = l1_histogram_distance(emp, exact)
    transitions = int(batch.lengths.sum())
    checks = (ComparisonReport(name="L1(increments, e^(-au) tau(u))", value=l1,
                               threshold=0.05, n_samples=int(inc.size),
                               work={"transitions": transitions, "proposals": batch.proposals,
                                     "proposals_per_transition": batch.proposals / transitions}),)
    return "backward generation times", checks


def criterion_11(shared: SharedReferences) -> Outcome:
    """Historical process: first backward increments of simulated chains
    infected during a time window match the conditioned chain's law."""
    lo, hi = 4.0, 6.0
    scenario = shared.scenario
    _, _, inc_sim, work = _sim_solve_deviation(scenario, hi + 0.5, 12, "c11", window=(lo, hi))
    starts = _b_weighted_starts(scenario.solution, lo, hi, inc_sim.size,
                                seed=derive_seed(scenario.seed, "c11-starts"))
    nxt = sample_h_first_steps(starts, scenario.solution,
                               seed=derive_seed(scenario.seed, "c11-h"))
    inc_h = starts - nxt
    edges = np.linspace(0.0, 10.0, 49)
    l1 = l1_histogram_distance(histogram_from_samples(inc_sim, edges),
                               histogram_from_samples(inc_h, edges))
    checks = (ComparisonReport(name="L1(sim increments, h-chain increments)", value=l1,
                               threshold=0.05, n_samples=int(inc_sim.size),
                               work={"window_lo": lo, "window_hi": hi,
                                     "sim_chains": inc_sim.size, **work}),)
    return "historical first increments", checks


def criterion_12(shared: SharedReferences) -> Outcome:
    """Criteria 3-5 under the intervention contact rate c = 1 / 0.3 / 0.8.

    The suppressed second wave settles long after t = 25, so the run extends
    to T = 80 where b(T) is negligible; the fixed-point value itself is
    horizon-independent (the solved history enters only through [0, 8])."""
    scenario = shared.step80
    sol = scenario.solution
    sim_start = time.perf_counter()
    devs, finals, _, sim_work = _sim_solve_deviation(scenario, scenario.horizon, 20, "c12")
    sim_runtime = time.perf_counter() - sim_start
    tree_start = time.perf_counter()
    tree, tree_work = _tree_checks(scenario, "c12-tree")
    tree_runtime = time.perf_counter() - tree_start
    checks = (
        _lln_check(devs, sim_work),
        ComparisonReport(name="simulation runtime (s)", value=sim_runtime, threshold=120.0),
        *tree,
        ComparisonReport(name="tree runtime (s)", value=tree_runtime, threshold=60.0,
                         work=tree_work),
        *_final_size_checks(finals, sol),
    )
    return "intervention contact rate", checks


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
    results = []
    for k in wanted:
        start = time.perf_counter()
        name, checks = _CRITERIA[k](shared)
        results.append(CriterionResult(k, name, checks, time.perf_counter() - start))
    return results
