"""The benchmark's three workloads: set-up, the fixed task list of one pass,
and the correctness checks.

Every workload runs the reference scenario of the acceptance suite (Markov
SIR, beta = 1.5, gamma = 1, I0 = 0.01, Exp(1/2) initial ages) through public
names of `epichain` only.  Each library call goes through `Tracer.call`, which
is where the traced mode records its spans.  Every random input of a pass is
derived from the workload seed and the pass index with `derive_seed`, so
passes differ in their random inputs but a given pass of a given seed is
always the same; the set-up draws its step contact from the seed alone.  The
library never sees the seed itself.

Checks pass when value <= band.  Deterministic checks use the acceptance
thresholds; statistical checks use bands of six standard errors (or wider
fixed bands where no standard error is at hand), so that a change of the
RNG stream does not fail them by chance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

import epichain as ep

BETA, GAMMA, I0, AGE_RATE = 1.5, 1.0, 0.01, 0.5
STEP_KNOTS = (0.0, 4.0, 8.0)
TREE_HORIZON = 10.0
TREE_GRID = (2.0, 5.0, 10.0)
# criterion 7's per-sample node cap for every tree.  The default 10 000 is a
# runaway guard that the far tail of the tree-size law at horizon 10 trips
# a few times per million samples, and ten runs of a workload draw millions.
NODE_CAP = 150_000
SE_BAND = 6.0  # statistical checks: |deviation| <= 6 standard errors
CONDITIONED_SAMPLES = 30_000  # conditioned_first_step samples per pass


@dataclass(frozen=True)
class Sizes:
    """Per-pass sizes.  The defaults are the benchmark; tests shrink them."""

    population_n: int = 50_000
    unit_replicas: int = 2
    small_instances: int = 100
    solver_dt: float = 1e-3
    tree_samples: int = 10_000
    renewal_chains: int = 100_000
    h_first_starts: int = 2_000
    geodesic_indices: int = 48
    h_chains: int = 300
    linear_chains: int = 200


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    band: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.band)


@dataclass
class Pass:
    """Accumulates the checks and work counts of one pass over a task list."""

    tracer: object
    run_seed: int
    index: int
    checks: list[Check] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def seed(self, *tags) -> int:
        """Seed of one task of this pass."""
        return ep.derive_seed(self.run_seed, self.index, *tags)

    def check(self, name: str, value: float, band: float) -> None:
        self.checks.append(Check(name, float(value), float(band)))


def step_contact(seed: int) -> ep.ContactRate:
    """The intervention contact 1 / c1 / c2 with levels drawn from the seed
    near the acceptance suite's 1 / 0.3 / 0.8 (a seeded draw from a family
    of scenarios, so the solver's work counts depend on the seed too)."""
    u = np.random.default_rng(ep.derive_seed(seed, "step-contact")).random(2)
    return ep.ContactRate(STEP_KNOTS, (1.0, 0.29 + 0.02 * u[0], 0.79 + 0.02 * u[1]), "step")


def _base(p: Pass, seed: int):
    model = p.tracer.call("courses.MarkovSIR", ep.MarkovSIR, BETA, GAMMA, step=0.005, a_max=40.0)
    ic = p.tracer.call("kernels.initial_condition", ep.initial_condition, model.kernel, I0,
                       age_rate=AGE_RATE)
    unit = p.tracer.call("kernels.ContactRate", ep.ContactRate.constant, 1.0)
    step = p.tracer.call("kernels.ContactRate", step_contact, seed)
    return model, ic, unit, step


def _strict_descent_violations(times: np.ndarray) -> int:
    """Rows of a NaN-padded path matrix that fail to decrease strictly."""
    jumps = times[:, :-1] - times[:, 1:]
    return int(np.sum(np.any(jumps <= 0.0, axis=1, where=~np.isnan(jumps))))


# ---------------------------------------------------------------------------
# population: the forward simulator does the work
# ---------------------------------------------------------------------------


class Population:
    """Replicas of the N = 5e4 simulator (lazy and eager paths) plus small
    instances checked bit for bit against the brute-force oracle."""

    def __init__(self, p: Pass, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes
        self.model, self.ic, self.unit, self.step = _base(p, seed)
        kern = self.model.kernel
        self.refs = {}
        for tag, contact, horizon in (("unit", self.unit, 25.0), ("step", self.step, 80.0)):
            sol = p.tracer.call("limit_solver.solve_delay", ep.solve_delay, kern, contact, self.ic,
                                horizon, 0.005)
            curve = p.tracer.call("limit_solver.compartment_curve", ep.compartment_curve, sol,
                                  self.model, "I")
            times = np.linspace(0.0, horizon, 64)
            self.refs[tag] = (contact, horizon, times, np.interp(times, sol.t, curve))

    def tasks(self):
        for r in range(self.sizes.unit_replicas):
            yield f"unit_replica[{r}]", lambda p, r=r: self._replica(p, "unit", r)
        yield "step_replica", lambda p: self._replica(p, "step", 0)
        yield "graph_replica", self._graph_replica
        yield "oracle", self._oracle

    def _replica(self, p: Pass, tag: str, r: int) -> None:
        contact, horizon, times, limit = self.refs[tag]
        out = p.tracer.call("forward_sim.simulate", ep.simulate, self.model,
                            self.sizes.population_n, contact, self.ic, horizon,
                            seed=p.seed(tag, r))
        frac = p.tracer.call("forward_sim.compartment_fraction", ep.compartment_fraction, out,
                             "I", times)
        hist = p.tracer.call("forward_sim.historical_measure", ep.historical_measure, out, 6.0)
        p.counts["forward_sim.infections"] += int(np.count_nonzero(np.isfinite(out.sigma)))
        # criterion 3 allows 0.02 in 18 of 20 replicas; 0.05 holds in every one
        p.check(f"{tag}[{r}] sup |I frac - limit|", np.max(np.abs(frac - limit)), 0.05)
        inc = hist.first_increment[~np.isnan(hist.first_increment)]
        p.check(f"{tag}[{r}] historical chains malformed",
                np.count_nonzero(inc <= 0.0) + np.count_nonzero(hist.chain_length < 1), 0.0)

    def _graph_replica(self, p: Pass) -> None:
        contact, horizon, times, limit = self.refs["unit"]
        out = p.tracer.call("forward_sim.simulate_graph", ep.simulate, self.model,
                            self.sizes.population_n, contact, self.ic, horizon,
                            seed=p.seed("graph", 0), record_graph=True)
        frac = p.tracer.call("forward_sim.compartment_fraction", ep.compartment_fraction, out,
                             "I", times)
        p.check("graph sup |I frac - limit|", np.max(np.abs(frac - limit)), 0.05)
        p.check("graph decorated graph missing", float(out.graph is None), 0.0)

    def _oracle(self, p: Pass) -> None:
        mismatched = 0
        for i in range(self.sizes.small_instances):
            out = p.tracer.call("forward_sim.simulate_graph", ep.simulate, self.model, 2 + i % 11,
                                self.unit, self.ic, 8.0, seed=p.seed("small", i),
                                record_graph=True)
            oracle = p.tracer.call("infection_graph.brute_force_infection_times",
                                   ep.brute_force_infection_times, out.graph, self.unit)
            mismatched += not np.array_equal(out.sigma, oracle)
        p.check("small instances differing from the oracle", mismatched, 0.0)


# ---------------------------------------------------------------------------
# incidence: "how many are infected by t", by solver, tree and renewal chains
# ---------------------------------------------------------------------------


class Incidence:
    """Marching and Picard solvers, the dual tree's B estimate at the full
    censoring horizon, and killed renewal chains."""

    def __init__(self, p: Pass, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes
        self.model, self.ic, self.unit, self.step = _base(p, seed)
        kern = self.model.kernel
        # classical SIR ODE on the unit solver grid (criterion 1's reference)
        n = int(round(25.0 / sizes.solver_dt))
        j0 = I0 * float(self.ic.tau_bar.value(0.0)) / BETA

        def rhs(_t, y):
            return [-BETA * y[0] * y[1], BETA * y[0] * y[1] - GAMMA * y[1]]

        ode = solve_ivp(rhs, (0.0, 25.0), [1.0 - I0, j0], rtol=1e-11, atol=1e-13,
                        dense_output=True)
        self.ode_S = ode.sol(np.linspace(0.0, n * sizes.solver_dt, n + 1))[0]
        # chain input: dt = 0.002 keeps quadrature bias inside the bands
        fine = p.tracer.call("kernels.ExponentialKernel", ep.ExponentialKernel, BETA, GAMMA,
                             step=0.002, a_max=40.0)
        fine_ic = p.tracer.call("kernels.initial_condition", ep.initial_condition, fine, I0,
                                age_rate=AGE_RATE)
        self.sol_fine = p.tracer.call("limit_solver.solve_delay", ep.solve_delay, fine, self.unit,
                                      fine_ic, 25.0, 0.002)
        grid = np.asarray(TREE_GRID)
        step_ref = p.tracer.call("limit_solver.solve_delay", ep.solve_delay, kern, self.step,
                                 self.ic, TREE_HORIZON, 0.005)
        self.trees = {}
        for tag, contact, ref in (("unit", self.unit, self.sol_fine),
                                  ("step", self.step, step_ref)):
            params = p.tracer.call("poisson_tree.tree_params", ep.tree_params, kern, self.ic,
                                   contact, horizon=TREE_HORIZON, node_cap=NODE_CAP)
            self.trees[tag] = (params, np.interp(grid, ref.t, ref.B))

    def tasks(self):
        yield "solver_unit", self._solver_unit
        yield "solver_step", self._solver_step
        for tag in self.trees:
            yield f"tree_{tag}", lambda p, tag=tag: self._tree(p, tag)
        yield "martingale", self._martingale
        yield "survival", self._survival

    def _solve(self, p: Pass, contact, horizon: float, dt: float):
        kern = self.model.kernel
        march = p.tracer.call("limit_solver.solve_delay", ep.solve_delay, kern, contact, self.ic,
                              horizon, dt)
        pic = p.tracer.call("limit_solver.picard_delay", ep.picard_delay, kern, contact, self.ic,
                            horizon, dt)
        p.counts["limit_solver.march_steps"] += march.t.size - 1
        p.counts["limit_solver.picard_iterations"] += pic.iterations
        return march, pic

    def _solver_unit(self, p: Pass) -> None:
        march, pic = self._solve(p, self.unit, 25.0, self.sizes.solver_dt)
        p.check("unit sup |b_march - b_picard|", np.max(np.abs(march.b - pic.solution.b)), 1e-6)
        p.check("unit sup |S - S_ode|", np.max(np.abs(march.S - self.ode_S)), 1e-3)

    def _solver_step(self, p: Pass) -> None:
        march, pic = self._solve(p, self.step, 80.0, 0.005)
        final = p.tracer.call("limit_solver.final_size_settled_contact",
                              ep.final_size_settled_contact, march)
        p.check("step sup |b_march - b_picard|", np.max(np.abs(march.b - pic.solution.b)), 1e-6)
        p.check("step |B(80) + I0 - settled final size|", abs(march.B[-1] + I0 - final), 1e-3)

    def _tree(self, p: Pass, tag: str) -> None:
        params, b_ref = self.trees[tag]
        curve = p.tracer.call("poisson_tree.estimate_B", ep.estimate_B, params,
                              np.asarray(TREE_GRID), self.sizes.tree_samples,
                              seed=p.seed("tree", tag))
        p.counts["poisson_tree.estimate_B_samples"] += curve.n_samples
        for t, est, se, ref in zip(TREE_GRID, curve.estimate, curve.se, b_ref):
            p.check(f"{tag} |B_hat - B| at t={t:g}", abs(est - ref), SE_BAND * se)

    def _martingale(self, p: Pass) -> None:
        n = self.sizes.renewal_chains
        rep = p.tracer.call("backward_chain.martingale_diagnostic", ep.martingale_diagnostic, 5.0,
                            self.sol_fine, n, k_max=10, seed=p.seed("martingale"))
        p.counts["backward_chain.renewal_chains"] += n
        p.check("|M_0 - reference|", abs(rep.mean[0] - rep.reference), 1e-12)
        dev = np.abs(rep.mean[1:] - rep.reference) / rep.se[1:]
        p.check("max_k |M_k - reference| / SE", np.max(dev), SE_BAND)

    def _survival(self, p: Pass) -> None:
        n = self.sizes.renewal_chains
        for t in (2.0, 5.0, 8.0):
            rep = p.tracer.call("backward_chain.survival_representation_check",
                                ep.survival_representation_check, t, self.sol_fine, n,
                                seed=p.seed("survival", t))
            p.counts["backward_chain.renewal_chains"] += n
            p.counts["backward_chain.survivors"] += round(rep.p_survive * n)
            p.check(f"|b - I0 a e^(at) P_hat| / SE at t={t:g}",
                    abs(rep.b_solver - rep.estimate) / (rep.band / 3.0), SE_BAND)


# ---------------------------------------------------------------------------
# ancestry: "who infected someone infected near t = 5"
# ---------------------------------------------------------------------------


class Ancestry:
    """The tree conditioned on sigma in [5, 5.25] (well inside its horizon),
    the scalar geodesic sampler, and h-transformed backward chains."""

    WINDOW = (5.0, 0.25)

    def __init__(self, p: Pass, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes
        self.model, self.ic, self.unit, _ = _base(p, seed)
        kern = self.model.kernel
        self.sol = p.tracer.call("limit_solver.solve_delay", ep.solve_delay, kern, self.unit,
                                 self.ic, 25.0, 0.005)
        self.params = p.tracer.call("poisson_tree.tree_params", ep.tree_params, kern, self.ic,
                                    self.unit, horizon=TREE_HORIZON, node_cap=NODE_CAP)
        # starts for the h-chain first steps, density proportional to b on the window
        t, delta = self.WINDOW
        i0, i1 = round(t / self.sol.dt), round((t + delta) / self.sol.dt)
        self.start_grid = self.sol.t[i0:i1 + 1]
        b = self.sol.b[i0:i1 + 1]
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (b[1:] + b[:-1]) * np.diff(self.start_grid))))
        self.start_cdf = cum / cum[-1]
        # near-linear regime: increments are backward generation times
        small_ic = p.tracer.call("kernels.initial_condition", ep.initial_condition, kern, 1e-3,
                                 age_rate=AGE_RATE)
        self.sol_small = p.tracer.call("limit_solver.solve_delay", ep.solve_delay, kern, self.unit,
                                       small_ic, 3.0, 0.005)
        alpha = p.tracer.call("kernels.malthusian_parameter", ep.malthusian_parameter, kern).alpha
        self.backward_mean = p.tracer.call("kernels.backward_density", ep.backward_density, kern,
                                           alpha).mean()

    def tasks(self):
        yield "first_step_law", self._first_step_law
        yield "geodesic", self._geodesic
        yield "h_chains", self._h_chains
        yield "linear_regime", self._linear_regime

    def _first_step_law(self, p: Pass) -> None:
        t, delta = self.WINDOW
        n = CONDITIONED_SAMPLES
        tree = p.tracer.call("poisson_tree.conditioned_first_step", ep.conditioned_first_step,
                             self.params, t, delta, n, seed=p.seed("conditioned"))
        p.counts["poisson_tree.first_step_samples"] += n
        p.counts["poisson_tree.conditioned"] += tree.n_conditioned
        u = np.random.default_rng(p.seed("starts")).random(self.sizes.h_first_starts)
        starts = np.interp(u, self.start_cdf, self.start_grid)
        h = p.tracer.call("backward_chain.sample_h_first_steps", ep.sample_h_first_steps, starts,
                          self.sol, seed=p.seed("h-first"))
        se = math.sqrt(np.var(tree.values) / tree.values.size + np.var(h) / h.size)
        p.check("|mean first step: tree - h-chain| / SE",
                abs(np.mean(tree.values) - np.mean(h)) / se, SE_BAND)
        p.check("tree first steps outside (-inf, sigma)",
                np.count_nonzero(tree.values >= tree.sigmas), 0.0)

    def _geodesic(self, p: Pass) -> None:
        seed = p.seed("geodesic")
        bad = 0
        for i in range(self.sizes.geodesic_indices):
            g = p.tracer.call("poisson_tree.sample_geodesic", ep.sample_geodesic, self.params,
                              seed, index=i)
            p.counts["poisson_tree.geodesic_nodes"] += g.nodes_expanded
            if g.censored:
                bad += g.path_times.size != 0
                continue
            path = g.path_times
            bad += not (path[0] == g.sigma and np.all(np.diff(path) < 0.0)
                        and path[-1] == -g.terminal_age <= 0.0)
        p.check("geodesic paths not strictly decreasing from sigma", bad, 0.0)

    def _h_batch(self, p: Pass, t: float, sol, n: int, tag: str):
        batch = p.tracer.call("backward_chain.sample_h_chains", ep.sample_h_chains, t, sol, n,
                              seed=p.seed(tag))
        p.counts["backward_chain.h_transitions"] += int(batch.lengths.sum())
        p.check(f"{tag} chains not strictly decreasing", _strict_descent_violations(batch.times),
                0.0)
        p.check(f"{tag} chains ending above 0", np.count_nonzero(batch.terminals > 0.0), 0.0)
        return batch

    def _h_chains(self, p: Pass) -> None:
        self._h_batch(p, 5.0, self.sol, self.sizes.h_chains, "h-chains")

    def _linear_regime(self, p: Pass) -> None:
        batch = self._h_batch(p, 3.0, self.sol_small, self.sizes.linear_chains, "linear")
        inc = batch.increments
        p.check("|mean increment - backward generation mean| / SE",
                abs(np.mean(inc) - self.backward_mean) / (np.std(inc) / math.sqrt(inc.size)),
                SE_BAND)


WORKLOADS = {"population": Population, "incidence": Incidence, "ancestry": Ancestry}
