"""Command-line entry points.

Subcommands cover the package's layers: `solve` (deterministic limit),
`simulate` (population runs), `tree` (dual sampler), `chain` (backward
chains), `courses-dump` (raw course samples), `validate` (the acceptance
suite).  Every artifact is a CSV or JSON file stamped with the scenario
digest; identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .backward_chain import (
    martingale_diagnostic, sample_h_chains, sample_renewal_chains, survival_representation_check,
)
from .config import (
    ConfigError, ScenarioConfig, apply_overrides, parse_config, read_config, reference_scenario,
)
from .forward_sim import compartment_fraction, simulate
from .poisson_tree import NODE_CAP, estimate_B, tree_params
from .rng import check_count, derive_seed, make_rng

REPORT_POINTS = 64


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _write_csv(path: Path, digest: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# scenario_digest={digest}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load(args) -> ScenarioConfig:
    """The scenario of `args`, parsed (and so built) once, after the overrides."""
    raw = read_config(args.config) if args.config else reference_scenario().to_dict()
    if args.set:
        raw = apply_overrides(raw, args.set)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.horizon is not None:
        raw["horizon"] = args.horizon
    if args.out is not None:
        raw["out_dir"] = args.out
    return parse_config(raw)


def _outdir(out_dir: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_solve(args) -> int:
    cfg = _load(args)
    sol = cfg.solution
    out = _outdir(cfg.out_dir) / "solve.csv"
    _write_csv(out, cfg.digest, ["t", "b", "B", "S"],
               zip(sol.t, sol.b, sol.B, sol.S))
    print(f"solve: wrote {out}")
    print(f"  grid points {sol.t.size}, renewal residual {sol.renewal_residual:.3g}, "
          f"inner iterations max {sol.iterations_max}")
    print(f"  B(T)+I0 = {float(sol.B[-1]) + cfg.i0:.6f}")
    return 0


def cmd_simulate(args) -> int:
    check_count("--replicas", args.replicas, 1)
    cfg = _load(args)
    times = np.linspace(0.0, cfg.horizon, REPORT_POINTS)
    names = cfg.model.compartments

    def one(r: int):
        out = simulate(cfg.model, cfg.n_individuals, cfg.contact_rate, cfg.ic, cfg.horizon,
                       seed=derive_seed(cfg.seed, "simulate", r))
        fracs = [compartment_fraction(out, nm, times) for nm in names]
        return out.susceptible_fraction(times), fracs, float(out.infected_fraction(cfg.horizon))

    results = [one(r) for r in range(args.replicas)]

    rows = []
    for r, (susc, fracs, _final) in enumerate(results):
        for j, t in enumerate(times):
            rows.append([r, t, susc[j]] + [f[j] for f in fracs])
    out_path = _outdir(cfg.out_dir) / "simulate.csv"
    _write_csv(out_path, cfg.digest, ["replica", "t", "susceptible"] + list(names), rows)
    finals = np.array([res[2] for res in results])
    print(f"simulate: wrote {out_path} ({args.replicas} replicas of N={cfg.n_individuals})")
    print(f"  final infected fraction: mean {finals.mean():.5f}"
          + (f", sd {finals.std(ddof=1):.5f}" if finals.size > 1 else ""))
    return 0


def cmd_tree(args) -> int:
    check_count("--points", args.points, 2)  # one point is t = 0 alone, where no tree grows
    cfg = _load(args)
    params = tree_params(cfg.model.kernel, cfg.ic, cfg.contact_rate, cfg.horizon,
                         node_cap=args.node_cap)
    grid = np.linspace(0.0, cfg.horizon, args.points)
    t0 = time.perf_counter()
    try:
        curve = estimate_B(params, grid, args.samples, seed=derive_seed(cfg.seed, "tree"))
    except RuntimeError as exc:  # the node cap: a supercritical tree outgrew the horizon
        raise RuntimeError(f"{exc}; rerun with a shorter --horizon (the built-in scenario "
                           "runs at --horizon 10) or a larger --node-cap") from None
    elapsed = time.perf_counter() - t0
    out = _outdir(cfg.out_dir) / "tree.csv"
    _write_csv(out, cfg.digest, ["t", "B_hat", "se"],
               zip(curve.t, curve.estimate, curve.se))
    print(f"tree: wrote {out} ({args.samples} samples, {args.points} grid points)")
    print(f"  B_hat(T) = {float(curve.estimate[-1]):.5f} +- {float(curve.se[-1]):.5f}")
    # timings go to stdout only, so that tree.csv stays deterministic
    print(f"  nodes expanded {curve.nodes_expanded}, pruned {curve.nodes_pruned}, "
          f"max depth {curve.max_depth}; {curve.nodes_expanded / elapsed:.3g} nodes/s "
          f"in {elapsed:.2f} s; {curve.chunks} chunks of at most {curve.max_chunk_nodes} nodes, "
          f"workers {curve.workers}")
    return 0


def cmd_chain(args) -> int:
    cfg = _load(args)
    t = args.t if args.t is not None else cfg.horizon / 2.0
    # the renewal sampler reads only the kernel, so it needs no solve; it
    # checks only that t is finite, but its time and memory grow linearly in
    # t; the other samplers reject a start past the horizon themselves
    if args.mode == "renewal" and cfg.horizon < t < math.inf:
        raise ValueError(f"chain start {t:g} lies past the solver horizon T={cfg.horizon:g}")
    sol = None if args.mode == "renewal" else cfg.solution
    outdir = _outdir(cfg.out_dir)

    if args.mode == "martingale":
        rep = martingale_diagnostic(t, sol, args.samples, args.k_max,
                                    seed=derive_seed(cfg.seed, "chain", "martingale"))
        out = outdir / "chain_martingale.csv"
        _write_csv(out, cfg.digest, ["k", "mean", "se", "reference"],
                   zip(rep.k, rep.mean, rep.se, [rep.reference] * rep.k.size))
        print(f"chain martingale: wrote {out}")
        print(f"  max |mean - reference| / se over k>=1: {rep.max_deviation_in_se:.2f}")
        return 0

    if args.mode == "survival":
        rep = survival_representation_check(t, sol, args.samples,
                                            seed=derive_seed(cfg.seed, "chain", "survival"))
        out = outdir / "chain_survival.csv"
        _write_csv(out, cfg.digest,
                   ["t", "p_survive", "se", "estimate", "band", "b_solver",
                    "unit_estimate", "discrepancy_ratio"],
                   [[rep.t, rep.p_survive, rep.se, rep.estimate, rep.band,
                     rep.b_solver, rep.unit_estimate, rep.discrepancy_ratio]])
        print(f"chain survival: wrote {out}")
        print(f"  I0 a e^(at) P(survive) = {rep.estimate:.6f} vs b(t) = {rep.b_solver:.6f} "
              f"(within 3 SE: {rep.within_band})")
        print(f"  unit-normalized estimate / b(t) = {rep.discrepancy_ratio:.2f} "
              f"(the seed-mass normalization)")
        return 0

    if args.mode == "hchain":
        batch = sample_h_chains(t, sol, args.samples,
                                seed=derive_seed(cfg.seed, "chain", "hchain"))
    else:
        batch = sample_renewal_chains(t, cfg.model.kernel, args.samples,
                                      seed=derive_seed(cfg.seed, "chain", "renewal"))
    rows = []
    for i in range(batch.times.shape[0]):
        for k in range(batch.lengths[i] + 1):
            rows.append([i, k, batch.times[i, k]])
    out = outdir / f"chain_{args.mode}.csv"
    _write_csv(out, cfg.digest, ["chain", "k", "time"], rows)
    print(f"chain {args.mode}: wrote {out} ({args.samples} chains from t={t:g})")
    return 0


def cmd_courses_dump(args) -> int:
    check_count("--samples", args.samples, 0)
    cfg = _load(args)
    rng = make_rng(derive_seed(cfg.seed, "courses"))
    batch = cfg.model.sample_courses(rng, args.samples)
    atoms, offsets = batch.atoms.tolist(), batch.offsets.tolist()
    rows = []
    for i, entry in enumerate(batch.entry_ages.tolist()):
        rows += [[i, "entry", age, name] for age, name in zip(entry, batch.compartments)]
        rows += [[i, "atom", age, ""] for age in atoms[offsets[i]:offsets[i + 1]]]
    out = _outdir(cfg.out_dir) / "courses.csv"
    _write_csv(out, cfg.digest, ["course", "kind", "age", "compartment"], rows)
    print(f"courses-dump: wrote {out} ({args.samples} courses)")
    return 0


def cmd_validate(args) -> int:
    from .acceptance import SharedReferences, run_all

    wanted = None
    if args.criteria:
        try:
            wanted = sorted({int(x) for x in args.criteria.split(",")})
        except ValueError:
            raise ValueError(f"--criteria must list criterion numbers separated by commas, "
                             f"got {args.criteria!r}") from None
    shared = SharedReferences()
    results = run_all(criteria=wanted, shared=shared)
    records = [{**asdict(r), "passed": r.passed, "runtime_s": round(r.runtime_s, 2)}
               for r in results]
    ok = all(r.passed for r in results)
    scenario = shared.scenario  # the references the criteria ran
    payload = {"scenario_digest": scenario.digest, "all_passed": ok, "criteria": records}
    out = _outdir(args.out if args.out is not None else scenario.out_dir) / "validation.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in results:
        print(r.line())
    print(f"validate: wrote {out} ({'all passed' if ok else 'FAILURES PRESENT'})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epichain",
        description="Age-of-infection epidemics: simulator, limit solver, dual tree, backward chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario JSON (defaults to the built-in benchmark)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--horizon", type=float, help="override the time horizon")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")

    p = sub.add_parser("solve", help="solve the deterministic limit system")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run population replicas")
    common(p)
    p.add_argument("--replicas", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tree", help="estimate cumulative incidence from the dual tree")
    common(p)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--points", type=int, default=9, help="grid points over [0, horizon]")
    p.add_argument("--node-cap", type=int, default=NODE_CAP)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("chain", help="backward-chain samplers and diagnostics")
    common(p)
    p.add_argument("--mode", choices=["renewal", "hchain", "martingale", "survival"],
                   default="hchain")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--t", type=float, help="starting calendar time (default horizon/2)")
    p.add_argument("--k-max", type=int, default=10)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("courses-dump", help="sample raw disease courses")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_courses_dump)

    p = sub.add_parser("validate", help="run the acceptance suite on the built-in scenario")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,6")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
