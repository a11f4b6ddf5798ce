"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench

- The benchmark calls only public names of `epichain`, so refactors of the
  library's internals run against an unchanged benchmark.
- The exact work counts repeat for the same seed and change with the seed,
  at reduced sizes.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import epichain  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

SOURCES = sorted(p for p in HERE.glob("*.py") if p.name != Path(__file__).name)
FORBIDDEN = {"_batch_sigma", "_h_transition", "_b_weighted_starts", "run_all", "MASTER_SEED",
             "acceptance", "events"}

SMALL = replace(Sizes(), population_n=5_000, unit_replicas=1, small_instances=12,
                solver_dt=0.005, tree_samples=2_000, renewal_chains=10_000,
                h_first_starts=200, geodesic_indices=8, h_chains=40, linear_chains=40)

EXACT_COUNTS = {
    "population": ("forward_sim.infections",),
    "incidence": ("limit_solver.picard_iterations",),
    "ancestry": ("poisson_tree.geodesic_nodes", "poisson_tree.conditioned",
                 "backward_chain.h_transitions"),
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_public_api_only(path):
    tree = ast.parse(path.read_text())
    public = set(epichain.__all__)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("epichain"), \
                f"{path.name}:{node.lineno} imports from epichain; use `import epichain as ep`"
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name == "epichain" or not alias.name.startswith("epichain."), \
                    f"{path.name}:{node.lineno} imports a submodule of epichain"
        if isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner == "ep":
                assert node.attr in public, \
                    f"{path.name}:{node.lineno} uses ep.{node.attr}, not in epichain.__all__"
            assert node.attr not in FORBIDDEN, f"{path.name}:{node.lineno} uses .{node.attr}"
            assert owner == "self" or not node.attr.startswith("_") or node.attr.startswith("__"), \
                f"{path.name}:{node.lineno} reaches private attribute .{node.attr}"
        if isinstance(node, ast.Name):
            assert node.id not in FORBIDDEN, f"{path.name}:{node.lineno} uses {node.id}"


def _counts(workload: str, seed: int) -> dict:
    tracer = harness.Tracer(False)
    work = harness.setup(workload, seed, tracer, SMALL)
    result = harness.run_pass(work, tracer, 1)
    failed = [c for c in result["checks"] if not c.passed]
    assert not failed, failed
    return result["counts"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_for_a_seed_and_follow_it(workload):
    first, again, other = _counts(workload, 1), _counts(workload, 1), _counts(workload, 2)
    assert first == again
    for name in EXACT_COUNTS[workload]:
        assert first[name] > 0
        assert first[name] != other[name], name
