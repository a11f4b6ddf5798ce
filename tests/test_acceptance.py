"""The twelve acceptance criteria, one test each.

Each test prints the criterion's summary line (shown with -s, or on
failure) and asserts every subcheck at its stated tolerance.  References
built along the way (solver runs, replica batches) are shared through the
module-scoped cache, so the criteria run in order 1..12 exactly as the
`epichain validate` command does.
"""

import pytest

import numpy as np

from epichain.acceptance import MASTER_SEED, SharedReferences, run_all
from epichain.config import reference_scenario

_NAMES = {
    1: "solver-matches-sir-ode",
    2: "marching-agrees-with-picard",
    3: "lln-at-n-50000",
    4: "tree-dual-estimates-B",
    5: "final-size-fixed-point",
    6: "geodesic-recursion-exactness",
    7: "spinal-first-step-law",
    8: "killed-chain-martingale",
    9: "survival-representation",
    10: "backward-generation-times",
    11: "historical-first-increments",
    12: "intervention-contact-rate",
}


@pytest.fixture(scope="module")
def shared():
    return SharedReferences()


def test_suite_runs_reference_scenario(shared):
    # the digest `epichain validate` stamps is the scenario the suite solves
    assert SharedReferences.scenario.digest == reference_scenario().digest
    assert MASTER_SEED == reference_scenario().seed
    assert np.array_equal(shared.sol.b, reference_scenario().solve().b)


@pytest.mark.parametrize("criterion", sorted(_NAMES),
                         ids=[f"{k:02d}-{v}" for k, v in sorted(_NAMES.items())])
def test_criterion(criterion, shared):
    result = run_all([criterion], shared=shared)[0]
    print(result.line())
    for check in result.checks:
        print("   ", check.line())
    failing = [c for c in result.checks if not c.passed]
    assert result.passed, "; ".join(c.line() for c in failing)
    if criterion in (4, 7, 12):  # the tree criteria report their work counts
        assert any("nodes expanded" in c.detail for c in result.checks)
