"""The twelve acceptance criteria, one test each.

Each test prints the criterion's summary line (shown with -s, or on
failure) and asserts every subcheck at its stated tolerance.  References
built along the way (solver runs, replica batches) are shared through the
module-scoped cache, so the criteria run in order 1..12 exactly as the
`epichain validate` command does.
"""

import warnings

import pytest

import numpy as np
import scipy

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


# float.hex of every non-runtime check value at the contract seed, keyed by
# (criterion, check name), with the numpy and scipy versions that computed
# them; a bitwise-neutral change keeps them, a stream change re-records them
RECORDED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
RECORDED_VALUES = {
    (1, "sup |S - S_ode|"): "0x1.12d256ba00000p-21",
    (2, "sup |b_marching - b_picard|"): "0x1.0bc4800000000p-44",
    (3, "replicas exceeding 0.02 sup-deviation"): "0x0.0p+0",
    (4, "|B_hat - B| at t=2"): "0x1.48e48d429e600p-13",
    (4, "|B_hat - B| at t=5"): "0x1.2f4d46b767880p-11",
    (4, "|B_hat - B| at t=10"): "0x1.4f67091a8a700p-10",
    (5, "|mean final fraction - fixed point|"): "0x1.7a642ee65a000p-14",
    (5, "|B(25)+I0 - fixed point|"): "0x1.c18c5285e5800p-11",
    (6, "instances with any sigma mismatch"): "0x0.0p+0",
    (7, "conditioned-sample deficit below 1e4"): "0x0.0p+0",
    (7, "L1(tree, spinal density)"): "0x1.1f7947c455002p-5",
    (7, "L1(tree, h-chain)"): "0x1.5e283b3bb11c6p-5",
    (8, "|mean M_0 - reference| (deterministic)"): "0x1.0000000000000p-60",
    (8, "|mean M_1 - reference|"): "0x1.6667b188ae800p-20",
    (8, "|mean M_2 - reference|"): "0x1.a23cbc8a50000p-21",
    (8, "|mean M_3 - reference|"): "0x1.cb235bd244000p-21",
    (8, "|mean M_4 - reference|"): "0x1.9b62984bda800p-20",
    (8, "|mean M_5 - reference|"): "0x1.2fc5f0b4d8400p-19",
    (8, "|mean M_6 - reference|"): "0x1.3a1e0e04e9000p-19",
    (8, "|mean M_7 - reference|"): "0x1.0b845141dec00p-19",
    (8, "|mean M_8 - reference|"): "0x1.2ae5d5f673800p-19",
    (8, "|mean M_9 - reference|"): "0x1.427fdd794c400p-19",
    (8, "|mean M_10 - reference|"): "0x1.5b91274740000p-19",
    (9, "|b - I0 a e^(at) P_hat| at t=2"): "0x1.1b128f74fb000p-18",
    (9, "|b - I0 a e^(at) P_hat| at t=5"): "0x1.3202efaf97800p-15",
    (9, "|b - I0 a e^(at) P_hat| at t=8"): "0x1.7e99fb49d4000p-16",
    (10, "L1(increments, e^(-au) tau(u))"): "0x1.42a7b6f30cb62p-7",
    (11, "L1(sim increments, h-chain increments)"): "0x1.01ee975c4cb30p-6",
    (12, "replicas exceeding 0.02 sup-deviation"): "0x0.0p+0",
    (12, "|B_hat - B| at t=2"): "0x1.eefcba600de00p-13",
    (12, "|B_hat - B| at t=5"): "0x1.dcf53c53de680p-11",
    (12, "|B_hat - B| at t=10"): "0x1.a26323dc18dc0p-10",
    (12, "|mean final fraction - fixed point|"): "0x1.ddd9cd5612c00p-9",
    (12, "|B(80)+I0 - fixed point|"): "0x1.5f2557d4eb000p-12",
}


@pytest.fixture(scope="module")
def shared():
    return SharedReferences()


def test_suite_runs_reference_scenario(shared):
    # the digest `epichain validate` stamps is the scenario the suite solves
    assert shared.scenario.digest == reference_scenario().digest
    assert MASTER_SEED == reference_scenario().seed
    assert np.array_equal(shared.scenario.solution.b, reference_scenario().solution.b)


@pytest.mark.parametrize("criterion", sorted(_NAMES),
                         ids=[f"{k:02d}-{v}" for k, v in sorted(_NAMES.items())])
def test_criterion(criterion, shared):
    result = run_all([criterion], shared=shared)[0]
    print(result.line())
    for check in result.checks:
        print("   ", check.line())
    failing = [c for c in result.checks if not c.passed]
    assert result.passed, "; ".join(c.line() for c in failing)
    if criterion in (4, 7, 12):  # the tree criteria report their work
        assert any(c.work.get("nodes_expanded", 0) > 0 for c in result.checks)
    if criterion in (3, 11, 12):  # and so do the simulator criteria
        assert any(c.work.get("contacts", 0) > 0 for c in result.checks)
    values = {(criterion, c.name): float(c.value).hex()
              for c in result.checks if "runtime" not in c.name}
    assert set(values) == {key for key in RECORDED_VALUES if key[0] == criterion}
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != RECORDED_VERSIONS:
        warnings.warn(f"check values recorded with {RECORDED_VERSIONS}, running {versions}: "
                      "a last bit may differ for no fault of the program, so they are not "
                      "compared")
        return
    moved = {key: (RECORDED_VALUES[key], value) for key, value in values.items()
             if value != RECORDED_VALUES[key]}
    assert not moved, f"check values moved from their recorded float.hex: {moved}"
