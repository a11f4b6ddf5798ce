"""Dual tree sampler: agreement with the limit solver, geodesic path
structure and its agreement with the batched estimators, the conditioned
first-step law, and the exactness of censoring each estimator at the latest
time it reads."""

import hashlib
import math
import multiprocessing
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats

from epichain import (
    ContactRate, conditioned_first_step, estimate_B, sample_geodesic, tree_params,
)
from epichain import poisson_tree
from epichain.poisson_tree import _expand_batch, _expand_chunk, poisson_counts
from epichain.rng import root_key_vec


def _indices(n):
    """The roots 0..n-1 of a seed's stream, as the batched samplers take them."""
    return np.arange(n, dtype=np.uint64)


def _pin_workers(monkeypatch, workers):
    """Expand every batch in `workers` processes (forked past the first
    chunk), whatever its size and the CPUs of the machine."""
    assert workers <= poisson_tree._WORKER_CAP  # never more than the cap, not even here
    monkeypatch.setattr(poisson_tree, "_workers", lambda: workers)
    monkeypatch.setattr(poisson_tree, "_FORK_NODES", 0)


@pytest.fixture(scope="module")
def params(kernel, ic, unit_contact):
    return tree_params(kernel, ic, unit_contact, horizon=8.0)


# (float.hex of the sum of the finite sigmas, their number, nodes expanded,
# nodes pruned) of 3000 samples of seed 871 at H = 8, recorded when every
# drawn child got its mark and key before the horizon cut; re-recorded when
# W and Z came to invert the trapezoid CDF exactly
RECORDED_B = [
    ("unit", ("0x1.06f7f3561c736p+12", 769, 435265, 214491)),
    # a mark skipped or drawn twice moves sigma only where contact < 1
    ("halved", ("0x1.10a1a9760f990p+9", 168, 435265, 214503)),
]


def _recorded_values(kernel, ic, contact):
    """The recorded values of RECORDED_B, and the processes that expanded them."""
    rate = ContactRate.constant(1.0) if contact == "unit" else ContactRate(**HALVED)
    p = tree_params(kernel, ic, rate, horizon=8.0)
    sigma, _, _, work = _expand_batch(p, _indices(3_000), seed=871)
    finite = sigma[np.isfinite(sigma)]
    values = float(np.sum(finite)).hex(), finite.size, work.nodes_expanded, work.nodes_pruned
    return values, work.workers


class TestEstimateB:
    def test_matches_solver(self, params, sol):
        grid = np.array([2.0, 5.0, 8.0])
        curve = estimate_B(params, grid, 20_000, seed=801)
        b_sol = np.interp(grid, sol.t, sol.B)
        assert np.all(np.abs(curve.estimate - b_sol) < 4.0 * curve.se)

    def test_estimates_monotone(self, params):
        grid = np.array([1.0, 3.0, 6.0, 8.0])
        curve = estimate_B(params, grid, 5_000, seed=802)
        assert np.all(np.diff(curve.estimate) >= 0)
        assert np.all(curve.se > 0)

    def test_rejects_small_sample(self, params):
        with pytest.raises(ValueError):
            estimate_B(params, [2.0], 100, seed=1)

    def test_rejects_grid_beyond_horizon(self, params):
        with pytest.raises(ValueError):
            estimate_B(params, [9.0], 5_000, seed=1)

    @pytest.mark.parametrize("grid", [[], [1.0, math.nan], [math.inf], [-math.inf, 2.0]])
    def test_rejects_empty_or_non_finite_grid(self, params, grid):
        with pytest.raises(ValueError, match="grid"):
            estimate_B(params, grid, 5_000, seed=1)

    @pytest.mark.parametrize("contact, want", RECORDED_B)
    def test_recorded_values_reproduced(self, kernel, ic, contact, want):
        assert _recorded_values(kernel, ic, contact)[0] == want

    def test_max_depth_is_the_deepest_tree(self, kernel, ic, unit_contact):
        p = tree_params(kernel, ic, unit_contact, horizon=5.0)
        curve = estimate_B(p, [5.0], 1_000, seed=872)
        depths = [sample_geodesic(p, seed=872, index=i).max_depth for i in range(1_000)]
        assert curve.max_depth == max(depths)
        # the same trees, censored at the same time
        sample = conditioned_first_step(p, 1.0, 4.0, 3_000, seed=873)
        assert sample.max_depth == estimate_B(p, [5.0], 3_000, seed=873).max_depth

    def test_node_cap_triggers(self, kernel, ic, unit_contact):
        tight = tree_params(kernel, ic, unit_contact, horizon=8.0, node_cap=2)
        with pytest.raises(RuntimeError):
            estimate_B(tight, [2.0], 2_000, seed=3)

    @pytest.mark.parametrize("cap", [1.5, 0, True, "100"])
    def test_rejects_bad_node_cap(self, kernel, ic, unit_contact, cap):
        with pytest.raises(ValueError, match="node_cap"):
            tree_params(kernel, ic, unit_contact, horizon=8.0, node_cap=cap)

    @pytest.mark.parametrize("horizon", [True, "5", None, 10**400, 0, -1.0, math.inf, math.nan],
                             ids=["True", "str", "None", "10**400", "0", "-1", "inf", "nan"])
    def test_rejects_bad_horizon(self, kernel, ic, unit_contact, horizon):
        # a bool must not act as horizon 1, nor a str or None raise a TypeError
        with pytest.raises(ValueError, match="^horizon must be "):
            tree_params(kernel, ic, unit_contact, horizon=horizon)

    def test_grid_beyond_horizon_names_both(self, params):
        with pytest.raises(ValueError, match=r"max\(t_grid\) = 9.5 > 8.0"):
            estimate_B(params, [1.0, 9.5], 5_000, seed=1)

    def test_rejects_grid_that_is_not_1d(self, params):
        with pytest.raises(ValueError, match="t_grid must be 1-D"):
            estimate_B(params, [[1.0, 2.0]], 5_000, seed=1)

    @pytest.mark.parametrize("contact", ["unit", "halved"])
    def test_memory_stays_within_a_chunk(self, kernel, ic, contact, monkeypatch):
        # node-budget chunks of 20-28-byte nodes: about 8-10 MiB traced, where
        # 2048-sample chunks of 56-byte nodes traced 45-49 MiB; one process,
        # so that the bound covers every chunk (tracemalloc sees no child)
        _pin_workers(monkeypatch, 1)
        rate = ContactRate.constant(1.0) if contact == "unit" else ContactRate(**HALVED)
        p = tree_params(kernel, ic, rate, horizon=10.0)
        tracemalloc.start()
        try:
            curve = estimate_B(p, [2.0, 5.0, 10.0], 10_000, seed=874)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert curve.chunks > 1
        assert peak < 20 * 2**20

    def test_memory_does_not_grow_with_the_grid(self, kernel, ic, unit_contact):
        # sigma is sorted once and counted at each grid time, where an
        # n_samples x 2000 matrix of comparisons traced 19.3 MiB
        p = tree_params(kernel, ic, unit_contact, horizon=10.0)
        tracemalloc.start()
        try:
            estimate_B(p, np.linspace(0.0, 10.0, 2000), 10_000, seed=874)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestChunking:
    """Chunk sizes never change a draw: every output of a batch is the same
    at the default node budget and at one so small that a chunk holds a few
    samples."""

    @pytest.mark.parametrize("contact", ["unit", "halved"])
    def test_outputs_do_not_depend_on_the_budget(self, kernel, ic, contact, monkeypatch):
        rate = ContactRate.constant(1.0) if contact == "unit" else ContactRate(**HALVED)
        p = tree_params(kernel, ic, rate, horizon=8.0)
        window = (2.0, 5.0)
        sigma, times, ages, work = _expand_batch(p, _indices(3_000), seed=881, window=window)
        monkeypatch.setattr(poisson_tree, "_NODE_BUDGET", 3_000)
        small_sigma, small_times, small_ages, small = _expand_batch(p, _indices(3_000), seed=881,
                                                                    window=window)
        assert np.array_equal(small_sigma, sigma)
        assert times.shape[0] > 50
        assert np.array_equal(small_times, times, equal_nan=True)
        assert np.array_equal(small_ages, ages, equal_nan=True)
        for key in ("nodes_expanded", "nodes_pruned", "max_depth"):
            assert getattr(small, key) == getattr(work, key), key
        assert work.chunks < 10 and small.chunks > 100  # a few samples a chunk
        assert small.max_chunk_nodes < work.max_chunk_nodes


class TestWorkers:
    """Splitting a batch over forked workers never changes a draw: every
    output is the same in one process and in two, and no worker outlives
    the call, whether it returns or raises."""

    PER_RUN = ("chunks", "max_chunk_nodes", "workers")  # depend on the CPU count

    @pytest.mark.parametrize("contact", ["unit", "halved"])
    def test_outputs_do_not_depend_on_the_workers(self, kernel, ic, contact, monkeypatch):
        rate = ContactRate.constant(1.0) if contact == "unit" else ContactRate(**HALVED)
        p = tree_params(kernel, ic, rate, horizon=8.0)
        runs = {}
        for workers in (1, 2):
            _pin_workers(monkeypatch, workers)
            runs[workers] = (
                _expand_batch(p, _indices(3_000), seed=891, window=(2.0, 5.0)),
                estimate_B(p, [2.0, 5.0, 8.0], 3_000, seed=892),
                conditioned_first_step(p, 1.0, 7.0, 6_000, seed=893),
            )
            assert multiprocessing.active_children() == []
        (sigma, times, ages, work), curve, sample = runs[1]
        (sigma2, times2, ages2, work2), curve2, sample2 = runs[2]
        assert np.array_equal(sigma2, sigma)
        assert times.shape[0] > 50
        assert np.array_equal(times2, times, equal_nan=True)
        assert np.array_equal(ages2, ages, equal_nan=True)
        assert np.array_equal(curve2.estimate, curve.estimate)
        assert np.array_equal(curve2.se, curve.se)
        assert np.array_equal(sample2.values, sample.values)
        assert np.array_equal(sample2.sigmas, sample.sigmas)
        for one, two in [(work, work2), (curve, curve2), (sample, sample2)]:
            assert (one.workers, two.workers) == (1, 2)
            for field in fields(poisson_tree.TreeWork):
                if field.name not in self.PER_RUN:
                    assert getattr(two, field.name) == getattr(one, field.name), field.name

    @pytest.fixture(scope="class")
    def sizes(self, kernel, ic, unit_contact):
        """(params at horizon 5, the node count of each of the first 700 trees of seed 894)."""
        p = tree_params(kernel, ic, unit_contact, horizon=5.0)
        return p, np.array([sample_geodesic(p, seed=894, index=i).nodes_expanded
                            for i in range(700)])

    @pytest.mark.parametrize("block", ["parent", "child"])
    def test_node_cap_in_a_block_is_raised_intact(self, sizes, block, monkeypatch):
        # the largest tree goes first in the block this process expands or
        # last, in the block a child expands; every other tree fits the cap
        p, nodes = sizes
        order = np.argsort(nodes, kind="stable")
        big, small = order[-1], order[:-1][:600]
        cap = int(nodes[small].max())
        assert nodes[big] > cap
        head = poisson_tree._chunk_size(*poisson_tree._GUESS)
        where = head if block == "parent" else small.size
        indices = np.insert(small, where, big).astype(np.uint64)
        _pin_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=f"^node cap {cap} exceeded .*; edge lengths"):
            _expand_batch(replace(p, node_cap=cap), indices, seed=894)
        assert multiprocessing.active_children() == []
        # the same trees under the default cap: two processes, none left
        *_, work = _expand_batch(p, indices, seed=894)
        assert work.workers == 2 and work.nodes_expanded == nodes[indices].sum()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("contact, want", RECORDED_B)
    def test_recorded_values_reproduced_in_two_processes(self, kernel, ic, contact, want,
                                                         monkeypatch):
        _pin_workers(monkeypatch, 2)
        assert _recorded_values(kernel, ic, contact) == (want, 2)

    def test_workers_never_exceed_the_cap(self):
        assert 1 <= poisson_tree._workers() <= poisson_tree._WORKER_CAP


# sha256 of each field over one chunk's levels (dtype, then bytes, level by
# level; "None" for a mark never drawn) for 3000 samples of seed 871 at H = 8,
# recorded before the expansion drew its leaf edges once per chunk
RECORDED_LEVELS = {
    "unit": {
        "i_min": "a7a19f7b755da9fed2cd3f4e54432ec916308ecacd01f8e7dddf883e507c111e",
        "parent_row": "745632dcfa107a0ca8530f17bfeb13c6308e46019ac096c5c2063bf7be2fe1ae",
        "edge_w": "817ac53ddab3b7a26c808447304c31c87650b30ada9fbd86eb3f32099f9296bf",
        "edge_s": "4748d2b7f939b2463f2d646672d64b7030dbeda9e8db5303818420d95a504514",
        "leaf_row": "9abe1b275219ba1b4270b63a2c3266a33cfcd08d959462c6dfdafd34cfcc847a",
        "leaf_val": "195a09f13350452242353f5e7ae4b75b703603495b4107be23c574d16fd17f82",
        "leaf_z": "d3b687789b110607cd72722c5aaa4f4ad9bffbbc553332eb0a3d4f662352c234",
    },
    "halved": {
        "i_min": "5a6c252dca26674030fd6e2b16288fb397a3bd5962f5ff81ca396feca9e94ed0",
        "parent_row": "745632dcfa107a0ca8530f17bfeb13c6308e46019ac096c5c2063bf7be2fe1ae",
        "edge_w": "817ac53ddab3b7a26c808447304c31c87650b30ada9fbd86eb3f32099f9296bf",
        "edge_s": "3a8a6b98125568536eeaf2bdb60aff8bf7de79a7b64d85f44134827d79edd8bf",
        "leaf_row": "87aa9143a91c7fc2a0fcf39777431ef9db690eff7bdbdfe4c6dcab4eb4c169da",
        "leaf_val": "f988d0f6908ddeb8e8a8ceb99ea757beef313c88002cc90e5e673428e88e51d0",
        "leaf_z": "972726bec699ea4d181321af95ffde572bad3871245ce44f3490da517137e799",
    },
}


class TestRecordedLevels:
    """Every array the fold and the walk read, in its order: a leaf edge
    listed in another order, or on another level, changes a digest even
    where sigma and the node counts stay the same."""

    @pytest.mark.parametrize("contact", ["unit", "halved"])
    def test_levels_reproduced(self, kernel, ic, contact):
        rate = ContactRate.constant(1.0) if contact == "unit" else ContactRate(**HALVED)
        p = tree_params(kernel, ic, rate, horizon=8.0)
        levels, expanded, _ = _expand_chunk(p, root_key_vec(871, _indices(3_000)))
        assert (len(levels), expanded) == (28, 435265)
        for field, want in RECORDED_LEVELS[contact].items():
            h = hashlib.sha256()
            for lev in levels:
                a = getattr(lev, field)
                h.update(b"None" if a is None else a.dtype.str.encode() + a.tobytes())
            assert h.hexdigest() == want, field


class TestScalarBatchParity:
    """A geodesic drawn for (seed, index) agrees bitwise with the batched
    estimators' draw for the same root."""

    def test_sigma_bitwise_equal(self, params):
        batch, _, _, _ = _expand_batch(params, _indices(64), seed=811)
        for i in range(64):
            one = sample_geodesic(params, seed=811, index=i)
            if one.censored:
                assert math.isinf(batch[i])
            else:
                assert one.sigma == batch[i]

    def test_first_step_matches_path(self, params):
        # the windowed batch's row for index i is the geodesic's whole path,
        # so its column 1 is the first step
        sigma, times, ages, _ = _expand_batch(params, _indices(64), seed=811,
                                              window=(-math.inf, params.horizon))
        rows = np.cumsum(np.isfinite(sigma)) - 1  # index i's row among the windowed paths
        assert times.shape[0] == rows[-1] + 1 > 10
        for i in range(64):
            one = sample_geodesic(params, seed=811, index=i)
            if one.censored:
                assert math.isinf(sigma[i])
                continue
            row, length = times[rows[i]], one.path_times.size
            assert one.path_times[1] == row[1]
            assert np.array_equal(row[:length], one.path_times)
            assert np.all(np.isnan(row[length:]))
            assert np.all(np.isfinite(ages[rows[i], :length - 1]))
            assert np.all(np.isnan(ages[rows[i], length - 1:]))


# (index, path_times as float.hex) of seed 821 at horizon 8, recorded when
# geodesics came from a separate recursive sampler, and re-recorded when W and
# Z came to invert the trapezoid CDF exactly
RECORDED_PATHS = {
    16: ["0x1.f8d0d368ad6f6p+1", "0x1.bb0705312b954p+1", "0x1.9220e412446dap+1",
         "0x1.00cabeeb0d8aep+1", "0x1.11d1fa9efce75p+0", "-0x1.91e854b40aa79p-5"],
    34: ["0x1.c68713f6044dfp+2", "0x1.c0195f6acbb2ep+2", "0x1.13f919d790b27p+2",
         "0x1.f93b58da5dbd9p+0", "0x1.8339f10973366p-3", "-0x1.6f3b2431cfd1ep-3"],
    36: ["0x1.633d83d49926ep+1", "0x1.9ec397136c61cp+0", "0x1.6a1521e08674fp+0",
         "0x1.0c9dd1de091aep+0", "0x1.d65abd51d3864p-1", "0x1.d6b87866be278p-2",
         "-0x1.0e66420cb7c5dp-1"],
}


def _assert_palm_decoration(decorated, bare):
    """Row k + 1 of the courses holds its transmission age as an atom, and
    the decoration leaves the path itself bitwise unchanged."""
    assert bare.path_courses is None
    assert np.array_equal(decorated.path_times, bare.path_times)
    ages = decorated.path_times[:-1] - decorated.path_times[1:]
    courses = decorated.path_courses
    for k, age in enumerate(ages):
        row = courses.atoms[courses.offsets[k + 1]:courses.offsets[k + 2]]
        assert np.min(np.abs(row - age)) <= 1e-12


class TestGeodesicPaths:
    def test_path_structure(self, params):
        found = 0
        for i in range(200):
            one = sample_geodesic(params, seed=821, index=i)
            if one.censored:
                assert one.path_times.size == 0 and one.terminal_age is None
                continue
            found += 1
            assert one.path_times[0] == one.sigma
            assert np.all(np.diff(one.path_times) < 0)
            assert one.terminal_age is not None and one.terminal_age > 0
            assert one.path_times[-1] == -one.terminal_age
            assert one.max_depth >= one.path_times.size - 2
        assert found > 20

    def test_recorded_paths_reproduced(self, params):
        for i, want in RECORDED_PATHS.items():
            one = sample_geodesic(params, seed=821, index=i)
            assert [x.hex() for x in one.path_times] == want
            assert one.sigma.hex() == want[0]
        counts = sample_geodesic(params, seed=821, index=34)
        assert (counts.nodes_expanded, counts.nodes_pruned, counts.max_depth) == (22, 7, 6)

    @pytest.mark.parametrize("index", [-1, 2.7, True, np.float64(2.0), 2**64],
                             ids=["-1", "2.7", "True", "float64", "2**64"])
    def test_rejects_negative_index(self, params, index):
        # a non-integer index must not quietly select tree int(index)
        with pytest.raises(ValueError, match="index"):
            sample_geodesic(params, seed=821, index=index)

    def test_decorated_courses(self, params, kernel, ic, unit_contact, model, check_courses):
        p = tree_params(kernel, ic, unit_contact, horizon=8.0, model=model)
        for i in range(80):
            one = sample_geodesic(p, seed=823, index=i)
            if one.censored:
                continue
            assert one.path_courses is not None
            assert one.path_courses.n == one.path_times.size
            check_courses(one.path_courses, model)
            _assert_palm_decoration(one, sample_geodesic(params, seed=823, index=i))
            return
        pytest.fail("all 80 samples censored")

    def test_old_initially_infected_ancestor_is_decorated(self, params, kernel, ic,
                                                           unit_contact, model, check_courses):
        # the oldest transmission by an initially infected ancestor among the
        # first 1e6 roots of seed 823: age 9.90, where the intensity is 7.6e-5
        # (TestPalm covers Palm courses at older ages directly)
        p = tree_params(kernel, ic, unit_contact, horizon=8.0, model=model)
        one = sample_geodesic(p, seed=823, index=434241)
        assert one.path_times[-2] - one.path_times[-1] > 9.89
        check_courses(one.path_courses, model)
        _assert_palm_decoration(one, sample_geodesic(params, seed=823, index=434241))

    def test_recorded_courses_reproduced(self, kernel, ic, unit_contact, model):
        # recorded when each path course was its own object: the one batch
        # must hold the same arrays, bit for bit (re-recorded when W and Z
        # came to invert the trapezoid CDF exactly)
        p = tree_params(kernel, ic, unit_contact, horizon=8.0, model=model)
        courses = sample_geodesic(p, seed=823, index=8462).path_courses
        assert courses.n == 12
        assert courses.offsets.tolist() == [0, 2, 5, 8, 13, 14, 16, 17, 19, 21, 23, 24, 42]
        assert hashlib.sha256(courses.atoms.tobytes()).hexdigest() == \
            "12070e628f99cd3c68758d441f6f67fb7ba9c93ceb50f413bdcb44ded771ed51"
        assert hashlib.sha256(np.ascontiguousarray(courses.entry_ages).tobytes()).hexdigest() == \
            "3f320119258c192a3e78292a31760e6d32784c4f7cf7ff086cc1ce18750547d8"


class TestConditionedFirstStep:
    def test_window_and_ordering(self, params):
        sample = conditioned_first_step(params, 4.0, 0.5, 30_000, seed=831)
        assert sample.n_conditioned >= 200
        assert np.all(sample.sigmas >= 4.0)
        assert np.all(sample.sigmas <= 4.5)
        assert np.all(sample.values < sample.sigmas)

    def test_too_few_conditioned_raises(self, params):
        with pytest.raises(RuntimeError):
            conditioned_first_step(params, 7.9, 0.05, 2_000, seed=832)

    @pytest.mark.parametrize("t, delta, name", [
        (math.nan, 0.5, "t"), (-math.inf, 0.5, "t"), (4.0, math.nan, "delta"),
        (4.0, math.inf, "delta"),
    ])
    def test_rejects_non_finite_window(self, params, t, delta, name):
        with pytest.raises(ValueError, match=f"window {name} must be finite"):
            conditioned_first_step(params, t, delta, 2_000, seed=832)

    @pytest.mark.parametrize("t, delta, name", [
        (True, 0.5, "t"), ("4", 0.5, "t"), (None, 0.5, "t"), (4.0, True, "delta"),
        (4.0, "0.5", "delta"), (4.0, 0.0, "delta"), (4.0, -0.5, "delta"),
    ])
    def test_rejects_window_that_is_not_a_real_number(self, params, t, delta, name):
        # a bool must not act as 1, nor a str raise a TypeError
        with pytest.raises(ValueError, match=f"^window {name} must be "):
            conditioned_first_step(params, t, delta, 2_000, seed=832)

    def test_window_beyond_horizon_names_both(self, params):
        with pytest.raises(ValueError, match=r"t \+ delta = 8.5 > 8.0"):
            conditioned_first_step(params, 7.5, 1.0, 2_000, seed=832)

    @pytest.mark.parametrize("t, delta", [(-5.0, 1.0), (-1.0, 1.0)])
    def test_rejects_window_ending_at_or_before_zero(self, params, t, delta):
        with pytest.raises(ValueError, match=rf"window \[{t}, {t + delta}\] ends at or before 0"):
            conditioned_first_step(params, t, delta, 2_000, seed=833)

    def test_recorded_values_reproduced(self, params):
        # recorded as float.hex when every tree was expanded to the horizon;
        # re-recorded when W and Z came to invert the trapezoid CDF exactly
        sample = conditioned_first_step(params, 2.0, 3.0, 4_000, seed=851)
        assert sample.n_conditioned == 301
        assert [x.hex() for x in sample.values[:3]] == [
            "0x1.0cfd421d73c0fp+2", "0x1.fd771b9497937p+0", "0x1.98221f5e84dcfp+1"]
        assert [x.hex() for x in sample.sigmas[:3]] == [
            "0x1.2a666c58f162ap+2", "0x1.a742c9b341ea0p+1", "0x1.1d4d4d4520a60p+2"]
        assert float(np.sum(sample.values)).hex() == "0x1.c504dfd21d026p+9"
        assert float(np.sum(sample.sigmas)).hex() == "0x1.1b9c675ecc606p+10"


# contact halved from t = 3, so that windows past 3 see marks rejected
HALVED = dict(knots=(0.0, 3.0), levels=(1.0, 0.5), kind="step")


class TestCensoring:
    """Each estimator expands its trees only up to the latest time it reads;
    every sample it reads is bitwise the full-horizon sample."""

    @pytest.mark.parametrize("contact, t, delta, n", [
        ("unit", 4.0, 0.5, 16_000),
        ("unit", 7.0, 1.0, 4_000),      # window ends at the horizon
        ("halved", 3.0, 2.0, 16_000),
        ("halved", 5.0, 3.0, 24_000),   # window ends at the horizon
    ])
    def test_first_step_matches_full_horizon(self, kernel, ic, contact, t, delta, n):
        rate = ContactRate.constant(1.0) if contact == "unit" else ContactRate(**HALVED)
        p = tree_params(kernel, ic, rate, horizon=8.0)
        sample = conditioned_first_step(p, t, delta, n, seed=861)
        sigma, times, _, work = _expand_batch(p, _indices(n), seed=861, window=(t, t + delta))
        sel = (sigma >= t) & (sigma <= t + delta)
        assert np.array_equal(sample.sigmas, sigma[sel])
        assert np.array_equal(sample.values, times[:, 1])
        if t + delta < p.horizon:
            assert sample.nodes_expanded < work.nodes_expanded
        else:
            assert (sample.nodes_expanded, sample.nodes_pruned) == \
                (work.nodes_expanded, work.nodes_pruned)

    @pytest.mark.parametrize("contact", ["unit", "halved"])
    def test_estimate_B_matches_full_horizon(self, kernel, ic, contact):
        rate = ContactRate.constant(1.0) if contact == "unit" else ContactRate(**HALVED)
        p = tree_params(kernel, ic, rate, horizon=8.0)
        grid = np.array([1.0, 3.0, 6.0])
        curve = estimate_B(p, grid, 5_000, seed=862)
        sigma, _, _, work = _expand_batch(p, _indices(5_000), seed=862)
        frac = (sigma[:, None] <= grid[None, :]).mean(axis=0)
        assert np.array_equal(curve.estimate, p.s0 * frac)
        assert np.array_equal(curve.se, p.s0 * np.sqrt(frac * (1.0 - frac) / 5_000))
        assert curve.nodes_expanded < work.nodes_expanded


class TestPoissonCounts:
    @pytest.mark.parametrize("mean", [0.0, 0.015, 1.485, 50.0])
    def test_guide_table_equals_searchsorted(self, mean):
        counts = poisson_counts(mean)
        knots = counts.cum[counts.cum < 1.0]
        u = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], knots,
                            np.nextafter(knots, 0.0), np.nextafter(knots, 1.0),
                            np.random.default_rng(871).random(100_000)))
        u = u[u < 1.0]  # keyed uniforms lie in [0, 1)
        assert np.array_equal(counts.index(u), np.searchsorted(counts.cum, u, side="right"))

    def test_cdf_is_scipy_poisson_cdf_bit_for_bit(self, kernel, ic):
        # the tables are built from scipy.special.pdtr so that the package need
        # not import scipy.stats; every K_S and K_I draw rests on this equality
        reference = [(1.0 - ic.i0) * kernel.r0, ic.i0 * ic.r0_bar]
        for mean in np.concatenate((np.arange(3001) * 0.01, reference, [1e-6, 123.4])):
            cdf = poisson_counts(mean).cum
            assert cdf.tobytes() == stats.poisson.cdf(np.arange(cdf.size), mean).tobytes(), mean

