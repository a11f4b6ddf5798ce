"""Scenario configuration and the command-line entry point."""

import concurrent.futures
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epichain import (
    ConfigError, ContactRate, MarkovSEIR, MarkovSIR, ScenarioConfig, apply_overrides,
    derive_seed, parse_config, reference_scenario, sample_renewal_chains, simulate,
)
from epichain import kernels, poisson_tree
from epichain.cli import main
from epichain.config import read_config
from epichain.kernels import InitialCondition
from epichain.limit_solver import _time_grid
from helpers import kill_tree_workers


_ZERO_MASS = "initial condition: shifted intensity has zero mass; no initial infectivity"


class TestScenarioConfig:
    def test_reference_values(self):
        cfg = reference_scenario()
        assert cfg.course == {"family": "markov_sir", "beta": 1.5, "gamma": 1.0}
        assert cfg.i0 == 0.01
        assert cfg.n_individuals == 50_000
        assert cfg.horizon == 25.0

    def test_round_trip(self, tmp_path):
        cfg = reference_scenario(horizon=10.0)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
        assert parse_config(read_config(str(path))) == cfg

    def test_digest_ignores_key_order_and_out_dir(self):
        cfg = reference_scenario()
        reordered = cfg.to_dict()
        reordered["course"] = dict(reversed(list(reordered["course"].items())))
        reordered["out_dir"] = "elsewhere"
        assert parse_config(reordered).digest == cfg.digest

    def test_digest_changes_with_values(self):
        assert reference_scenario().digest != reference_scenario(i0=0.02).digest

    def test_builders(self):
        cfg = reference_scenario()
        model = cfg.model
        assert isinstance(model, MarkovSIR)
        assert model.kernel.step == cfg.age_step
        contact = cfg.contact_rate
        assert isinstance(contact, ContactRate)
        assert float(contact(3.0)) == 1.0
        ic = cfg.ic
        assert ic.i0 == 0.01
        assert ic.age_rate == 0.5
        assert ic.kernel is model.kernel
        # each part is built once and kept, and the solution reads them
        assert cfg.model is model and cfg.contact_rate is contact and cfg.ic is ic
        sol = reference_scenario(horizon=2.0).solution
        assert sol.t[-1] == 2.0 and sol.ic.i0 == 0.01

    def test_malthusian_initial_age(self):
        ic = reference_scenario(initial_age={"family": "malthusian"}).ic
        assert ic.age_rate == pytest.approx(0.5, abs=1e-8)

    def test_all_errors_collected(self):
        raw = reference_scenario().to_dict()
        raw["i0"] = 1.5
        raw["contact"]["levels"] = [1.2]
        raw["bogus"] = 1
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        joined = "\n".join(err.value.errors)
        assert len(err.value.errors) == 3
        assert "initial condition: initial infection probability i0 must lie in (0, 1), got 1.5" \
            in joined
        assert "contact: contact rate levels must lie in [0, 1], got [1.2]" in joined
        assert "unknown keys: bogus" in joined

    def test_incommensurate_steps_rejected(self):
        raw = reference_scenario().to_dict()
        raw["dt"] = 0.003
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_apply_overrides(self):
        raw = reference_scenario().to_dict()
        out = apply_overrides(raw, ["course.beta=2.0", "n_individuals=1000",
                                    "initial_age.family=exponential"])
        assert out["course"]["beta"] == 2.0
        assert out["n_individuals"] == 1000
        assert out["initial_age"]["family"] == "exponential"

    def test_overrides_reject_unknown_paths(self):
        raw = reference_scenario().to_dict()
        with pytest.raises(ConfigError):
            apply_overrides(raw, ["course.nonsense=1"])

    # a missing last key, a missing first step, and a step that is not an object
    @pytest.mark.parametrize("path", ["course.nonsense", "nonsense.beta", "course.beta.x"])
    def test_override_path_message(self, path):
        raw = reference_scenario().to_dict()
        with pytest.raises(ConfigError) as err:
            apply_overrides(raw, [f"{path}=1"])
        assert err.value.errors == [f"override path {path!r} does not exist"]

    def test_mistyped_knot_is_a_config_error(self):
        raw = apply_overrides(reference_scenario().to_dict(),
                              ['contact.knots=[0,"x"]', "contact.levels=[1,0.5]"])
        with pytest.raises(ConfigError,
                           match=r"contact rate knots\[1\] must be a real number, got 'x'"):
            parse_config(raw)

    @pytest.mark.parametrize("horizon", [float("inf"), 10**400, True])
    def test_non_finite_horizon_is_a_config_error(self, horizon):
        raw = reference_scenario().to_dict()
        raw["horizon"] = horizon
        with pytest.raises(ConfigError,
                           match="^time grid: horizon must be finite and positive, got ") as err:
            parse_config(raw)
        # 10**400 has 401 digits; the line shows about 40 of them
        (line,) = err.value.errors
        assert len(line) < 120

    # each value as `reprlib` shows it: a 500-character name, an int of 401
    # digits or 300 numbers once gave lines of 469 to 2036 characters
    @pytest.mark.parametrize("changes, start", [
        ({"contact.kind": "k" * 500}, "contact: unknown contact rate kind 'kkk"),
        ({"contact.knots": 10**400}, "contact: contact rate knots must be a sequence of real "
                                     "numbers, got 1000"),
        ({"contact.knots": [float(300 - i) for i in range(300)],
          "contact.levels": [1.0] * 300},
         "contact: contact rate knots must start at t = 0, got [300.0, "),
        ({"contact.knots": [0.0] * 300, "contact.levels": [1.0] * 300},
         "contact: contact rate knots must be strictly increasing, got [0.0, "),
        ({"contact.knots": [float(i) for i in range(300)], "contact.levels": [2.0] * 300},
         "contact: contact rate levels must lie in [0, 1], got [2.0, "),
        ({"contact.knots": [float(i) for i in range(299)] + [float("inf")],
          "contact.levels": [1.0] * 300},
         "contact: contact rate knots must be finite, got [0.0, "),
        ({"course.family": "f" * 500}, "unknown course family 'fff"),
        ({"x" * 500: 1}, "unknown keys: 'xxx"),
        ({"n_individuals": "n" * 500}, "n_individuals must be an integer, got 'nnn"),
        # a JSON object shows two entries; ten long names were once 332 characters
        ({"i0": {"family": "markov_seir", "beta": 1.5, "activation": 1.0, "recovery": 2.0}},
         "initial condition: initial infection probability i0 must lie in (0, 1), got "
         "{'activation': 1.0, 'beta': 1.5, ...}"),
        ({chr(ord("a") + i) * 40: 1 for i in range(10)}, "unknown keys: 'aaa"),
    ], ids=["kind", "knots-int", "knots-start", "knots-order", "levels", "knots-inf", "family",
            "key", "count", "object", "ten-keys"])
    def test_messages_cap_their_values(self, changes, start):
        raw = _changed(reference_scenario().to_dict(), changes)
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        (line,) = err.value.errors
        assert line.startswith(start) and len(line) < 120

    def test_missing_keys_are_listed_in_full(self):
        # the cap is for names the input made up; the schema's own are all shown
        with pytest.raises(ConfigError) as err:
            parse_config({})
        assert err.value.errors == ["missing keys: a_max, age_step, contact, course, dt, "
                                    "horizon, i0, initial_age, n_individuals, seed"]

    def test_initial_condition_caps_i0(self, ic):
        # parse_config passes i0 as a float; the API takes any real number
        with pytest.raises(ValueError, match="^initial infection probability i0 must lie in "
                                             r"\(0, 1\), got 1000") as err:
            InitialCondition(i0=10**300, age_density=ic.age_density, kernel=ic.kernel,
                             age_rate=ic.age_rate)
        assert len(str(err.value)) < 120

    # the constructors read None as "use the default", which a scenario has not
    @pytest.mark.parametrize("part, key, message", [
        (None, "a_max", "course: a_max must be a real number, got None"),
        ("initial_age", "rate", "initial condition: initial_age.rate must be a real number, got None"),
    ])
    def test_null_number_is_a_config_error(self, part, key, message):
        raw = reference_scenario().to_dict()
        (raw[part] if part else raw)[key] = None
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(raw)

    # one-field changes the range rules once kept in two places disagreed on:
    # a_max = 1e300 passed the config's copy and failed the course build; a
    # zero beta names its fault
    @pytest.mark.parametrize("changes, message", [
        ({"a_max": 1e300}, None),
        ({"horizon": 1e9, "dt": 1e-3, "age_step": 1e-3}, None),
        ({"course.beta": 0}, _ZERO_MASS),
        ({"course": {"family": "markov_seir", "beta": 1.5, "activation": 1.0, "recovery": 1.0}},
         None),
        ({"i0": 1.5}, None),
        ({"dt": 0.003}, None),
        ({"contact.knots": [0.0, True], "contact.levels": [1.0, 0.5]}, None),
        ({"course": {"family": "markov_seir", "beta": 0, "activation": 1.0, "recovery": 2.0}},
         _ZERO_MASS),
    ], ids=["a_max", "horizon", "beta", "seir", "i0", "dt", "knot", "seir-beta"])
    def test_accepts_exactly_what_its_builders_build(self, changes, message):
        raw = _changed(reference_scenario().to_dict(), changes)
        errors = []
        try:
            cfg = parse_config(raw)
        except ConfigError as exc:
            cfg, errors = None, exc.errors
        built = ScenarioConfig(**raw)
        try:
            _, _, ic = built.model, built.contact_rate, built.ic
            _time_grid(built.horizon, built.dt, ic.tau_bar.step)
        except ValueError:
            assert cfg is None
        else:
            assert cfg is not None
        if message is not None:
            assert errors == [message]


def _changed(raw: dict, changes: dict) -> dict:
    """`raw` with each dotted path of `changes` set to its value."""
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = raw
        for p in parents:
            node = node[p]
        node[key] = value
    return raw


_JSON_SCALARS = st.one_of(
    st.integers(-10, 10), st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=3),
)
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3),
                         st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2))


@given(knots=st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES, max_size=4)),
       levels=st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES, max_size=4)))
@settings(max_examples=200, deadline=None)
def test_malformed_contact_raises_only_config_error(knots, levels):
    raw = reference_scenario().to_dict()
    raw["contact"]["knots"] = knots
    raw["contact"]["levels"] = levels
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    assert cfg.contact_rate.knots.size == len(knots)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# scenario_digest=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestCli:
    def test_solve_writes_curves(self, tmp_path, capsys):
        rc = main(["solve", "--out", str(tmp_path),
                   "--set", "horizon=5.0", "--set", "n_individuals=1000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"renewal residual \S+, inner iterations max [1-9]\d*\n", out)
        header, rows = _read_csv(tmp_path / "solve.csv")
        assert header == ["t", "b", "B", "S"]
        assert len(rows) == 1001
        t = np.array([float(r[0]) for r in rows])
        s = np.array([float(r[3]) for r in rows])
        assert t[0] == 0.0 and t[-1] == 5.0
        assert np.all(np.diff(s) <= 0)

    def test_solve_deterministic_rerun(self, tmp_path):
        argv = ["solve", "--out", str(tmp_path), "--set", "horizon=3.0"]
        assert main(argv) == 0
        first = (tmp_path / "solve.csv").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "solve.csv").read_bytes() == first

    def test_simulate(self, tmp_path):
        argv = ["simulate", "--out", str(tmp_path), "--replicas", "2",
                "--set", "n_individuals=2000", "--set", "horizon=5.0"]
        rc = main(argv)
        assert rc == 0
        header, rows = _read_csv(tmp_path / "simulate.csv")
        assert header[:3] == ["replica", "t", "susceptible"]
        assert "I" in header and "R" in header
        assert {r[0] for r in rows} == {"0", "1"}
        first = (tmp_path / "simulate.csv").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "simulate.csv").read_bytes() == first

    def test_tree(self, tmp_path):
        rc = main(["tree", "--out", str(tmp_path), "--samples", "2000",
                   "--points", "4", "--horizon", "6.0"])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "tree.csv")
        assert header == ["t", "B_hat", "se"]
        assert len(rows) == 4

    def test_tree_reports_work_on_stdout_only(self, tmp_path, capsys):
        argv = ["tree", "--out", str(tmp_path), "--samples", "2000", "--points", "4",
                "--horizon", "6.0"]
        assert main(argv) == 0
        first = (tmp_path / "tree.csv").read_bytes()
        out = capsys.readouterr().out
        assert re.search(r"nodes expanded \d+, pruned \d+, max depth \d+; \S+ nodes/s", out)
        assert re.search(r"chunks of at most \d+ nodes, workers \d+$", out, re.M)
        assert main(argv) == 0
        assert (tmp_path / "tree.csv").read_bytes() == first

    def test_simulate_reports_work_on_stdout_only(self, tmp_path, capsys):
        argv = ["simulate", "--out", str(tmp_path), "--replicas", "2",
                "--set", "n_individuals=2000", "--set", "horizon=5.0"]
        assert main(argv) == 0
        first = (tmp_path / "simulate.csv").read_bytes()
        out = capsys.readouterr().out
        line = re.search(r"^  contacts (\d+), accepted (\d+), infections (\d+), rounds (\d+), "
                         r"edges (\d+)$", out, re.M)
        assert line, out
        # the replicas' own counts, summed
        cfg = reference_scenario(n_individuals=2000, horizon=5.0)
        runs = [simulate(cfg.model, 2000, cfg.contact_rate, cfg.ic, 5.0,
                         seed=derive_seed(cfg.seed, "simulate", r)) for r in range(2)]
        assert [int(v) for v in line.groups()] == [
            sum(getattr(run, k) for run in runs)
            for k in ("contacts", "accepted", "infections", "rounds", "edges")]
        assert main(argv) == 0
        assert (tmp_path / "simulate.csv").read_bytes() == first

    def test_tree_past_node_cap_names_remedies(self, tmp_path, capsys):
        # at the built-in horizon of 25 the supercritical tree outgrows the node
        # cap; a lower cap reaches the same error in fewer nodes (the default
        # cap's run is test_tree_past_default_node_cap_stays_small)
        rc = main(["tree", "--samples", "2000", "--node-cap", "1000", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: node cap 1000 exceeded")
        assert "--horizon" in err and "--node-cap" in err
        assert "Traceback" not in err
        assert not (tmp_path / "tree.csv").exists()

    def test_tree_past_default_node_cap_stays_small(self, tmp_path, capsys, monkeypatch):
        # the cap trips in the first chunk of a few hundred samples, before the
        # runaway level's keys are drawn: about 250 MiB traced, where 2048-sample
        # chunks of 56-byte nodes traced 2.27 GiB before the same error.  That
        # chunk runs in this process, so no worker pool is made, even where
        # the batch would go to a pool of two
        monkeypatch.setattr(poisson_tree, "_workers", lambda: 2)
        pools = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kwargs: pools.append(args))
        tracemalloc.start()
        try:
            rc = main(["tree", "--samples", "2000", "--out", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: node cap 150000 exceeded")
        assert "Traceback" not in err
        assert not (tmp_path / "tree.csv").exists()
        assert peak < 512 * 2**20
        assert pools == []

    def test_tree_with_a_dead_worker_names_no_node_cap_remedy(self, tmp_path, capsys,
                                                               monkeypatch):
        kill_tree_workers(monkeypatch)
        monkeypatch.setattr(poisson_tree, "_workers", lambda: 2)
        monkeypatch.setattr(poisson_tree, "_FORK_NODES", 0)
        rc = main(["tree", "--samples", "2000", "--horizon", "6.0", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "node cap" not in err and "--horizon" not in err and "--node-cap" not in err
        assert "Traceback" not in err
        assert not (tmp_path / "tree.csv").exists()

    def test_chain_modes(self, tmp_path):
        for mode, name in [("renewal", "chain_renewal.csv"),
                           ("martingale", "chain_martingale.csv")]:
            rc = main(["chain", "--out", str(tmp_path), "--mode", mode,
                       "--samples", "500", "--t", "4.0",
                       "--set", "horizon=8.0"])
            assert rc == 0, mode
            assert (tmp_path / name).exists()

    def test_renewal_chain_skips_the_solve(self, tmp_path, monkeypatch):
        # the renewal sampler reads only the kernel
        def no_solve(self):
            raise AssertionError("renewal chains must not solve the limit system")

        monkeypatch.setattr(ScenarioConfig, "solution", property(no_solve))
        rc = main(["chain", "--out", str(tmp_path), "--mode", "renewal",
                   "--samples", "300", "--t", "4.0"])
        assert rc == 0
        _, rows = _read_csv(tmp_path / "chain_renewal.csv")
        cfg = reference_scenario()
        batch = sample_renewal_chains(4.0, cfg.model.kernel, 300,
                                      seed=derive_seed(cfg.seed, "chain", "renewal"))
        want = [(i, k, float(batch.times[i, k]))
                for i in range(300) for k in range(batch.lengths[i] + 1)]
        assert [(int(i), int(k), float(x)) for i, k, x in rows] == want

    def test_courses_dump(self, tmp_path):
        rc = main(["courses-dump", "--out", str(tmp_path), "--samples", "20"])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "courses.csv")
        assert header == ["course", "kind", "age", "compartment"]
        assert {r[0] for r in rows} == {str(i) for i in range(20)}

    # each command with cheap options; --horizon and --samples leave the
    # scenario's parts to the parse
    _CHEAP = {
        "solve": ["--horizon", "2"],
        "simulate": ["--horizon", "2"],
        "tree": ["--horizon", "2", "--samples", "1000"],
        "chain": ["--horizon", "2", "--samples", "50"],
        "courses-dump": ["--samples", "10"],
    }

    @pytest.mark.parametrize("source", ["plain", "set", "config"])
    @pytest.mark.parametrize("command", sorted(_CHEAP))
    def test_each_command_builds_its_scenario_once(self, tmp_path, monkeypatch, command,
                                                    source):
        counts = {"initial condition": 0, "course model": 0, "tau_bar": 0}

        def count(owner, name, part):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[part] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(InitialCondition, "__post_init__", "initial condition")
        count(MarkovSIR, "__init__", "course model")
        count(MarkovSEIR, "__init__", "course model")
        count(kernels, "bar_tau", "tau_bar")
        argv = [command, "--out", str(tmp_path)] + self._CHEAP[command]
        if source == "set":
            argv += ["--set", "i0=0.02"]
        if source == "config":
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(reference_scenario().to_dict()))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        # tau_bar is built by its first reader: the solver, the tree or the h-chains
        tau_bars = 0 if command in ("courses-dump", "simulate") else 1
        assert counts == {"initial condition": 1, "course model": 1, "tau_bar": tau_bars}

    @pytest.mark.parametrize("overrides, lines, digest", [
        ([], 686, "28f493f6d6077e8e4ec02f66caad2e31e25c32cb12edb237b00e8a953d4a22ac"),
        (["--set", 'course={"family":"markov_seir","beta":2.0,"activation":1.0,'
                   '"recovery":1.5}'],
         884, "1f4e389fb25a644170db5e92b97ba07cbbe9c0a050a6dd5acb6a6f60e8c1beaf"),
    ], ids=["sir", "seir"])
    def test_courses_dump_recorded_bytes(self, tmp_path, overrides, lines, digest):
        # recorded when the dump built an object per course: the bytes must not move
        rc = main(["courses-dump", "--out", str(tmp_path), "--samples", "200"] + overrides)
        assert rc == 0
        data = (tmp_path / "courses.csv").read_bytes()
        assert data.count(b"\n") == lines
        assert hashlib.sha256(data).hexdigest() == digest

    def test_courses_dump_rejects_negative_samples(self, tmp_path, capsys):
        rc = main(["courses-dump", "--out", str(tmp_path), "--samples", "-1"])
        assert rc == 1
        assert "--samples must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("replicas", ["0", "-2"])
    def test_simulate_rejects_bad_replicas(self, tmp_path, capsys, replicas):
        rc = main(["simulate", "--out", str(tmp_path), "--replicas", replicas,
                   "--set", "n_individuals=500"])
        assert rc == 1
        assert f"error: --replicas must be at least 1, got {replicas}" in capsys.readouterr().err
        assert not (tmp_path / "simulate.csv").exists()

    def test_solve_rejects_a_grid_too_large(self, tmp_path, capsys):
        # 40 / 1e-300 overflowed to inf, and `round` raised OverflowError
        rc = main(["solve", "--out", str(tmp_path), "--set", "dt=1e-300",
                   "--set", "age_step=1e-300"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error: course: a grid of extent 40 at step 1e-300 would hold more than " \
            "10,000,000 points" in err
        assert "Traceback" not in err
        assert not (tmp_path / "solve.csv").exists()

    def test_tree_rejects_bad_points(self, tmp_path, capsys):
        rc = main(["tree", "--out", str(tmp_path), "--samples", "2000", "--points", "-1"])
        assert rc == 1
        assert "error: --points must be at least 2, got -1" in capsys.readouterr().err
        assert not (tmp_path / "tree.csv").exists()

    def test_tree_rejects_a_single_point(self, tmp_path, capsys):
        # one point is t = 0 alone: no tree grows, yet B_hat(T) would print as 0
        rc = main(["tree", "--out", str(tmp_path), "--samples", "2000", "--points", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: --points must be at least 2, got 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "tree.csv").exists()

    def test_renewal_chain_rejects_start_past_horizon(self, tmp_path, capsys):
        # renewal time and memory grow linearly in t: from 1e308 it would never end
        rc = main(["chain", "--out", str(tmp_path), "--mode", "renewal", "--t", "1e308"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: chain start 1e+308 lies past the solver horizon T=25" in err
        assert not (tmp_path / "chain_renewal.csv").exists()

    def test_validate_rejects_bad_criteria(self, tmp_path, capsys):
        rc = main(["validate", "--out", str(tmp_path), "--criteria", "2,x"])
        assert rc == 1
        assert "error: --criteria must list criterion numbers" in capsys.readouterr().err
        assert not (tmp_path / "validation.json").exists()

    def test_validate_rejects_scenario_options(self, tmp_path, capsys):
        # the suite always runs the built-in scenario, so it takes no seed
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--out", str(tmp_path), "--criteria", "2", "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "validation.json").exists()

    def test_chain_survival_rejects_zero_samples(self, tmp_path, capsys):
        rc = main(["chain", "--out", str(tmp_path), "--mode", "survival", "--samples", "0",
                   "--set", "horizon=8.0"])
        assert rc == 1
        assert "error: n_samples must be at least 1, got 0" in capsys.readouterr().err

    def test_validate_subset(self, tmp_path, capsys):
        rc = main(["validate", "--out", str(tmp_path), "--criteria", "2"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "criterion  2" in printed and "PASS" in printed
        report = json.loads((tmp_path / "validation.json").read_text())
        assert report["all_passed"] is True
        assert [r["criterion"] for r in report["criteria"]] == [2]
        (check,) = report["criteria"][0]["checks"]
        assert check["name"] == "sup |b_marching - b_picard|"
        assert check["threshold"] == 1e-6
        assert 0.0 <= check["value"] <= check["threshold"]
        assert check["passed"] is True
        assert check["n_samples"] == 25_001
        assert check["se"] == 0.0 and check["work"] == {}
        assert report["scenario_digest"] == reference_scenario().digest

    def test_bad_config_reports_every_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        raw = reference_scenario().to_dict()
        raw["i0"] = -1
        raw["horizon"] = -5
        bad.write_text(json.dumps(raw))
        rc = main(["solve", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("config error:") == 2

    def test_seed_override_changes_simulation(self, tmp_path):
        base = ["simulate", "--out", str(tmp_path),
                "--set", "n_individuals=500", "--set", "horizon=4.0"]
        main(base + ["--seed", "1"])
        first = (tmp_path / "simulate.csv").read_text()
        main(base + ["--seed", "2"])
        assert (tmp_path / "simulate.csv").read_text() != first
