"""Scenario configuration: strict JSON schema, canonical digests, parts.

A scenario pins everything a run needs: the course model, the contact rate,
the seeded fraction and its age density, population size, horizon, grid
steps, and the master seed.  `ScenarioConfig` is the one home of its parts:
`model`, `contact_rate`, `ic` and `solution` are each built on first use
and kept.  Parsing is strict: it checks the JSON shape (unknown or missing
keys are errors), then builds the course model, contact rate and initial
condition and checks the time grid, whose own checks are the one home of
each range rule, and reports every problem found at once.  The canonical
digest is invariant under key reordering, so artifacts stamped with it are
comparable across reruns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from functools import cached_property

from .courses import CourseModel, MarkovSEIR, MarkovSIR
from .kernels import ContactRate, InitialCondition, initial_condition, malthusian_parameter
from .limit_solver import LimitSolution, _time_grid, solve_delay
from .rng import SHOWN, as_real, check_count

_COURSE_KEYS = {
    "markov_sir": {"beta", "gamma"},
    "markov_seir": {"beta", "activation", "recovery"},
}
_CONTACT_KEYS = {"kind", "knots", "levels"}
_AGE_KEYS = {
    "exponential": {"rate"},
    "malthusian": set(),
}
_TOP_KEYS = {
    "course", "contact", "i0", "initial_age", "n_individuals", "horizon",
    "dt", "age_step", "a_max", "seed", "out_dir",
}
_REQUIRED_KEYS = _TOP_KEYS - {"out_dir"}


class ConfigError(ValueError):
    """Carries every validation problem found in one pass."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ScenarioConfig:
    course: dict
    contact: dict
    i0: float
    initial_age: dict
    n_individuals: int
    horizon: float
    dt: float
    age_step: float
    a_max: float
    seed: int
    out_dir: str = "out"

    def to_dict(self) -> dict:
        return json.loads(json.dumps(asdict(self)))

    @property
    def digest(self) -> str:
        """Content hash of the scenario (output location excluded)."""
        payload = self.to_dict()
        payload.pop("out_dir")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # parts: each built on first use, once; the instance is frozen, so none
    # can go stale.  a_max and the age rate pass `as_real` first: None would
    # ask the constructors for their default

    @cached_property
    def model(self) -> CourseModel:
        fam, a_max = self.course["family"], as_real("a_max", self.a_max)
        if fam == "markov_sir":
            return MarkovSIR(self.course["beta"], self.course["gamma"],
                             step=self.age_step, a_max=a_max)
        return MarkovSEIR(self.course["beta"], self.course["activation"],
                          self.course["recovery"], step=self.age_step, a_max=a_max)

    @cached_property
    def contact_rate(self) -> ContactRate:
        return ContactRate(knots=self.contact["knots"], levels=self.contact["levels"],
                           kind=self.contact["kind"])

    @cached_property
    def ic(self) -> InitialCondition:
        kernel = self.model.kernel
        fam = self.initial_age["family"]
        rate = (as_real("initial_age.rate", self.initial_age["rate"]) if fam == "exponential"
                else malthusian_parameter(kernel).alpha)
        return initial_condition(kernel, self.i0, age_rate=rate)

    @cached_property
    def solution(self) -> LimitSolution:
        """The limit system of this scenario solved on [0, horizon] at step dt."""
        return solve_delay(self.model.kernel, self.contact_rate, self.ic, self.horizon, self.dt)


def _key_errors(where: str, obj: dict, allowed: set, required: set) -> list[str]:
    errors = []
    if unknown := sorted(set(obj) - allowed):  # the input's names, cut as `SHOWN` cuts a dict
        names = [k if SHOWN.repr(k) == repr(k) else SHOWN.repr(k) for k in unknown]
        names[SHOWN.maxdict:] = ["..."] * (len(names) > SHOWN.maxdict)
        errors.append(f"unknown {where}keys: {', '.join(names)}")
    if missing := sorted(required - set(obj)):  # the schema's own names, all of them
        errors.append(f"missing {where}keys: {', '.join(missing)}")
    return errors


def _family_errors(name: str, obj, families: dict) -> list[str]:
    """Shape problems of the `name` object: a known family and exactly its keys."""
    if not isinstance(obj, dict) or "family" not in obj:
        return [f"{name} must be an object with a 'family' key"]
    fam = obj["family"]
    if not isinstance(fam, str) or fam not in families:
        return [f"unknown {name} family {SHOWN.repr(fam)}"]
    return _key_errors(f"{name} ", obj, families[fam] | {"family"}, families[fam])


def _real(value):
    """`value` as a float when it is a real number; a bool, a non-real value
    or an int beyond the float range as it is, for the builders to reject."""
    try:
        return as_real("value", value)
    except ValueError:
        return value


def _build_errors(cfg: ScenarioConfig, shaped: set[str]) -> list[str]:
    """The first problem of each of `cfg`'s parts whose shape passed, as its
    builder reports it: the course model, the contact rate, the initial
    condition (once the course is built) and the solvers' time-grid check."""
    errors = []

    def build(part, getter) -> bool:
        try:
            getter()
        except ValueError as exc:
            errors.append(f"{part}: {exc}")
            return False
        return True

    model = "course" in shaped and build("course", lambda: cfg.model)
    if "contact" in shaped:
        build("contact", lambda: cfg.contact_rate)
    if model and "initial_age" in shaped:
        build("initial condition", lambda: cfg.ic)
    build("time grid", lambda: _time_grid(cfg.horizon, cfg.dt, cfg.age_step))
    return errors


def parse_config(raw: dict) -> ScenarioConfig:
    """Check a raw mapping's shape, then build each part whose shape passed;
    raises ConfigError listing every shape problem and the first problem of
    each part.  The scenario returned holds the parts so built.  Numbers come
    back as floats before anything is built, so a JSON 1 and 1.0 share a
    digest."""
    errors = _key_errors("", raw, _TOP_KEYS, _REQUIRED_KEYS)
    if not _REQUIRED_KEYS <= set(raw):
        raise ConfigError(errors)
    fields = {key: _real(raw[key]) for key in ("i0", "horizon", "dt", "age_step", "a_max")}
    contact = raw["contact"]
    shape = {
        "course": _family_errors("course", raw["course"], _COURSE_KEYS),
        "contact": (_key_errors("contact ", contact, _CONTACT_KEYS, _CONTACT_KEYS - {"kind"})
                    if isinstance(contact, dict) else ["contact must be an object"]),
        "initial_age": _family_errors("initial_age", raw["initial_age"], _AGE_KEYS),
    }
    for part, problems in shape.items():
        errors += problems
        fields[part] = raw[part] if problems else dict(raw[part])
    if not shape["contact"]:
        fields["contact"] = {"kind": "step", **contact}
        for key in ("knots", "levels"):
            if isinstance(contact[key], (list, tuple)):
                fields["contact"][key] = [_real(v) for v in contact[key]]
    for key, minimum in (("n_individuals", 1), ("seed", 0)):
        try:
            fields[key] = check_count(key, raw[key], minimum)
        except ValueError as exc:
            errors.append(str(exc))
            fields[key] = raw[key]
    fields["out_dir"] = raw.get("out_dir", "out")
    if not isinstance(fields["out_dir"], str):
        errors.append("out_dir must be a string")
    cfg = ScenarioConfig(**fields)
    errors += _build_errors(cfg, {part for part, problems in shape.items() if not problems})
    if errors:
        raise ConfigError(errors)
    return cfg


def read_config(path: str) -> dict:
    """The raw scenario mapping in the JSON file `path`, for `parse_config`."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    return raw


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply `--set dotted.key=value` pairs to the raw mapping (strict paths).

    Values parse as JSON; bare words fall back to strings.
    """
    out = json.loads(json.dumps(raw))
    errors = []
    for item in overrides:
        if "=" not in item:
            errors.append(f"override {SHOWN.repr(item)} is not of the form key=value")
            continue
        path, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        *parents, key = path.split(".")
        node = out
        for p in parents:  # a missing step leaves None, which holds no key
            node = node.get(p) if isinstance(node, dict) else None
        if isinstance(node, dict) and key in node:
            node[key] = value
        else:
            errors.append(f"override path {SHOWN.repr(path)} does not exist")
    if errors:
        raise ConfigError(errors)
    return out


def reference_scenario(**changes) -> ScenarioConfig:
    """The built-in benchmark scenario; keyword arguments replace fields."""
    cfg = ScenarioConfig(
        course={"family": "markov_sir", "beta": 1.5, "gamma": 1.0},
        contact={"kind": "step", "knots": [0.0], "levels": [1.0]},
        i0=0.01,
        initial_age={"family": "exponential", "rate": 0.5},
        n_individuals=50_000,
        horizon=25.0,
        dt=0.005,
        age_step=0.005,
        a_max=40.0,
        seed=20_240_901,
    )
    return replace(cfg, **changes) if changes else cfg

