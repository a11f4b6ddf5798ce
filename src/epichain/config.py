"""Scenario configuration: strict JSON schema, canonical digests, builders.

A scenario pins everything a run needs: the course model, the contact rate,
the seeded fraction and its age density, population size, horizon, grid
steps, and the master seed; `ScenarioConfig.solve` is the one path from a
scenario to its limit solution.  Loading is strict: it checks the JSON
shape (unknown or missing keys are errors), then builds the course model,
contact rate, initial condition and time grid, whose own checks are the one
home of each range rule, and reports every problem found at once.  The
canonical digest is invariant under key reordering, so artifacts stamped
with it are comparable across reruns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

from .courses import CourseModel, MarkovSEIR, MarkovSIR
from .kernels import (
    ContactRate, InitialCondition, IntensityKernel, initial_condition, malthusian_parameter,
)
from .limit_solver import LimitSolution, _time_grid, solve_delay
from .rng import as_real, check_count

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

    # builders ------------------------------------------------------------

    # a_max and the age rate pass `as_real` first: None would ask the
    # constructors for their default
    def build_model(self) -> CourseModel:
        fam, a_max = self.course["family"], as_real("a_max", self.a_max)
        if fam == "markov_sir":
            return MarkovSIR(self.course["beta"], self.course["gamma"],
                             step=self.age_step, a_max=a_max)
        return MarkovSEIR(self.course["beta"], self.course["activation"],
                          self.course["recovery"], step=self.age_step, a_max=a_max)

    def build_contact(self) -> ContactRate:
        return ContactRate(knots=self.contact["knots"], levels=self.contact["levels"],
                           kind=self.contact["kind"])

    def build_ic(self, kernel: IntensityKernel) -> InitialCondition:
        fam = self.initial_age["family"]
        rate = (as_real("initial_age.rate", self.initial_age["rate"]) if fam == "exponential"
                else malthusian_parameter(kernel).alpha)
        return initial_condition(kernel, self.i0, age_rate=rate)

    def solve(self) -> LimitSolution:
        """The limit system of this scenario solved on [0, horizon] at step dt."""
        kernel = self.build_model().kernel
        return solve_delay(kernel, self.build_contact(), self.build_ic(kernel),
                           self.horizon, self.dt)


def _key_errors(where: str, obj: dict, allowed: set, required: set) -> list[str]:
    errors = []
    unknown = set(obj) - allowed
    if unknown:
        errors.append(f"unknown {where}keys: {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        errors.append(f"missing {where}keys: {', '.join(sorted(missing))}")
    return errors


def _family_errors(name: str, obj, families: dict) -> list[str]:
    """Shape problems of the `name` object: a known family and exactly its keys."""
    if not isinstance(obj, dict) or "family" not in obj:
        return [f"{name} must be an object with a 'family' key"]
    fam = obj["family"]
    if not isinstance(fam, str) or fam not in families:
        return [f"unknown {name} family {fam!r}"]
    return _key_errors(f"{name} ", obj, families[fam] | {"family"}, families[fam])


def _validate(raw: dict) -> tuple[list[str], set[str] | None]:
    """The problems with the JSON shape of `raw`, and the parts (course,
    contact, initial_age) whose shape passed, None while a key is missing.
    The values' ranges are for the builders to check."""
    errors = _key_errors("", raw, _TOP_KEYS, _REQUIRED_KEYS)
    if not _REQUIRED_KEYS <= set(raw):
        return errors, None
    contact = raw["contact"]
    parts = {
        "course": _family_errors("course", raw["course"], _COURSE_KEYS),
        "contact": (_key_errors("contact ", contact, _CONTACT_KEYS, _CONTACT_KEYS - {"kind"})
                    if isinstance(contact, dict) else ["contact must be an object"]),
        "initial_age": _family_errors("initial_age", raw["initial_age"], _AGE_KEYS),
    }
    for problems in parts.values():
        errors += problems
    for key, minimum in (("n_individuals", 1), ("seed", 0)):
        try:
            check_count(key, raw[key], minimum)
        except ValueError as exc:
            errors.append(str(exc))
    if not isinstance(raw.get("out_dir", ""), str):
        errors.append("out_dir must be a string")
    return errors, {part for part, problems in parts.items() if not problems}


def _build_errors(cfg: ScenarioConfig, shaped: set[str]) -> list[str]:
    """The first problem of each part that `cfg`'s builders and the solvers'
    time-grid check find: the course model, the contact rate, the initial
    condition (once the course is built) and the time grid."""
    errors = []

    def build(part, builder):
        try:
            return builder()
        except ValueError as exc:
            errors.append(f"{part}: {exc}")
            return None

    model = build("course", cfg.build_model) if "course" in shaped else None
    if "contact" in shaped:
        build("contact", cfg.build_contact)
    if model is not None and "initial_age" in shaped:
        build("initial condition", lambda: cfg.build_ic(model.kernel))
    build("time grid", lambda: _time_grid(cfg.horizon, cfg.dt, cfg.age_step))
    return errors


def parse_config(raw: dict) -> ScenarioConfig:
    """Check a raw mapping's shape, then build each part whose shape passed;
    raises ConfigError listing every shape problem and the first problem of
    each part.  Numbers come back as floats, so a JSON 1 and 1.0 share a
    digest."""
    errors, shaped = _validate(raw)
    if shaped is not None:
        fields = {key: raw[key] for key in _REQUIRED_KEYS}
        if "contact" in shaped:
            fields["contact"] = {"kind": "step", **raw["contact"]}
        cfg = ScenarioConfig(**fields, out_dir=raw.get("out_dir", "out"))
        errors += _build_errors(cfg, shaped)
    if errors:
        raise ConfigError(errors)
    return replace(
        cfg,
        course=dict(cfg.course),
        contact={"kind": cfg.contact["kind"],
                 "knots": [float(k) for k in cfg.contact["knots"]],
                 "levels": [float(v) for v in cfg.contact["levels"]]},
        i0=float(cfg.i0),
        initial_age=dict(cfg.initial_age),
        n_individuals=int(cfg.n_individuals),
        horizon=float(cfg.horizon),
        dt=float(cfg.dt),
        age_step=float(cfg.age_step),
        a_max=float(cfg.a_max),
        seed=int(cfg.seed),
    )


def load_config(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    return parse_config(raw)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply `--set dotted.key=value` pairs to the raw mapping (strict paths).

    Values parse as JSON; bare words fall back to strings.
    """
    out = json.loads(json.dumps(raw))
    errors = []
    for item in overrides:
        if "=" not in item:
            errors.append(f"override {item!r} is not of the form key=value")
            continue
        path, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        parts = path.split(".")
        ok = True
        for p in parts[:-1]:
            if not isinstance(node, dict) or p not in node:
                errors.append(f"override path {path!r} does not exist")
                ok = False
                break
            node = node[p]
        if ok:
            if not isinstance(node, dict) or parts[-1] not in node:
                errors.append(f"override path {path!r} does not exist")
            else:
                node[parts[-1]] = value
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

