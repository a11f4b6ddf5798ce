"""Scenario configuration: strict JSON schema, canonical digests, builders.

A scenario pins everything a run needs: the course model, the contact rate,
the seeded fraction and its age density, population size, horizon, grid
steps, and the master seed; `ScenarioConfig.solve` is the one path from a
scenario to its limit solution.  Loading is strict (unknown keys are errors,
all problems are reported at once) and the canonical digest is invariant
under key reordering, so artifacts stamped with it are comparable across
reruns.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace

from .courses import CourseModel, MarkovSEIR, MarkovSIR
from .kernels import (
    ContactRate, InitialCondition, IntensityKernel, initial_condition, malthusian_parameter,
)
from .limit_solver import LimitSolution, solve_delay

_COURSE_KEYS = {
    "markov_sir": {"beta", "gamma"},
    "markov_seir": {"beta", "activation", "recovery"},
}
_AGE_KEYS = {
    "exponential": {"rate"},
    "malthusian": set(),
}
_TOP_KEYS = {
    "course", "contact", "i0", "initial_age", "n_individuals", "horizon",
    "dt", "age_step", "a_max", "seed", "out_dir",
}


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

    def build_model(self) -> CourseModel:
        fam = self.course["family"]
        if fam == "markov_sir":
            return MarkovSIR(self.course["beta"], self.course["gamma"],
                             step=self.age_step, a_max=self.a_max)
        return MarkovSEIR(self.course["beta"], self.course["activation"],
                          self.course["recovery"], step=self.age_step, a_max=self.a_max)

    def build_contact(self) -> ContactRate:
        return ContactRate(knots=self.contact["knots"], levels=self.contact["levels"],
                           kind=self.contact["kind"])

    def build_ic(self, kernel: IntensityKernel) -> InitialCondition:
        fam = self.initial_age["family"]
        rate = (self.initial_age["rate"] if fam == "exponential"
                else malthusian_parameter(kernel).alpha)
        return initial_condition(kernel, self.i0, age_rate=rate)

    def solve(self) -> LimitSolution:
        """The limit system of this scenario solved on [0, horizon] at step dt."""
        kernel = self.build_model().kernel
        return solve_delay(kernel, self.build_contact(), self.build_ic(kernel),
                           self.horizon, self.dt)


def _is_number(v) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _validate(raw: dict) -> list[str]:
    errors: list[str] = []

    unknown = set(raw) - _TOP_KEYS
    if unknown:
        errors.append(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = _TOP_KEYS - {"out_dir"} - set(raw)
    if missing:
        errors.append(f"missing keys: {', '.join(sorted(missing))}")
        return errors

    course = raw["course"]
    if not isinstance(course, dict) or "family" not in course:
        errors.append("course must be an object with a 'family' key")
    else:
        fam = course["family"]
        if fam not in _COURSE_KEYS:
            errors.append(f"unknown course family {fam!r}")
        else:
            extra = set(course) - _COURSE_KEYS[fam] - {"family"}
            lack = _COURSE_KEYS[fam] - set(course)
            if extra:
                errors.append(f"unknown course keys: {', '.join(sorted(extra))}")
            if lack:
                errors.append(f"missing course keys: {', '.join(sorted(lack))}")
            for k in _COURSE_KEYS[fam] & set(course):
                v = course[k]
                if not _is_number(v) or not v > 0:
                    errors.append(f"course.{k} must be a positive number")
            if fam == "markov_seir" and not errors and course["activation"] == course["recovery"]:
                errors.append("markov_seir requires activation != recovery")

    contact = raw["contact"]
    if not isinstance(contact, dict):
        errors.append("contact must be an object")
    else:
        extra = set(contact) - {"kind", "knots", "levels"}
        if extra:
            errors.append(f"unknown contact keys: {', '.join(sorted(extra))}")
        kind = contact.get("kind", "step")
        if kind not in ("step", "linear"):
            errors.append(f"contact kind must be 'step' or 'linear', got {kind!r}")
        knots = contact.get("knots")
        levels = contact.get("levels")
        if not isinstance(knots, list) or not isinstance(levels, list) or not knots:
            errors.append("contact needs nonempty 'knots' and 'levels' lists")
        else:
            if len(knots) != len(levels):
                errors.append("contact knots and levels must have equal length")
            if not all(_is_number(k) for k in knots):
                errors.append("contact knots must be finite numbers")
            else:
                if any(b <= a for a, b in zip(knots, knots[1:])):
                    errors.append("contact knots must be strictly increasing")
                if knots[0] != 0.0:
                    errors.append("contact knots must start at 0")
            if any(not _is_number(v) or not 0.0 <= v <= 1.0 for v in levels):
                errors.append("contact rate outside [0,1]")

    i0 = raw["i0"]
    if not _is_number(i0) or not 0.0 < i0 < 1.0:
        errors.append("I0 in (0,1) required")

    age = raw["initial_age"]
    if not isinstance(age, dict) or "family" not in age:
        errors.append("initial_age must be an object with a 'family' key")
    else:
        fam = age["family"]
        if fam not in _AGE_KEYS:
            errors.append(f"unknown initial_age family {fam!r}")
        else:
            extra = set(age) - _AGE_KEYS[fam] - {"family"}
            lack = _AGE_KEYS[fam] - set(age)
            if extra:
                errors.append(f"unknown initial_age keys: {', '.join(sorted(extra))}")
            if lack:
                errors.append(f"missing initial_age keys: {', '.join(sorted(lack))}")
            if fam == "exponential" and "rate" in age:
                if not _is_number(age["rate"]) or not age["rate"] > 0:
                    errors.append("initial_age.rate must be a positive number")

    n = raw["n_individuals"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        errors.append("n_individuals must be a positive integer")

    for key in ("horizon", "dt", "age_step", "a_max"):
        v = raw[key]
        if not _is_number(v) or not v > 0:
            errors.append(f"{key} must be a positive number")

    if not errors:
        if raw["a_max"] <= raw["age_step"]:
            errors.append("a_max must exceed age_step")
        ratio = raw["age_step"] / raw["dt"]
        if (abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio)
                and abs(1.0 / ratio - round(1.0 / ratio)) > 1e-9):
            errors.append("age_step and dt must be integer multiples of one another")
        n_steps = raw["horizon"] / raw["dt"]
        if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
            errors.append("horizon must be a multiple of dt")

    seed = raw["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append("seed must be a nonnegative integer")
    if "out_dir" in raw and not isinstance(raw["out_dir"], str):
        errors.append("out_dir must be a string")

    return errors


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a raw mapping; raises ConfigError listing every problem."""
    errors = _validate(raw)
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        course=dict(raw["course"]),
        contact={"kind": raw["contact"].get("kind", "step"),
                 "knots": [float(k) for k in raw["contact"]["knots"]],
                 "levels": [float(v) for v in raw["contact"]["levels"]]},
        i0=float(raw["i0"]),
        initial_age=dict(raw["initial_age"]),
        n_individuals=int(raw["n_individuals"]),
        horizon=float(raw["horizon"]),
        dt=float(raw["dt"]),
        age_step=float(raw["age_step"]),
        a_max=float(raw["a_max"]),
        seed=int(raw["seed"]),
        out_dir=str(raw.get("out_dir", "out")),
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

