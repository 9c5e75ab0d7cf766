"""Experiment configuration: flat key/value text format and validation.

Grammar: one ``key = value`` per line; ``#`` starts a comment; blank lines
are ignored; unknown keys are rejected (typo safety).  Every key has a
default, so the empty document is a valid configuration (the standard
15-agent planar rendezvous setup).  ``serialize`` emits every key with
floats at 17 significant digits, so ``parse_config(cfg.serialize()) == cfg``
exactly.

Building an ``ExperimentConfig``, ``dataclasses.replace`` included, checks
it and raises ``ConfigError`` listing every violation at once, so code handed
a config trusts it.  ``x0`` and ``targets`` are stored as float tuples.
The violations come in one order: each field's own rule (its type, then its
range or form) in field order, then the rules across fields.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gains import GainSchedule, InvalidScheduleError
from .objectives import (
    ASSIGNMENT,
    COVERAGE,
    QUADRATIC,
    RENDEZVOUS,
    TASKS,
    AssignmentPayload,
    CoveragePayload,
    ObjectiveSpec,
    QuadraticPayload,
    circle_formation,
    freeze_assignment,
    unit_cube_grid,
)

LAW_BC = "bc"
LAW_PBC = "pbc"
LAW_PAIRED = "paired"
LAWS = (LAW_BC, LAW_PBC, LAW_PAIRED)
MODES = ("figure", "theorem")
EVERY_STEP = "every-step"
ONCE_AT_START = "once-at-start"
RETAIN = ("auto", "true", "false")


class ConfigError(ValueError):
    """Invalid configuration; ``violations`` lists every problem found."""

    def __init__(self, violations: list):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def _is_int(value) -> bool:
    # bool is an Integral, but True would serialize as "True"
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # likewise a bool is a Real, and True would serialize as "True"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_float(value):
    # a numpy float32 or a Fraction would serialize in another format than
    # the 17-digit float one that parse_config reads back
    try:
        return float(value) if _is_real(value) else value
    except OverflowError:
        return value  # an int beyond the float range: validate reports it


def _as_floats(values):
    # a list or array would serialize as its repr, not in the flat float
    # format that parse_config reads back; anything but real numbers is left
    # as it is, for validate to report
    try:
        # rows of unequal length stay lists, which are not real
        flat = np.asarray(values, dtype=object).ravel()
        if values is not None and all(map(_is_real, flat)):
            return tuple(float(v) for v in flat)
    except (ValueError, OverflowError):
        pass  # arrays of unequal shape, or an int beyond the float range
    return values


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("non-finite")
    return value


def _g17(value) -> str:
    return "" if value is None else format(value, ".17g")


# Per annotation, as text (annotations are postponed in this module): how a
# value is stored, the test of its type, how its text is parsed and rendered,
# and the violation for a value of another type, as the text after
# "<field> must ", formatted with the value
_Kind = namedtuple("_Kind", "store test parse render must")
_KINDS = {
    "str": _Kind(lambda v: v, lambda v: isinstance(v, str), str, str, "be a string, got {!r}"),
    "int": _Kind(lambda v: v, _is_int, int, str, "be an integer, got {!r}"),
    "float": _Kind(
        _as_float, lambda v: isinstance(v, float), _finite_float, _g17, "be a float, got {!r}"
    ),
    "Optional[float]": _Kind(
        _as_float,
        lambda v: isinstance(v, (float, type(None))),
        lambda raw: None if raw == "" else float(raw),
        _g17,
        "be a float or None, got {!r}",
    ),
    "Optional[tuple]": _Kind(
        _as_floats,
        lambda v: v is None or isinstance(v, tuple) and all(type(x) is float for x in v),
        lambda raw: None if raw == "" else tuple(map(float, raw.replace(",", " ").split())),
        lambda v: "" if v is None else " ".join(map(_g17, v)),
        "be a sequence of floats, got {!r}",
    ),
}


def _rule(default, test, must: str, any_type: bool = False):
    """A field whose value must pass ``test`` if it is of the annotation's type,
    or always if ``any_type``; ``must`` formatted with the value follows
    "<field> must " in the violation."""
    return dataclasses.field(
        default=default, metadata={"test": test, "must": must, "any_type": any_type}
    )


def _one_of(default: str, choices: tuple, must: str = ""):
    # the choices are strings, so a value of another type fails the test too,
    # and its violation names the choices
    must = must or f"be one of {choices}, got {{!r}}"
    return _rule(default, choices.__contains__, must, any_type=True)


def _at_least(default: int, low: int):
    return _rule(default, lambda v: v >= low, f"be >= {low}, got {{}}")


def _all_finite(values) -> bool:
    return values is None or all(map(math.isfinite, values))


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = _one_of(RENDEZVOUS, TASKS)
    law: str = _one_of(LAW_PBC, LAWS)
    K: int = _at_least(1, 1)
    N: int = _at_least(15, 1)
    n: int = _at_least(2, 1)
    steps: int = _at_least(300, 0)
    trials: int = _at_least(1, 1)
    # the sign hash reduces the seed modulo 2**64: outside this range two
    # configs whose manifests differ would draw the same signs
    master_seed: int = _rule(0, lambda v: 0 <= v < 2**64, "lie in [0, 2**64), got {}")
    mode: str = _one_of("figure", MODES)
    # serialize writes out_dir as it is; the parser cuts lines at '#' and strips them
    out_dir: str = _rule(
        "out",
        lambda d: "#" not in d and d == d.strip() and len(d.splitlines()) <= 1,
        "hold no '#', line break or edge whitespace, got {!r}",
    )
    a0: float = 2.0
    a_p: float = 0.7
    c0: float = 0.003
    c_p: float = 0.16
    t_v: float = 20.0
    l1: float = 100.0
    l2: float = _rule(101.0, math.isfinite, "be finite, got {}")
    grid_spacing: float = _rule(0.01, lambda v: 0 < v < 1, "lie in (0, 1), got {}")
    formation_radius: float = _rule(
        0.2, lambda v: 0 < v < math.inf, "be positive and finite, got {}"
    )
    formation_count: int = _at_least(15, 1)
    targets: Optional[tuple] = _rule(None, _all_finite, "be finite")
    reassignment: str = _one_of(
        EVERY_STEP,
        (EVERY_STEP, ONCE_AT_START),
        f"be {EVERY_STEP!r} or {ONCE_AT_START!r}, got {{!r}}",
    )
    smooth_min_eps: Optional[float] = _rule(
        None, lambda v: v is None or -math.inf < v < 0, "be finite and negative, got {}"
    )
    x0: Optional[tuple] = _rule(None, _all_finite, "be finite")
    retain_trajectories: str = _one_of("auto", RETAIN)
    workers: int = _at_least(1, 1)

    # -- validation ---------------------------------------------------------

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _KINDS[f.type].store(getattr(self, f.name)))
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Raise ``ConfigError`` listing every violation, or return ``self``."""
        out, typed = [], set()
        for f in dataclasses.fields(self):
            value, kind, rule = getattr(self, f.name), _KINDS[f.type], f.metadata
            if kind.test(value):
                typed.add(f.name)
            elif not rule.get("any_type"):
                out.append(f"{f.name} must " + kind.must.format(value))
                continue
            if "test" in rule and not rule["test"](value):
                out.append(f"{f.name} must " + rule["must"].format(value))
        # the rules across fields skip a field of another type
        if self.law == LAW_PAIRED and self.K != 1:
            out.append(f"paired law requires K = 1, got K = {self.K}")
        if typed >= {"a0", "a_p", "c0", "c_p", "t_v"}:
            try:
                self.schedule()
            except InvalidScheduleError as err:
                out.extend(err.violations)
        if typed >= {"l1", "l2"} and not 0 < self.l1 < self.l2:
            out.append(f"need 0 < l1 < l2, got l1={self.l1}, l2={self.l2}")
        for name in ("x0", "targets"):
            values = getattr(self, name)
            if values is not None and typed >= {name, "n", "N"} and len(values) != self.n * self.N:
                out.append(f"{name} must hold n*N = {self.n * self.N} values, got {len(values)}")
        if self.task == RENDEZVOUS and self.n != 2:
            out.append("the default formation family is planar; rendezvous needs n = 2")
        if self.task == ASSIGNMENT and self.n != 2 and self.targets is None:
            out.append("assignment with n != 2 requires explicit targets")
        if out:
            raise ConfigError(out)
        return self

    # -- derived objects -----------------------------------------------------

    def schedule(self) -> GainSchedule:
        return GainSchedule(self.a0, self.a_p, self.c0, self.c_p, self.t_v)

    def initial_state(self) -> np.ndarray:
        """The flat, agent-major start state of length ``n*N``."""
        if self.x0 is not None:
            return np.asarray(self.x0, dtype=np.float64)
        idx = np.arange(1, self.N + 1)
        if self.task == COVERAGE:
            # ring of radius 0.2 around the workspace center
            pts = np.full((self.N, self.n), 0.5)
            ang = 2.0 * np.pi * idx / self.N
            pts[:, 0] += 0.2 * np.cos(ang)
            if self.n >= 2:
                pts[:, 1] += 0.2 * np.sin(ang)
            return pts.ravel()
        # diagonal line: agent i at 0.9*(i/N) * ones
        pts = (0.9 * idx / self.N)[:, None] * np.ones(self.n)[None, :]
        return pts.ravel()

    def objective_spec(self) -> ObjectiveSpec:
        if self.task == COVERAGE:
            payload = CoveragePayload(grid=unit_cube_grid(self.n, self.grid_spacing))
        elif self.task == RENDEZVOUS:
            payload = circle_formation(
                self.N,
                radius=self.formation_radius,
                thetas=tuple(range(1, self.formation_count + 1)),
            )
        elif self.task == ASSIGNMENT:
            if self.targets is not None:
                targets = np.asarray(self.targets).reshape(self.N, self.n)
            else:
                ang = 2.0 * np.pi * np.arange(1, self.N + 1) / self.N
                targets = self.formation_radius * np.column_stack(
                    [np.cos(ang), np.sin(ang)]
                )
            payload = AssignmentPayload(targets=targets)
            if self.reassignment == ONCE_AT_START:
                payload = freeze_assignment(payload, self.initial_state())
        else:
            # dimension-normalized identity: keeps the standard gain schedule
            # stable at any nN (the per-step contraction depends on a * nN
            # times the curvature scale)
            d = self.n * self.N
            payload = QuadraticPayload(H=np.eye(d) / d)
        return ObjectiveSpec(
            kind=self.task,
            n=self.n,
            N=self.N,
            payload=payload,
            l1=self.l1,
            l2=self.l2,
            smooth_min_epsilon=self.smooth_min_eps,
        )

    # -- serialization -------------------------------------------------------

    def serialize(self) -> str:
        return "".join(
            f"{f.name} = {_KINDS[f.type].render(getattr(self, f.name))}\n"
            for f in dataclasses.fields(self)
        )


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key/value format, reporting every violation at once."""
    violations: list = []
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            violations.append(f"line {lineno}: unknown key {key!r}")
        elif key in values:
            violations.append(f"line {lineno}: duplicate key {key!r}")
        else:
            try:
                values[key] = _KINDS[_FIELDS[key].type].parse(raw)
            except ValueError:
                violations.append(f"cannot parse {key} from {raw!r}")
                values[key] = _FIELDS[key].default
    try:
        config = ExperimentConfig(**values)
    except ConfigError as err:
        violations.extend(err.violations)
    if violations:
        raise ConfigError(violations)
    return config


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
