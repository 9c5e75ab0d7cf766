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
"""

from __future__ import annotations

import dataclasses
import math
import numbers
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


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = RENDEZVOUS
    law: str = LAW_PBC
    K: int = 1
    N: int = 15
    n: int = 2
    steps: int = 300
    trials: int = 1
    master_seed: int = 0
    mode: str = "figure"
    out_dir: str = "out"
    a0: float = 2.0
    a_p: float = 0.7
    c0: float = 0.003
    c_p: float = 0.16
    t_v: float = 20.0
    l1: float = 100.0
    l2: float = 101.0
    grid_spacing: float = 0.01
    formation_radius: float = 0.2
    formation_count: int = 15
    targets: Optional[tuple] = None
    reassignment: str = EVERY_STEP
    smooth_min_eps: Optional[float] = None
    x0: Optional[tuple] = None
    retain_trajectories: str = "auto"
    workers: int = 1

    # -- validation ---------------------------------------------------------

    def __post_init__(self):
        # a numpy float32 or a Fraction would serialize in another format
        # than the 17-digit float one that parse_config reads back
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if _is_real(value):
                try:
                    object.__setattr__(self, name, float(value))
                except OverflowError:
                    pass  # an int beyond the float range: validate reports it
        # a list or array would serialize as its repr, not in the flat float
        # format that parse_config reads back; anything but real numbers is
        # left as it is, for validate to report
        for name in ("x0", "targets"):
            values = getattr(self, name)
            try:
                # rows of unequal length stay lists, which are not real
                flat = np.asarray(values, dtype=object).ravel()
                if values is not None and all(map(_is_real, flat)):
                    object.__setattr__(self, name, tuple(float(v) for v in flat))
            except (ValueError, OverflowError):
                pass  # arrays of unequal shape, or an int beyond the float range
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Raise ``ConfigError`` listing every violation, or return ``self``."""
        out = []
        if self.task not in TASKS:
            out.append(f"task must be one of {TASKS}, got {self.task!r}")
        if self.law not in LAWS:
            out.append(f"law must be one of {LAWS}, got {self.law!r}")
        if self.mode not in MODES:
            out.append(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.retain_trajectories not in RETAIN:
            out.append(
                f"retain_trajectories must be one of {RETAIN}, "
                f"got {self.retain_trajectories!r}"
            )
        if self.reassignment not in (EVERY_STEP, ONCE_AT_START):
            out.append(
                f"reassignment must be {EVERY_STEP!r} or {ONCE_AT_START!r}, "
                f"got {self.reassignment!r}"
            )
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_int(value):
                out.append(f"{f.name} must be an integer, got {value!r}")
            # __post_init__ stored each real value of a float field as a
            # float, so anything else is a bool, a string or the like
            if f.type == "float" and not isinstance(value, float):
                out.append(f"{f.name} must be a float, got {value!r}")
            if f.type == "Optional[float]" and not isinstance(value, (float, type(None))):
                out.append(f"{f.name} must be a float or None, got {value!r}")
        for name in ("K", "N", "n", "trials", "workers"):
            value = getattr(self, name)
            if _is_int(value) and value < 1:
                out.append(f"{name} must be >= 1, got {value}")
        # serialize writes out_dir as it is; the parser cuts lines at '#' and strips them
        d = self.out_dir
        if not isinstance(d, str):
            out.append(f"out_dir must be a string, got {d!r}")
        elif "#" in d or d != d.strip() or len(d.splitlines()) > 1:
            out.append(f"out_dir must hold no '#', line break or edge whitespace, got {d!r}")
        if _is_int(self.steps) and self.steps < 0:
            out.append(f"steps must be >= 0, got {self.steps}")
        # the sign hash reduces the seed modulo 2**64: outside this range two
        # configs whose manifests differ would draw the same signs
        if _is_int(self.master_seed) and not 0 <= self.master_seed < 2**64:
            out.append(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if self.law == LAW_PAIRED and self.K != 1:
            out.append(f"paired law requires K = 1, got K = {self.K}")
        # the range checks skip a float field of another type
        typed = {k for k in _FLOAT_FIELDS if isinstance(getattr(self, k), float)}
        if "grid_spacing" in typed and not 0 < self.grid_spacing < 1:
            out.append(f"grid_spacing must lie in (0, 1), got {self.grid_spacing}")
        if "formation_radius" in typed and not 0 < self.formation_radius < math.inf:
            out.append(
                f"formation_radius must be positive and finite, got {self.formation_radius}"
            )
        if _is_int(self.formation_count) and self.formation_count < 1:
            out.append(f"formation_count must be >= 1, got {self.formation_count}")
        if typed >= {"a0", "a_p", "c0", "c_p", "t_v"}:
            try:
                self.schedule()
            except InvalidScheduleError as err:
                out.extend(err.violations)
        if typed >= {"l1", "l2"} and not 0 < self.l1 < self.l2:
            out.append(f"need 0 < l1 < l2, got l1={self.l1}, l2={self.l2}")
        if "smooth_min_eps" in typed and not -math.inf < self.smooth_min_eps < 0:
            out.append(
                f"smooth_min_eps must be finite and negative, got {self.smooth_min_eps}"
            )
        for name in ("x0", "targets"):
            values = getattr(self, name)
            if values is None:
                continue
            # __post_init__ stored real numbers as a tuple of floats
            if not (isinstance(values, tuple) and all(type(v) is float for v in values)):
                out.append(f"{name} must be a sequence of floats, got {values!r}")
                continue
            if _is_int(self.n) and _is_int(self.N) and len(values) != self.n * self.N:
                out.append(
                    f"{name} must hold n*N = {self.n * self.N} values, got {len(values)}"
                )
            if not all(math.isfinite(v) for v in values):
                out.append(f"{name} must be finite")
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
        lines = []
        for f in dataclasses.fields(self):
            lines.append(f"{f.name} = {_render(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_FLOAT_FIELDS = tuple(n for n, f in _FIELDS.items() if f.type in ("float", "Optional[float]"))


def _is_int(value) -> bool:
    # bool is an Integral, but True would serialize as "True"
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # likewise a bool is a Real, and True would serialize as "True"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return " ".join(format(v, ".17g") for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _parse_value(key: str, raw: str, violations: list):
    raw = raw.strip()
    # the field's annotation, as text: annotations are postponed in this module
    kind = _FIELDS[key].type
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            v = float(raw)
            if math.isnan(v) or math.isinf(v):
                raise ValueError("non-finite")
            return v
        if kind == "Optional[float]":
            return None if raw == "" else float(raw)
        if kind == "Optional[tuple]":
            if raw == "":
                return None
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        return raw
    except ValueError:
        violations.append(f"cannot parse {key} from {raw!r}")
        return _FIELDS[key].default


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
            continue
        if key in values:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        values[key] = _parse_value(key, raw, violations)
    try:
        config = ExperimentConfig(**values)
    except ConfigError as err:
        violations.extend(err.violations)
    if violations:
        raise ConfigError(violations)
    return config


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())
