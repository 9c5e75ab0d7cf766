"""Experiment configuration: flat key/value text format and validation.

Grammar: one ``key = value`` per line; ``#`` starts a comment; blank lines
are ignored; unknown keys are rejected (typo safety).  Every key has a
default, so the empty document is a valid configuration (the standard
15-agent planar rendezvous setup).  ``serialize`` emits every key with
floats at 17 significant digits, so ``parse_config(cfg.serialize()) == cfg``
exactly.

Validation reports all violations at once, not just the first.
"""

from __future__ import annotations

import dataclasses
import math
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

LAWS = ("bc", "pbc", "paired")
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
    law: str = "pbc"
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

    def violations(self) -> list:
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
        for name in ("K", "N", "n", "trials", "workers"):
            if getattr(self, name) < 1:
                out.append(f"{name} must be >= 1, got {getattr(self, name)}")
        # serialize writes out_dir as it is; the parser cuts lines at '#' and strips them
        d = self.out_dir
        if "#" in d or d != d.strip() or len(d.splitlines()) > 1:
            out.append(f"out_dir must hold no '#', line break or edge whitespace, got {d!r}")
        if self.steps < 0:
            out.append(f"steps must be >= 0, got {self.steps}")
        if self.law == "paired" and self.K != 1:
            out.append(f"paired law requires K = 1, got K = {self.K}")
        if not 0 < self.grid_spacing < 1:
            out.append(f"grid_spacing must lie in (0, 1), got {self.grid_spacing}")
        if not 0 < self.formation_radius < math.inf:
            out.append(
                f"formation_radius must be positive and finite, got {self.formation_radius}"
            )
        if self.formation_count < 1:
            out.append(f"formation_count must be >= 1, got {self.formation_count}")
        try:
            self.schedule()
        except InvalidScheduleError as err:
            out.extend(err.violations)
        if not 0 < self.l1 < self.l2:
            out.append(f"need 0 < l1 < l2, got l1={self.l1}, l2={self.l2}")
        if self.smooth_min_eps is not None and not -math.inf < self.smooth_min_eps < 0:
            out.append(
                f"smooth_min_eps must be finite and negative, got {self.smooth_min_eps}"
            )
        for name in ("x0", "targets"):
            values = getattr(self, name)
            if values is None:
                continue
            if len(values) != self.n * self.N:
                out.append(
                    f"{name} must hold n*N = {self.n * self.N} values, got {len(values)}"
                )
            if not all(math.isfinite(v) for v in values):
                out.append(f"{name} must be finite")
        if self.task == RENDEZVOUS and self.n != 2:
            out.append("the default formation family is planar; rendezvous needs n = 2")
        if self.task == ASSIGNMENT and self.n != 2 and self.targets is None:
            out.append("assignment with n != 2 requires explicit targets")
        return out

    def validate(self) -> "ExperimentConfig":
        bad = self.violations()
        if bad:
            raise ConfigError(bad)
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
    config = ExperimentConfig(**values)
    violations.extend(config.violations())
    if violations:
        raise ConfigError(violations)
    return config


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def with_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Replace fields and re-validate (flags win over the config file)."""
    updated = dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None}
    )
    return updated.validate()
