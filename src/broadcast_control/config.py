"""Experiment configuration: flat key/value text format and validation.

Grammar: one ``key = value`` per line; ``#`` starts a comment; blank lines
are ignored; unknown keys are rejected (typo safety).  Every key has a
default, so the empty document is a valid configuration (the standard
15-agent planar rendezvous setup).  ``serialize`` emits every key with
floats at 17 significant digits, so ``parse_config(cfg.serialize()) == cfg``
exactly.

``parse_config`` is the one reader of a run's settings: a file's text, and
value texts (the ``run`` flags) that are read alike and win over its lines.
It also reads the trailer that a run's ``manifest`` adds to these lines, so
``run --config <dir>/manifest`` replays that run.

Building an ``ExperimentConfig``, ``dataclasses.replace`` included, checks
it and raises ``ConfigError`` listing every violation at once, so code handed
a config trusts it.  ``x0`` and ``targets`` are stored as float tuples.
The violations come in one order: each field's own rule (its type, then its
range or form) in field order, then the rules across fields.  The config is
the gain schedule of both laws: ``a0 ... t_v`` are its fields, their decay
conditions are rules across fields, and ``controllers.gain_a``, ``gain_c``
and ``bc_gains_at`` read them from the config.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._version import __version__
from .objectives import (
    AssignmentPayload,
    CoveragePayload,
    ObjectiveSpec,
    circle_formation,
    freeze_assignment,
    unit_cube_grid,
)
from .state import SIGN_GENERATOR_ID

COVERAGE = "coverage"
RENDEZVOUS = "rendezvous"
ASSIGNMENT = "assignment"
QUADRATIC = "quadratic"
TASKS = (COVERAGE, RENDEZVOUS, ASSIGNMENT, QUADRATIC)
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
        _as_float, lambda v: isinstance(v, float), float, _g17, "be a float, got {!r}"
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


def _rule(default, test, must, any_type: bool = False):
    """A field whose value must pass ``test`` if it is of the annotation's type,
    or always if ``any_type``; ``must`` formatted with the value, or called
    with it, follows "<field> must " in the violation."""
    must = must.format if isinstance(must, str) else must
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


def _divides_one(v: float) -> bool:
    # 1/v is within a few ulps of the whole m when v is 1/m rounded
    m = 1.0 / v
    return math.isfinite(m) and abs(m - round(m)) <= 2.0**-50 * m


# the coverage evaluator owns about 60 bytes a grid point at N = 15, so this
# many points take about 1 GB
_MAX_GRID_POINTS = 2**24


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
    # serialize writes out_dir as it is; the parser cuts lines at '#' and strips
    # them.  An empty one names no directory
    out_dir: str = _rule(
        "out",
        lambda d: d != "" and "#" not in d and d == d.strip() and len(d.splitlines()) <= 1,
        lambda d: f"hold no '#', line break or edge whitespace, got {d!r}" if d else "not be empty",
    )
    a0: float = 2.0
    a_p: float = 0.7
    c0: float = 0.003
    c_p: float = 0.16
    t_v: float = 20.0
    l1: float = 100.0
    l2: float = _rule(101.0, math.isfinite, "be finite, got {}")
    # unit_cube_grid takes round(1/spacing) steps, which end at 1 only when
    # the spacing divides it
    grid_spacing: float = _rule(
        0.01,
        lambda v: 0 < v < 1 and _divides_one(v),
        lambda v: f"divide 1 evenly, got {v}" if 0 < v < 1 else f"lie in (0, 1), got {v}",
    )
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
        out, typed, valid = [], set(), set()
        for f in dataclasses.fields(self):
            value, kind, rule = getattr(self, f.name), _KINDS[f.type], f.metadata
            if kind.test(value):
                typed.add(f.name)
            elif not rule.get("any_type"):
                out.append(f"{f.name} must " + kind.must.format(value))
                continue
            if "test" in rule and not rule["test"](value):
                out.append(f"{f.name} must " + rule["must"](value))
            elif f.name in typed:
                valid.add(f.name)
        # the rules across fields skip a field of another type
        if self.law in (LAW_BC, LAW_PAIRED) and "K" in typed and self.K != 1:
            out.append(f"{self.law} law requires K = 1, got K = {self.K}")
        # both laws step at a(t) = a0/(t + t_v)**a_p and probe at
        # c(t) = c0/(t + t_v)**c_p; by the p-series criteria these rows make
        # sum a(t) diverge while sum (a/c)**2 and sum a*c**2 converge, the
        # decay rates the stochastic gradient iteration needs
        if typed >= {"a0", "a_p", "c0", "c_p", "t_v"}:
            a0, a_p, c0, c_p, t_v = self.a0, self.a_p, self.c0, self.c_p, self.t_v
            gap, reach = 2 * a_p - 2 * c_p, a_p + 2 * c_p
            # (condition, whether it holds, the values it was tested on)
            rows = (
                ("0 < t_v < inf", 0 < t_v < math.inf, f"t_v = {t_v:g}"),
                ("0 < a_p <= 1", 0 < a_p <= 1, f"a_p = {a_p:g}"),
                ("c_p > 0", c_p > 0, f"c_p = {c_p:g}"),
                ("2*a_p - 2*c_p > 1", gap > 1, f"2*{a_p:g} - 2*{c_p:g} = {gap:g}"),
                ("a_p + 2*c_p > 1", reach > 1, f"{a_p:g} + 2*{c_p:g} = {reach:g}"),
                ("0 < a0 < inf", 0 < a0 < math.inf, f"a0 = {a0:g}"),
                ("0 < c0 < inf", 0 < c0 < math.inf, f"c0 = {c0:g}"),
            )
            out += [f"{cond} violated ({detail})" for cond, holds, detail in rows if not holds]
        if typed >= {"l1", "l2"} and not 0 < self.l1 < self.l2:
            out.append(f"need 0 < l1 < l2, got l1={self.l1}, l2={self.l2}")
        for name in ("x0", "targets"):
            values = getattr(self, name)
            if values is not None and typed >= {name, "n", "N"} and len(values) != self.n * self.N:
                out.append(f"{name} must hold n*N = {self.n * self.N} values, got {len(values)}")
        if self.task == COVERAGE and valid >= {"n", "grid_spacing"}:
            # (m + 1)**n points with m = round(1/grid_spacing) >= 1: any n
            # above 24 is over the limit, so the power stays small
            m = round(1.0 / self.grid_spacing)
            if self.n > 24 or (m + 1) ** self.n > _MAX_GRID_POINTS:
                out.append(
                    "coverage grid must hold (round(1/grid_spacing) + 1)**n <= 2**24 "
                    f"points, got grid_spacing = {self.grid_spacing}, n = {self.n}"
                )
        if self.task == RENDEZVOUS and "n" in typed and self.n != 2:
            out.append("the default formation family is planar; rendezvous needs n = 2")
        # circle_formation rotates by theta*2*pi/N, so rotations theta and
        # theta + N are one formation up to rounding, and a repeated one is a
        # near-tie that the rendezvous certificate can never settle
        count = self.formation_count
        if self.task == RENDEZVOUS and valid >= {"N", "formation_count"} and count > self.N:
            out.append(
                "rendezvous needs formation_count <= N, the circle family's distinct "
                f"rotations, got formation_count = {count}, N = {self.N}"
            )
        if self.task == ASSIGNMENT and "n" in typed and self.n != 2 and self.targets is None:
            out.append("assignment with n != 2 requires explicit targets")
        # the assignment and quadratic objectives take no minimum to smooth;
        # a float epsilon is one that is set and of its type
        if self.task in (ASSIGNMENT, QUADRATIC) and isinstance(self.smooth_min_eps, float):
            out.append(
                "smooth_min_eps applies to the coverage and rendezvous tasks only, "
                f"got task = {self.task!r}"
            )
        # only the assignment objective reads its targets and when it pairs
        # them; off their defaults, both would shape nothing on another task
        if "task" in valid and self.task != ASSIGNMENT:
            out += [
                f"{name} applies to the assignment task only, got task = {self.task!r}"
                for name in ("targets", "reassignment")
                if name in typed and getattr(self, name) != _FIELDS[name].default
            ]
        if out:
            raise ConfigError(out)
        return self

    # -- derived objects -----------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """The flat, agent-major start state of length ``n*N``."""
        if self.x0 is not None:
            return np.asarray(self.x0, dtype=np.float64)
        if self.task == COVERAGE:
            # the circle family's rotation 0 at radius 0.2 around the
            # workspace center, on the first min(n, 2) axes
            ring = circle_formation(self.N, 0.2, (0,)).positions[0, :, : self.n]
            pts = np.full((self.N, self.n), 0.5)
            pts[:, : ring.shape[1]] += ring
            return pts.ravel()
        # diagonal line: agent i at 0.9*(i/N) * ones
        idx = np.arange(1, self.N + 1)
        pts = (0.9 * idx / self.N)[:, None] * np.ones(self.n)[None, :]
        return pts.ravel()

    def objective_spec(self) -> ObjectiveSpec:
        if self.task == COVERAGE:
            payload = CoveragePayload(grid=unit_cube_grid(self.n, self.grid_spacing))
        elif self.task == RENDEZVOUS:
            thetas = tuple(range(1, self.formation_count + 1))
            payload = circle_formation(self.N, self.formation_radius, thetas)
        elif self.task == ASSIGNMENT:
            targets = self.targets
            if targets is None:  # the circle family's rotation 0
                targets = circle_formation(self.N, self.formation_radius, (0,)).positions[0]
            payload = AssignmentPayload(targets=np.reshape(targets, (self.N, self.n)))
            if self.reassignment == ONCE_AT_START:
                payload = freeze_assignment(payload, self.initial_state())
        else:
            # dimension-normalized identity: keeps the standard gain schedule
            # stable at any nN (the per-step contraction depends on a * nN
            # times the curvature scale)
            d = self.n * self.N
            payload = np.eye(d) / d
        return ObjectiveSpec(payload, self.l1, self.l2, self.smooth_min_eps)

    # -- serialization -------------------------------------------------------

    def serialize(self) -> str:
        return "".join(
            f"{f.name} = {_KINDS[f.type].render(getattr(self, f.name))}\n"
            for f in dataclasses.fields(self)
        )


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
# a manifest's trailer: what made the run, which must be this package, and
# what the run produced, which shapes nothing
_PROVENANCE = {"generator": SIGN_GENERATOR_ID, "package_version": __version__}
_OUTPUTS = re.compile(r"excluded_trials|excluded_trial_\d+|trajectories_written")


def parse_config(text: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse the flat key/value format, reporting every violation at once.
    ``overrides`` maps field names to value texts, each read like a line's
    and winning over it; the config is built once, from the merged values."""
    violations: list = []
    values: dict = {}
    trailer: dict = {}

    def read(key: str, raw: str) -> None:
        try:
            values[key] = _KINDS[_FIELDS[key].type].parse(raw)
        except ValueError:
            violations.append(f"cannot parse {key} from {raw!r}")
            values[key] = _FIELDS[key].default

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS and key not in _PROVENANCE and not _OUTPUTS.fullmatch(key):
            violations.append(f"line {lineno}: unknown key {key!r}")
        elif key in values or key in trailer:
            violations.append(f"line {lineno}: duplicate key {key!r}")
        elif key in _FIELDS:
            read(key, raw)
        else:
            trailer[key] = (lineno, raw)
    made_by = tuple(trailer.pop(key, (0, None))[1] for key in _PROVENANCE)
    if made_by == (None, None):
        # output lines without a manifest's provenance are a config's typos
        violations += [f"line {lineno}: unknown key {key!r}" for key, (lineno, _) in trailer.items()]
    elif made_by != tuple(_PROVENANCE.values()):
        violations.append(
            "a manifest replays only with generator = {} and package_version = {}, "
            "got {!r} and {!r}".format(*_PROVENANCE.values(), *made_by)
        )
    for key, raw in (overrides or {}).items():
        if key in _FIELDS:
            read(key, raw)
        else:
            violations.append(f"unknown key {key!r}")
    try:
        config = ExperimentConfig(**values)
    except ConfigError as err:
        violations.extend(err.violations)
    if violations:
        raise ConfigError(violations)
    return config
