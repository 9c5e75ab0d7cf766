"""Outside-in span recorder for the benchmark's traced run.

The recorder wraps public attributes of the ``broadcast_control`` modules
for the duration of one call, so the package itself carries no tracing
code.  Each span keeps its name, start, end, parent span, trial id and an
optional detail string; spans stay in memory and are written out once, at
exit.  Calls run on one thread with ``workers = 1``: spans recorded in pool
children would be lost.
"""

from __future__ import annotations

import contextlib
import functools
import os
from time import perf_counter

# Layers are the package's module names; a span's layer is its name's prefix.
LAYERS = (
    "config", "state", "objectives", "gains",
    "controllers", "engine", "oracle", "verify",
)
ORACLE_ENUMERATE = (
    "enumerate_expected_gradient", "enumerate_estimator_variance", "check_k_monotonicity",
)
ORACLE_CHECK = ("check_twice_speed", "check_distance_dominance")
ORACLE_OTHER = ("descent_fraction", "random_spd_matrix")
WRITERS = ("write_summary_csv", "write_trajectory_csv", "write_manifest")


class Recorder:
    """In-memory span list with a parent stack (single thread only)."""

    def __init__(self):
        # (name, start, end, parent index or -1, trial id or -1, detail)
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._trial = -1

    def span(self, name, fn, trial_arg=None, detail=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``trial_arg`` is the positional index of a trial-index argument that
        becomes the trial id of this span and of every span inside it.
        ``detail(args)`` returns a string kept with the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prev_trial = self._trial
            if trial_arg is not None:
                if len(args) > trial_arg:
                    self._trial = int(args[trial_arg])
                else:
                    self._trial = int(kwargs.get("trial_index", 0))
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (
                    name, start, end, parent, self._trial,
                    detail(args) if detail else "",
                )
                self._trial = prev_trial

        return wrapper

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def counted(self, name, fn):
        """Wrap ``fn`` with a call counter and no span (for hot callables)."""

        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path):
        """Write the spans to a tab-separated file."""
        with open(path, "w", newline="\n") as fh:
            fh.write("id\tname\tstart\tend\tparent\ttrial\tdetail\n")
            for i, (name, start, end, parent, trial, detail) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{trial}\t{detail}\n")


@contextlib.contextmanager
def patched(rec: Recorder):
    """Install the recorder's wrappers on the package's public attributes.

    Every patch point is listed here; each is restored on exit.
    """
    import broadcast_control
    from broadcast_control import config, controllers, engine, objectives, verify

    saved = []
    checks = verify.VERIFY_CHECKS
    saved_checks = dict(checks)

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(owner, attr, name, **kw):
        patch(owner, attr, rec.span(name, getattr(owner, attr), **kw))

    make_objective_fn = engine.make_objective_fn

    def traced_make_objective_fn(spec):
        return rec.span("objectives.J", make_objective_fn(spec))

    try:
        # the entry points themselves, as the benchmark imports them
        span(broadcast_control, "run_and_write", "engine.run_and_write")
        span(verify, "run_verify", "verify.run_verify")
        patch(engine, "make_objective_fn", traced_make_objective_fn)
        span(engine, "draw_block", "state.draw_block")
        span(engine, "run_trial", "engine.run_trial", trial_arg=1)
        span(engine, "_simulate", "engine.simulate", trial_arg=3,
             detail=lambda a: f"{a[1]}:{a[2]}:{a[0].K}")
        span(engine, "pbc_step", "controllers.pbc_step")
        span(engine, "bc_step", "controllers.bc_step")
        for owner in (engine, verify):
            span(owner, "run_monte_carlo", "engine.run_monte_carlo")
            span(owner, "run_paired", "engine.run_paired", trial_arg=1)
        for attr in WRITERS:
            writer = rec.span("engine.write", getattr(engine, attr))
            patch(engine, attr, _byte_counting(rec, writer))
        span(controllers, "apply_input", "state.apply_input")
        for attr in ("gain_a", "gain_c", "bc_gains_at"):
            span(controllers, attr, f"gains.{attr}")
        span(controllers, "pbc_broadcast", "controllers.pbc_broadcast")
        span(controllers, "pbc_local_input", "controllers.pbc_local_input")
        span(objectives, "hungarian", "objectives.hungarian")
        span(config.ExperimentConfig, "objective_spec", "config.objective_spec")
        span(verify, "quadratic_objective", "objectives.quadratic")
        for attr in ORACLE_ENUMERATE + ORACLE_CHECK + ORACLE_OTHER:
            oracle_fn = _counting_callables(rec, getattr(verify, attr))
            patch(verify, attr, rec.span(f"oracle.{attr}", oracle_fn))
        for name, fn in saved_checks.items():
            checks[name] = rec.span(f"verify.{name}", fn)
        yield rec
    finally:
        checks.update(saved_checks)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _byte_counting(rec, writer):
    """Count the bytes each writer leaves in the file named by its first argument."""

    def wrapper(path, *args, **kwargs):
        writer(path, *args, **kwargs)
        rec.add("engine.write.bytes", os.path.getsize(path))

    return wrapper


def _counting_callables(rec, fn):
    """Count calls of every callable argument: the objective an oracle enumerates."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        args = [rec.counted("oracle.J.calls", a) if callable(a) else a for a in args]
        return fn(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover.

    Spans come from one thread and nest, so children never overlap and their
    coverage is the sum of their durations.
    """
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def totals(spans, selfs) -> dict:
    """Per span name: ``[calls, inclusive seconds, self seconds]``."""
    acc: dict = {}
    for (name, start, end, _, _, _), s in zip(spans, selfs):
        row = acc.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += s
    return acc


def calls_under(spans, ancestor: str, name: str) -> dict:
    """Count spans called ``name`` below each span called ``ancestor``.

    Returns ``{ancestor index: count}``, including ancestors with none.
    """
    out = {i: 0 for i, s in enumerate(spans) if s[0] == ancestor}
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        if p >= 0:
            out[p] += 1
    return out
