import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from broadcast_control import ConfigError, ExperimentConfig, parse_config
from broadcast_control import config as config_mod
from broadcast_control.config import EVERY_STEP, LAWS, MODES, ONCE_AT_START, RETAIN, TASKS
from broadcast_control.engine import write_manifest
from broadcast_control.objectives import RendezvousPayload


def test_empty_document_gives_standard_defaults():
    config = parse_config("")
    assert config.task == "rendezvous"
    assert config.law == "pbc"
    assert (config.N, config.n, config.steps) == (15, 2, 300)
    assert (config.l1, config.l2) == (100.0, 101.0)
    assert (config.a0, config.a_p, config.c0, config.c_p, config.t_v) == (
        2.0, 0.7, 0.003, 0.16, 20.0,
    )
    assert config.K == 1
    assert config.grid_spacing == 0.01
    assert config.formation_radius == 0.2
    assert config.smooth_min_eps is None


def test_comments_and_blanks_ignored():
    config = parse_config("# a comment\n\n  K = 3  # inline\n")
    assert config.K == 3


def test_bad_exponent_names_condition():
    with pytest.raises(ConfigError) as err:
        parse_config("a_p = 0.5\n")
    assert any("2*a_p - 2*c_p" in v for v in err.value.violations)


def test_paired_requires_k1():
    with pytest.raises(ConfigError) as err:
        parse_config("law = paired\nK = 3\n")
    assert any("paired" in v for v in err.value.violations)


def test_bc_requires_k1_in_code():
    # the two-stage law takes one sign vector a pair and reads no K: a K it
    # would ignore while the manifest echoed it is refused
    for build in (
        lambda: ExperimentConfig(law="bc", K=3, steps=30),
        lambda: dataclasses.replace(ExperimentConfig(law="bc"), K=3),
    ):
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.violations == ["bc law requires K = 1, got K = 3"]


def test_bc_requires_k1_in_a_config_line():
    with pytest.raises(ConfigError) as err:
        parse_config("law = bc\nK = 3\n")
    assert err.value.violations == ["bc law requires K = 1, got K = 3"]
    assert parse_config("law = bc\nK = 1\n").K == 1


@pytest.mark.parametrize(
    "fields,violation",
    [
        (dict(law="paired", K=2.5), "K must be an integer, got 2.5"),
        (dict(law="bc", K="3"), "K must be an integer, got '3'"),
        (dict(task="rendezvous", n="2"), "n must be an integer, got '2'"),
        (dict(task="assignment", n="2"), "n must be an integer, got '2'"),
    ],
    ids=["paired-K-float", "bc-K-string", "rendezvous-n-string", "assignment-n-string"],
)
def test_rules_across_fields_skip_a_field_of_the_wrong_type(fields, violation):
    # the K rule and both n rules read a K or n only of its own type
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**fields)
    assert err.value.violations == [violation]


def test_assignment_off_the_plane_needs_targets():
    with pytest.raises(ConfigError) as err:
        parse_config("task = assignment\nn = 3\n")
    assert err.value.violations == ["assignment with n != 2 requires explicit targets"]
    targets = " ".join(str(v) for v in np.linspace(-1.0, 1.0, 45))
    assert parse_config(f"task = assignment\nn = 3\ntargets = {targets}\n").n == 3


def test_line_without_an_equals_sign_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("K 3\n")
    assert err.value.violations == ["line 1: expected 'key = value', got 'K 3'"]


def test_unknown_and_duplicate_keys_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("lawz = pbc\nK = 2\nK = 3\n")
    joined = "\n".join(err.value.violations)
    assert "unknown key 'lawz'" in joined
    assert "duplicate key 'K'" in joined


def test_unknown_override_keys_rejected():
    # an override names a field: a provenance or output key, read from a
    # manifest's lines, is no field either, and each is reported with the rest
    overrides = {"bogus": "1", "generator": "x", "excluded_trials": "0", "K": "0"}
    with pytest.raises(ConfigError) as err:
        parse_config("lawz = pbc\n", overrides)
    assert err.value.violations == [
        "line 1: unknown key 'lawz'",
        "unknown key 'bogus'",
        "unknown key 'generator'",
        "unknown key 'excluded_trials'",
        "K must be >= 1, got 0",
    ]


def test_output_keys_need_a_manifest():
    # a manifest's output lines are read only beside its provenance lines
    outputs = "K = 2\nexcluded_trials = 0\nexcluded_trial_0 = x\ntrajectories_written = 5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(outputs)
    assert err.value.violations == [
        "line 2: unknown key 'excluded_trials'",
        "line 3: unknown key 'excluded_trial_0'",
        "line 4: unknown key 'trajectories_written'",
    ]
    provenance = "generator = splitmix64-keyed-v1\npackage_version = 0.1.0\n"
    assert parse_config(outputs + provenance).K == 2


def test_all_violations_reported_at_once():
    text = "a_p = 0.4\nl1 = 5\nl2 = 4\nK = 0\ntask = flocking\nn = 0\nN = 0\nlawz = pbc\n"
    text += "law = paired\nt_v = 0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    # parse errors first, then what building the config found
    assert err.value.violations[0] == "line 8: unknown key 'lawz'"
    joined = "\n".join(err.value.violations)
    assert "task" in joined
    assert "K" in joined
    assert "n must be >= 1, got 0" in joined
    assert "N must be >= 1, got 0" in joined
    assert "l1" in joined
    assert "2*a_p" in joined
    # the rules across fields last, in one order: the paired rule, the gain
    # conditions in their order, then the barrier radii
    assert err.value.violations[-5:] == [
        "paired law requires K = 1, got K = 0",
        "0 < t_v < inf violated (t_v = 0)",
        "2*a_p - 2*c_p > 1 violated (2*0.4 - 2*0.16 = 0.48)",
        "a_p + 2*c_p > 1 violated (0.4 + 2*0.16 = 0.72)",
        "need 0 < l1 < l2, got l1=5.0, l2=4.0",
    ]


def test_unparsable_value_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("K = two\n")
    assert any("cannot parse K" in v for v in err.value.violations)


def test_x0_and_targets_length_checked():
    with pytest.raises(ConfigError) as err:
        parse_config("N = 2\nn = 2\nx0 = 1 2 3\ntask = quadratic\n")
    assert any("x0" in v for v in err.value.violations)
    with pytest.raises(ConfigError):
        parse_config("task = assignment\nN = 2\ntargets = 1 2 3\n")


def test_rendezvous_needs_planar_state():
    with pytest.raises(ConfigError) as err:
        parse_config("n = 3\n")
    assert any("planar" in v for v in err.value.violations)
    # other tasks accept n = 3
    parse_config("n = 3\ntask = quadratic\n")


def test_grid_spacing_range():
    # the one check of the spacing: unit_cube_grid trusts it
    for spacing in ("1.0", "1.5", "0", "-0.1"):
        with pytest.raises(ConfigError, match="grid_spacing must lie in"):
            parse_config(f"task = coverage\ngrid_spacing = {spacing}\n")


def test_grid_spacing_divides_one():
    # unit_cube_grid steps round(1/spacing) times: 0.6 and 0.15 would put
    # points past 1, 0.3 would stop at 0.9, and 5e-324 has no finite
    # reciprocal
    for spacing in (0.3, 0.6, 0.15, 5e-324):
        with pytest.raises(ConfigError) as err:
            parse_config(f"task = coverage\ngrid_spacing = {spacing!r}\n")
        assert err.value.violations == [f"grid_spacing must divide 1 evenly, got {spacing!r}"]
    for spacing in (0.01, 0.25, 0.125, 1 / 3):
        config = parse_config(f"task = coverage\ngrid_spacing = {spacing!r}\n")
        grid = config.objective_spec().payload.grid
        assert grid.shape == ((round(1 / spacing) + 1) ** 2, 2)
        assert grid.min() == 0.0 and grid.max() == pytest.approx(1.0, abs=1e-15)


def test_coverage_grid_size_limit(monkeypatch):
    # a grid of (round(1/spacing) + 1)**n points over 2**24 is refused
    # before anything is allocated: 1e-300 divides 1 but has ~1e600 points,
    # and n = 4 at the default spacing 101**4 (3.3 GB of evaluator buffers)
    def no_grid(n, spacing):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(config_mod, "unit_cube_grid", no_grid)
    for fields in (dict(grid_spacing=1e-300), dict(n=4), dict(grid_spacing=1 / 4096)):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(task="coverage", **fields)
        assert len(err.value.violations) == 1
        assert "coverage grid must hold (round(1/grid_spacing) + 1)**n <= 2**24" in (
            err.value.violations[0]
        )
    # 4096**2 = 2**24 points is the largest grid; other tasks ignore the grid
    ExperimentConfig(task="coverage", grid_spacing=1 / 4095)
    ExperimentConfig(task="quadratic", n=4)


def test_smooth_min_eps_sign():
    # the one check of epsilon: the objectives trust it
    assert parse_config("smooth_min_eps = -5\n").smooth_min_eps == -5.0
    for eps in ("0.5", "1.0", "0.0", "-inf", "nan"):
        with pytest.raises(ConfigError, match="smooth_min_eps must be finite and negative"):
            parse_config(f"smooth_min_eps = {eps}\n")


def test_smooth_min_eps_only_on_tasks_that_take_a_minimum():
    # the assignment and quadratic objectives would run the same with it and
    # without it, while the manifest echoed it
    for task in ("assignment", "quadratic"):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(task=task, smooth_min_eps=-5.0)
        assert err.value.violations == [
            f"smooth_min_eps applies to the coverage and rendezvous tasks only, got task = {task!r}"
        ]
        ExperimentConfig(task=task)
    for task in ("coverage", "rendezvous"):
        assert ExperimentConfig(task=task, smooth_min_eps=-5.0).smooth_min_eps == -5.0


def test_rendezvous_family_holds_no_repeated_formation():
    # circle_formation rotates by theta*2*pi/N, so at N = 10 the default 15
    # rotations repeat five formations up to rounding, near-ties that the
    # rendezvous certificate could never settle
    rule = (
        "rendezvous needs formation_count <= N, the circle family's distinct "
        "rotations, got formation_count = {}, N = {}"
    )
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(N=10)
    assert err.value.violations == [rule.format(15, 10)]
    config = ExperimentConfig(N=10, formation_count=10)
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(config, formation_count=11)
    assert err.value.violations == [rule.format(11, 10)]
    with pytest.raises(ConfigError) as err:
        parse_config("N = 3\nformation_count = 4\n")
    assert err.value.violations == [rule.format(4, 3)]
    # the other tasks build no family, and a count of another type is
    # reported by its own rule alone
    dataclasses.replace(config, task="coverage", formation_count=15)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(N=10, formation_count=12.0)
    assert err.value.violations == ["formation_count must be an integer, got 12.0"]
    assert ExperimentConfig().formation_count == ExperimentConfig().N == 15


@pytest.mark.parametrize(
    "field,value",
    [
        ("t_v", math.inf),
        ("a0", math.inf),
        ("c0", math.inf),
        ("a0", math.nan),
        ("smooth_min_eps", -math.inf),
        ("smooth_min_eps", math.nan),
        ("formation_radius", math.inf),
        ("l2", math.inf),
    ],
)
def test_non_finite_floats_rejected(field, value):
    # the infinite values once passed validation and then ended every trial
    # (or the whole run) at step 0; l2 = inf built a config whose manifest
    # line "l2 = inf" parse_config rejects
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**{field: value})
    assert any(field in v for v in err.value.violations)


def test_construction_and_replace_check_the_config():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(K=0)
    assert err.value.violations == ["K must be >= 1, got 0"]
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(ExperimentConfig(), law="paired", K=3, steps=-1)
    assert err.value.violations == [
        "steps must be >= 0, got -1",
        "paired law requires K = 1, got K = 3",
    ]


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(ExperimentConfig) if f.type == "int"]
)
def test_int_fields_reject_non_integers(field):
    # K = 2.5 once ran until the sign drawing failed, and K = True wrote a
    # manifest that parse_config rejects
    for value in (2.5, True):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{field: value})
        assert f"{field} must be an integer, got {value!r}" in err.value.violations
    # formation_count = 2 keeps the rendezvous family within N = 2
    config = ExperimentConfig(**{"formation_count": 2, field: np.int64(2)})
    assert parse_config(config.serialize()) == config


FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(ExperimentConfig) if f.type in ("float", "Optional[float]")
]


@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_float_fields_reject_bools_and_strings(field):
    # a0 = True built a config whose manifest line "a0 = True" parse_config
    # rejects, and a0 = "2" raised a TypeError from a range comparison
    for value in (True, "2"):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{field: value})
        assert any(v.startswith(f"{field} must be a float") for v in err.value.violations)


@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_non_finite_float_text_reads_as_its_value(field, text):
    # a line's "inf" once got "cannot parse" where the value itself got the
    # field's own rule; every float field's rules refuse each of these
    with pytest.raises(ConfigError) as built:
        ExperimentConfig(**{field: float(text)})
    with pytest.raises(ConfigError) as parsed:
        parse_config(f"{field} = {text}\n")
    assert parsed.value.violations == built.value.violations


def test_float_fields_stored_as_floats():
    # a numpy float32 serialized as its short repr, which parses back to
    # another float64; every real value is stored as a Python float
    config = ExperimentConfig(a0=np.float32(0.1), c0=Fraction(3, 1000), t_v=20, l1=np.int64(50))
    assert config.a0 == float(np.float32(0.1)) and config.c0 == 0.003
    assert all(type(getattr(config, f)) is float for f in ("a0", "c0", "t_v", "l1"))
    assert parse_config(config.serialize()) == config
    with pytest.raises(ConfigError, match="a0 must be a float"):
        ExperimentConfig(a0=10**400)  # an int beyond the float range
    # likewise in a sequence of floats
    x0 = (10**400, 0, 0, 0)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(task="quadratic", N=2, x0=x0)
    assert err.value.violations == [f"x0 must be a sequence of floats, got {x0!r}"]


def test_master_seed_range():
    # the sign hash reduces the seed modulo 2**64, so 2**64 and -1 drew the
    # signs of seeds 0 and 2**64 - 1 under different manifests
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(master_seed=seed)
        assert err.value.violations == [f"master_seed must lie in [0, 2**64), got {seed}"]
    for seed in (0, 2**64 - 1):
        config = ExperimentConfig(master_seed=seed)
        assert parse_config(config.serialize()) == config


@pytest.mark.parametrize(
    "form",
    [np.asarray, list, lambda a: a.tolist(), lambda a: a.reshape(15, 2)],
    ids=["array", "list-of-numpy-floats", "list", "agent-rows"],
)
def test_x0_and_targets_stored_as_float_tuples(form, tmp_path):
    values = np.linspace(0.1, 0.9, 30)
    config = ExperimentConfig(task="assignment", x0=form(values), targets=form(-values))
    assert config.x0 == tuple(values.tolist())
    assert all(type(v) is float for v in config.x0 + config.targets)
    assert parse_config(config.serialize()) == config
    write_manifest(str(tmp_path / "manifest"), config, [], 0)
    lines = (tmp_path / "manifest").read_text().splitlines()
    assert "x0 = " + " ".join(format(v, ".17g") for v in values) in lines
    assert "targets = " + " ".join(format(-v, ".17g") for v in values) in lines


@pytest.mark.parametrize(
    "value",
    [
        ("a", "b", "c", "d"),
        [[1, 2], [3]],
        "abc",
        [True, False, True, False],
        [1.0, None, 2.0, 3.0],
    ],
    ids=["strings", "ragged", "one-string", "bools", "none"],
)
def test_x0_and_targets_reject_non_numbers(value):
    # the first three raised numpy's ValueError from the constructor, and the
    # bools were stored as 1.0 and 0.0, where a float field rejects a bool
    for name in ("x0", "targets"):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(task="assignment", N=2, **{name: value})
        assert err.value.violations == [f"{name} must be a sequence of floats, got {value!r}"]


def test_serialize_round_trip_defaults():
    config = ExperimentConfig()
    assert parse_config(config.serialize()) == config


@pytest.mark.parametrize("out_dir", ["runs/#1", " runs", "runs ", "runs\nK = 3", "a\rb"])
def test_out_dir_that_cannot_round_trip_rejected(out_dir):
    # serialize writes out_dir as it is, and the parser cuts a line at '#',
    # strips its ends and splits lines: each of these would parse back to
    # another config, or not at all
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(out_dir=out_dir)
    assert any(v.startswith("out_dir") for v in err.value.violations)


@pytest.mark.parametrize("out_dir", [None, 5])
def test_out_dir_must_be_a_string(out_dir):
    # a TypeError from the '#' test escaped the constructor
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(out_dir=out_dir)
    assert err.value.violations == [f"out_dir must be a string, got {out_dir!r}"]


def test_empty_out_dir_rejected():
    # an empty out_dir names no directory: the run could only fail to make it
    for build in (lambda: ExperimentConfig(out_dir=""), lambda: parse_config("out_dir =\n")):
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.violations == ["out_dir must not be empty"]


def test_out_dir_inner_spaces_round_trip():
    config = ExperimentConfig(out_dir="my runs/run 1")
    assert parse_config(config.serialize()) == config


_FLOAT_EDGES = st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308]
)
_INT_EDGES = st.integers(2**64 - 2, 2**64 + 1) | st.integers(-(2**64) - 1, -(2**64) + 1)
# each annotation's edge values: every one either is rejected or must survive
# the manifest text
_EDGES = {
    "str": st.text(st.sampled_from("ab #\x0b\x85\x00"), max_size=4)
    | st.sampled_from(TASKS + LAWS + MODES + RETAIN + (EVERY_STEP, ONCE_AT_START)),
    "int": _INT_EDGES | st.integers(-1, 3) | st.booleans(),
    "float": _FLOAT_EDGES | _INT_EDGES | st.booleans(),
}
_EDGES["Optional[float]"] = st.none() | _EDGES["float"]
_EDGES["Optional[tuple]"] = st.none() | st.lists(
    _FLOAT_EDGES | st.floats(-1, 1), min_size=30, max_size=30
).map(tuple)
_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


# tenfold: each drawn edge value must be rejected or read back from the
# manifest text as itself, and the edge combinations are many
@pytest.mark.tenfold
@given(
    st.sets(st.sampled_from(sorted(_TYPES)), min_size=1, max_size=3).flatmap(
        lambda names: st.fixed_dictionaries({name: _EDGES[_TYPES[name]] for name in names})
    )
)
@example({"l2": math.inf})
def test_edge_values_rejected_or_round_trip(fields):
    # the two entry points agree: a config that builds is read back from its
    # manifest text as itself
    try:
        config = ExperimentConfig(**fields)
    except ConfigError:
        return
    assert parse_config(config.serialize()) == config


def _random_config(rng) -> ExperimentConfig:
    task = rng.choice(["coverage", "rendezvous", "assignment", "quadratic"])
    law = rng.choice(["bc", "pbc", "paired"])
    N = int(rng.integers(1, 20))
    n = 2
    K = 1 if law in ("bc", "paired") else int(rng.integers(1, 12))
    c_p = float(rng.uniform(0.05, 0.45))
    a_p = float(rng.uniform(max(0.51 + c_p, 1 - 2 * c_p + 0.01), 1.0))
    return ExperimentConfig(
        task=str(task),
        law=str(law),
        K=K,
        N=N,
        n=n,
        steps=int(rng.integers(0, 500)),
        trials=int(rng.integers(1, 50)),
        master_seed=int(rng.integers(0, 2**63)),
        mode=str(rng.choice(["figure", "theorem"])),
        out_dir=f"out_{rng.integers(100)}",
        a0=float(10 ** rng.uniform(-3, 1)),
        a_p=a_p,
        c0=float(10 ** rng.uniform(-4, 0)),
        c_p=c_p,
        t_v=float(rng.uniform(0.5, 100)),
        l1=float(rng.uniform(1, 100)),
        l2=float(rng.uniform(101, 200)),
        grid_spacing=1.0 / int(rng.integers(2, 101)),
        formation_radius=float(10 ** rng.uniform(-2, 1)),
        # a rendezvous family holds at most N distinct rotations
        formation_count=int(rng.integers(1, N + 1 if task == "rendezvous" else 30)),
        targets=tuple(rng.normal(size=2 * N)) if rng.random() < 0.3 else None,
        reassignment=str(rng.choice(["every-step", "once-at-start"])),
        # only the coverage and rendezvous tasks take a smooth minimum
        smooth_min_eps=(
            float(-(10 ** rng.uniform(-2, 3)))
            if task in ("coverage", "rendezvous") and rng.random() < 0.4 else None
        ),
        x0=tuple(rng.normal(size=2 * N)) if rng.random() < 0.3 else None,
        retain_trajectories=str(rng.choice(["auto", "true", "false"])),
        workers=int(rng.integers(1, 8)),
    )


def test_serialize_round_trip_random_configs(rng):
    count = 0
    for _ in range(1000):
        try:
            cfg = _random_config(rng)
        except ConfigError:
            continue
        count += 1
        assert parse_config(cfg.serialize()) == cfg
    assert count > 500  # the generator mostly produces valid configs


def test_initial_state_defaults():
    # rendezvous line: agent i at 0.9 * i / N * (1, 1), one-based
    config = ExperimentConfig(N=3, formation_count=3)
    x = config.initial_state()
    assert x[:2] == pytest.approx([0.3, 0.3])
    assert x[-2:] == pytest.approx([0.9, 0.9])
    # coverage ring of radius 0.2 around the center
    config = dataclasses.replace(config, task="coverage")
    pts = config.initial_state().reshape(3, 2)
    assert np.allclose(np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5), 0.2)
    # explicit override wins
    config = dataclasses.replace(config, x0=tuple(range(6)))
    x = config.initial_state()
    assert x.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert x.dtype == np.float64


def test_objective_spec_building():
    config = ExperimentConfig(N=4, n=2, formation_count=4)
    spec = config.objective_spec()
    assert isinstance(spec.payload, RendezvousPayload)
    assert spec.payload.positions.shape == (4, 4, 2)

    cov = dataclasses.replace(config, task="coverage", grid_spacing=0.5)
    assert cov.objective_spec().payload.grid.shape == (9, 2)

    quad = dataclasses.replace(config, task="quadratic")
    H = quad.objective_spec().payload
    # dimension-normalized identity keeps the standard gains stable
    assert np.array_equal(H, np.eye(8) / 8)

    asg = dataclasses.replace(config, task="assignment")
    targets = asg.objective_spec().payload.targets
    assert targets.shape == (4, 2)
    assert np.allclose(np.hypot(targets[:, 0], targets[:, 1]), 0.2)
    # rotation 0 of the circle family: agent i's target at angle 2*pi*i/N,
    # with the bits of the formula written out
    ang = 2.0 * np.pi * np.arange(1, 5) / 4
    assert np.array_equal(targets, 0.2 * np.column_stack([np.cos(ang), np.sin(ang)]))

    # once-at-start: the same targets, fixed in the initial state's optimal order
    frozen = dataclasses.replace(asg, reassignment="once-at-start").objective_spec().payload
    pts = asg.initial_state().reshape(4, 2)
    cost = ((pts[:, None, :] - targets[None, :, :]) ** 2).sum(axis=2)
    assert frozen.fixed and not asg.objective_spec().payload.fixed
    # targets 0 and 3, and 1 and 2, are equally far from every point of the
    # diagonal: of the four tied optimal pairings, the lexicographically smallest
    sums = {p: cost[range(4), p].sum() for p in itertools.permutations(range(4))}
    tied = [p for p, v in sums.items() if v <= min(sums.values()) + 1e-9]
    assert len(tied) == 4
    assert np.array_equal(frozen.targets, targets[list(min(tied))])


# ---------------------------------------------------------------------------
# gain schedule

STANDARD = ExperimentConfig(a0=2.0, a_p=0.7, c0=0.003, c_p=0.16, t_v=20.0)


def _schedule_errors(**fields) -> list:
    """The conditions a config built from the gain ``fields`` breaks."""
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**fields)
    assert str(err.value) == "; ".join(err.value.violations)
    return err.value.violations


def test_validate_standard_is_valid():
    # 2*0.7 - 2*0.16 = 1.08 > 1 and 0.7 + 0.32 = 1.02 > 1: builds, no error
    assert ExperimentConfig(a0=2.0, a_p=0.7, c0=0.003, c_p=0.16, t_v=20.0) == STANDARD


def test_validate_reports_each_condition():
    # a_p = 0.5 breaks 2*a_p - 2*c_p > 1 (0.68) and drags a_p + 2*c_p under too
    out = _schedule_errors(a0=2.0, a_p=0.5, c0=0.003, c_p=0.16, t_v=20.0)
    assert any("2*a_p - 2*c_p" in v and "0.68" in v for v in out)
    assert any("a_p + 2*c_p" in v and "0.82" in v for v in out)
    assert len(out) == 2

    out = _schedule_errors(a0=2.0, a_p=0.7, c0=0.003, c_p=0.16, t_v=0.0)
    assert len(out) == 1 and "t_v" in out[0]

    out = _schedule_errors(a0=-1.0, a_p=1.5, c0=-0.1, c_p=-0.2, t_v=-3.0)
    names = "\n".join(out)
    for frag in ("t_v", "a_p", "c_p", "a0", "c0"):
        assert frag in names


def test_invalid_schedule_fails_loudly():
    with pytest.raises(ConfigError, match="2\\*a_p - 2\\*c_p"):
        ExperimentConfig(a0=2.0, a_p=0.5, c0=0.003, c_p=0.16, t_v=20.0)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ConfigError, match="a0"):
            ExperimentConfig(a0=bad, a_p=0.7, c0=0.003, c_p=0.16, t_v=20.0)
        with pytest.raises(ConfigError, match="c0"):
            ExperimentConfig(a0=2.0, a_p=0.7, c0=bad, c_p=0.16, t_v=20.0)
    # a copy with a changed field is built, and checked, again
    with pytest.raises(ConfigError, match="t_v"):
        dataclasses.replace(STANDARD, t_v=-1.0)


def _series(config, terms=10**6):
    t = np.arange(terms, dtype=float)
    a = config.a0 / (t + config.t_v) ** config.a_p
    c = config.c0 / (t + config.t_v) ** config.c_p
    return a, c


def test_step_size_sum_diverges():
    # partial sums keep climbing at the power-law rate: unbounded trend
    a, _ = _series(STANDARD)
    partial = np.cumsum(a)
    assert partial[10**4 - 1] > 2 * partial[10**3 - 1]
    assert partial[10**5 - 1] > 1.5 * partial[10**4 - 1]
    assert partial[10**6 - 1] > 1.5 * partial[10**5 - 1]


def test_ratio_square_sum_converges():
    # (a/c)^2 decays like t**-1.08 for the standard schedule, so decade
    # tails shrink geometrically (Cauchy trend) but slowly; a valid
    # fast-decay schedule meets the hard 1e-3 tail bound.
    a, c = _series(STANDARD)
    ratio_sq = (a / c) ** 2
    decades = [ratio_sq[10**k : 10 ** (k + 1)].sum() for k in range(2, 6)]
    assert all(nxt < 0.95 * cur for cur, nxt in zip(decades, decades[1:]))

    fast = ExperimentConfig(a0=2.0, a_p=1.0, c0=0.003, c_p=0.01, t_v=20.0)
    a, c = _series(fast)
    ratio_sq = (a / c) ** 2
    assert ratio_sq[10**5 :].sum() < 1e-3 * ratio_sq.sum()
