import dataclasses
import math

import numpy as np
import pytest

from broadcast_control import ConfigError, ExperimentConfig, parse_config
from broadcast_control.config import with_overrides


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


def test_unknown_and_duplicate_keys_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("lawz = pbc\nK = 2\nK = 3\n")
    joined = "\n".join(err.value.violations)
    assert "unknown key 'lawz'" in joined
    assert "duplicate key 'K'" in joined


def test_all_violations_reported_at_once():
    text = "a_p = 0.4\nl1 = 5\nl2 = 4\nK = 0\ntask = flocking\nn = 0\nN = 0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    joined = "\n".join(err.value.violations)
    assert "task" in joined
    assert "K" in joined
    assert "n must be >= 1, got 0" in joined
    assert "N must be >= 1, got 0" in joined
    assert "l1" in joined
    assert "2*a_p" in joined


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
    with pytest.raises(ConfigError):
        parse_config("task = coverage\ngrid_spacing = 1.0\n")


def test_smooth_min_eps_sign():
    assert parse_config("smooth_min_eps = -5\n").smooth_min_eps == -5.0
    with pytest.raises(ConfigError):
        parse_config("smooth_min_eps = 0.5\n")
    with pytest.raises(ConfigError, match="smooth_min_eps must be finite"):
        parse_config("smooth_min_eps = -inf\n")


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
    ],
)
def test_non_finite_floats_rejected(field, value):
    # the infinite values once passed validation and then ended every trial
    # (or the whole run) at step 0
    config = ExperimentConfig(**{field: value})
    assert any(field in v for v in config.violations())
    with pytest.raises(ConfigError):
        config.validate()


def test_serialize_round_trip_defaults():
    config = ExperimentConfig()
    assert parse_config(config.serialize()) == config


@pytest.mark.parametrize("out_dir", ["runs/#1", " runs", "runs ", "runs\nK = 3", "a\rb"])
def test_out_dir_that_cannot_round_trip_rejected(out_dir):
    # serialize writes out_dir as it is, and the parser cuts a line at '#',
    # strips its ends and splits lines: each of these would parse back to
    # another config, or not at all
    config = ExperimentConfig(out_dir=out_dir)
    assert any(v.startswith("out_dir") for v in config.violations())
    with pytest.raises(ConfigError):
        config.validate()


def test_out_dir_inner_spaces_round_trip():
    config = ExperimentConfig(out_dir="my runs/run 1").validate()
    assert parse_config(config.serialize()) == config


def _random_config(rng) -> ExperimentConfig:
    task = rng.choice(["coverage", "rendezvous", "assignment", "quadratic"])
    law = rng.choice(["bc", "pbc", "paired"])
    N = int(rng.integers(1, 20))
    n = 2
    K = 1 if law == "paired" else int(rng.integers(1, 12))
    c_p = float(rng.uniform(0.05, 0.45))
    a_p = float(rng.uniform(max(0.51 + c_p, 1 - 2 * c_p + 0.01), 1.0))
    cfg = ExperimentConfig(
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
        grid_spacing=float(rng.uniform(0.01, 0.9)),
        formation_radius=float(10 ** rng.uniform(-2, 1)),
        formation_count=int(rng.integers(1, 30)),
        targets=tuple(rng.normal(size=2 * N)) if rng.random() < 0.3 else None,
        reassignment=str(rng.choice(["every-step", "once-at-start"])),
        smooth_min_eps=float(-(10 ** rng.uniform(-2, 3))) if rng.random() < 0.4 else None,
        x0=tuple(rng.normal(size=2 * N)) if rng.random() < 0.3 else None,
        retain_trajectories=str(rng.choice(["auto", "true", "false"])),
        workers=int(rng.integers(1, 8)),
    )
    return cfg


def test_serialize_round_trip_random_configs(rng):
    count = 0
    for _ in range(1000):
        cfg = _random_config(rng)
        if cfg.violations():
            continue
        count += 1
        assert parse_config(cfg.serialize()) == cfg
    assert count > 500  # the generator mostly produces valid configs


def test_with_overrides_validates():
    config = ExperimentConfig()
    updated = with_overrides(config, K=5, task="coverage")
    assert updated.K == 5
    assert updated.task == "coverage"
    # None leaves fields untouched
    assert with_overrides(config, K=None).K == 1
    with pytest.raises(ConfigError):
        with_overrides(config, law="paired", K=3)


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
    assert spec.kind == "rendezvous"
    assert spec.payload.positions.shape == (4, 4, 2)

    cov = dataclasses.replace(config, task="coverage", grid_spacing=0.5)
    assert cov.objective_spec().payload.grid.shape == (9, 2)

    quad = dataclasses.replace(config, task="quadratic")
    H = quad.objective_spec().payload.H
    # dimension-normalized identity keeps the standard gains stable
    assert np.array_equal(H, np.eye(8) / 8)

    asg = dataclasses.replace(config, task="assignment")
    targets = asg.objective_spec().payload.targets
    assert targets.shape == (4, 2)
    assert np.allclose(np.hypot(targets[:, 0], targets[:, 1]), 0.2)

    frozen = dataclasses.replace(asg, reassignment="once-at-start")
    assert frozen.objective_spec().payload.fixed_indices is not None
