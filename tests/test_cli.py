import contextlib
import dataclasses
import errno
import io
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from broadcast_control import ConfigError, cli, parse_config
from broadcast_control.cli import main
from broadcast_control.config import LAWS, MODES, RETAIN, TASKS, ExperimentConfig
from broadcast_control.engine import run_and_write

BASE = "N = 3\nformation_count = 3\nsteps = 5\ntrials = 2\n"


def _write_config(tmp_path, text=BASE, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_run_writes_expected_files(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run1"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = _read(out / "summary.csv").decode()
    lines = summary.strip().split("\n")
    assert lines[0] == "t,J_mean,J_sd,D_mean,D_sd"
    assert len(lines) == 1 + 6  # header + steps + 1
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    assert (out / "manifest").is_file()
    assert (out / "trajectory_0.csv").is_file()
    assert (out / "trajectory_1.csv").is_file()


def test_run_single_trial_sd_zero(tmp_path):
    cfg = _write_config(tmp_path, BASE.replace("trials = 2", "trials = 1"))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    for line in _read(out / "summary.csv").decode().strip().split("\n")[1:]:
        cols = line.split(",")
        assert cols[2] == "0" and cols[4] == "0"


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("summary.csv", "trajectory_0.csv", "trajectory_1.csv"):
        assert _read(out1 / name) == _read(out2 / name)
    # manifests echo out_dir, so compare them with the path lines dropped
    m1 = [l for l in _read(out1 / "manifest").decode().split("\n") if "out_dir" not in l]
    m2 = [l for l in _read(out2 / "manifest").decode().split("\n") if "out_dir" not in l]
    assert m1 == m2


def test_worker_count_does_not_change_bytes(tmp_path):
    # every output file, the paired law's summary_bc.csv and both trajectory
    # sets included, is identical up to the manifest's workers and out_dir
    # lines; 10 trials exceed one pool chunk, so two workers both get trials
    text = BASE.replace("trials = 2", "trials = 10") + "retain_trajectories = true\n"
    for law in ("pbc", "paired"):
        cfg = _write_config(tmp_path, text + f"workers = 5\nlaw = {law}\nmode = theorem\n")
        out1, out2 = tmp_path / f"{law}1", tmp_path / f"{law}2"
        assert main(["run", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert "summary.csv" in names and "trajectory_9.csv" in names
        if law == "paired":
            assert "summary_bc.csv" in names and "trajectory_bc_9.csv" in names
        for name in names:
            a, b = _read(out1 / name), _read(out2 / name)
            if name == "manifest":
                a, b = _without_paths_and_workers(a), _without_paths_and_workers(b)
            assert a == b, name


def _without_paths_and_workers(manifest: bytes) -> list:
    return [
        line for line in manifest.split(b"\n")
        if not line.startswith((b"workers = ", b"out_dir = "))
    ]


def test_flags_override_config(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "o"
    assert main([
        "run", "--config", cfg, "--out", str(out),
        "--task", "quadratic", "--steps", "3", "--trials", "1", "--seed", "17",
    ]) == 0
    manifest = _read(out / "manifest").decode()
    assert "task = quadratic" in manifest
    assert "steps = 3" in manifest
    assert "master_seed = 17" in manifest
    assert len(_read(out / "summary.csv").decode().strip().split("\n")) == 1 + 4


@pytest.mark.parametrize(
    "flag, line",
    [
        (["--law", "bc"], "law = bc"),
        (["--task", "quadratic"], "task = quadratic"),
        (["--K", "2"], "K = 2"),
        (["--trials", "2"], "trials = 2"),
        (["--seed", "9"], "master_seed = 9"),
        (["--steps", "2"], "steps = 2"),
        (["--mode", "theorem"], "mode = theorem"),
        (["--out", "{flag_out}"], "out_dir = {flag_out}"),
        (["--retain-trajectories"], "retain_trajectories = true"),
        (["--smooth-min-eps=-5"], "smooth_min_eps = -5"),
        (["--workers", "2"], "workers = 2"),
    ],
)
def test_every_run_flag_reaches_config(tmp_path, flag, line):
    # each flag differs from the config file or the default, and the run
    # writes where the resulting config says
    cfg_out, flag_out = tmp_path / "cfg_out", tmp_path / "flag_out"
    cfg = _write_config(tmp_path, f"N = 3\nformation_count = 3\nsteps = 3\nout_dir = {cfg_out}\n")
    flag = [arg.format(flag_out=flag_out) for arg in flag]
    assert main(["run", "--config", cfg, *flag]) == 0
    manifest = _read((flag_out if flag[0] == "--out" else cfg_out) / "manifest")
    assert line.format(flag_out=flag_out) in manifest.decode().split("\n")


def test_smooth_min_eps_on_a_task_without_a_minimum_exits_2(tmp_path, capsys):
    # from a config line and from the flag alike, and nothing is written
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "task = quadratic\nsmooth_min_eps = -5\n")
    flag = ["--task", "assignment", "--smooth-min-eps=-5"]
    for argv, task in ((["--config", cfg], "quadratic"), (flag, "assignment")):
        assert main(["run", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (
            "smooth_min_eps applies to the coverage and rendezvous tasks only, "
            f"got task = {task!r}"
        ) in err
    assert not out.exists()


def test_repeated_rendezvous_formation_exits_2(tmp_path, capsys):
    # at N = 10 the default 15 rotations repeat formations: from a config
    # line, and from --task over a file of another task, nothing is written
    out = tmp_path / "out"
    rule = (
        "  - rendezvous needs formation_count <= N, the circle family's distinct "
        "rotations, got formation_count = 15, N = 10"
    )
    rendezvous = _write_config(tmp_path, "N = 10\n", "rendezvous.cfg")
    coverage = _write_config(tmp_path, "task = coverage\nN = 10\n", "coverage.cfg")
    for argv in (["--config", rendezvous], ["--config", coverage, "--task", "rendezvous"]):
        assert main(["run", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["invalid configuration:", rule]
    assert not out.exists()
    assert main(["run", "--config", coverage, "--steps", "0", "--out", str(out)]) == 0


def test_invalid_config_exits_2(tmp_path, capsys):
    cases = [
        ("law = paired\nK = 3\na_p = 0.4\n", ("paired", "2*a_p")),
        ("task = quadratic\nN = 2\nx0 = 1 nan 0 0\n", ("x0 must be finite",)),
        ("task = assignment\nN = 2\ntargets = 1 0 inf 0\n", ("targets must be finite",)),
        ("smooth_min_eps = -inf\n", ("smooth_min_eps must be finite",)),
    ]
    for text, fragments in cases:
        cfg = _write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        for fragment in fragments:
            assert fragment in err
    argv = ["run", "--smooth-min-eps=-inf", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "smooth_min_eps must be finite" in capsys.readouterr().err
    argv = ["run", "--law", "paired", "--K", "3", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "paired law requires K = 1, got K = 3" in capsys.readouterr().err


def test_bc_law_with_k_flag_exits_2(tmp_path, capsys):
    # --K beside --law bc is refused, not run as K = 1 under a manifest that
    # says otherwise, and nothing is written
    out = tmp_path / "out"
    assert main(["run", "--law", "bc", "--K", "3", "--steps", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid configuration:",
        "  - bc law requires K = 1, got K = 3",
    ]
    assert not out.exists()


def test_flag_wins_before_the_rules_across_fields(tmp_path):
    # the file's K = 3 breaks the paired law's rule, but the flag replaces it
    # before any rule runs
    cfg = _write_config(tmp_path, "law = paired\nK = 3\nsteps = 2\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--K", "1", "--out", str(out)]) == 0
    assert "K = 1" in _read(out / "manifest").decode().split("\n")


def test_bad_flags_listed_with_config_wording(tmp_path, capsys):
    argv = ["run", "--K", "x", "--law", "bogus", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid configuration:",
        "  - cannot parse K from 'x'",
        "  - law must be one of ('bc', 'pbc', 'paired'), got 'bogus'",
    ]
    assert not (tmp_path / "out").exists()


# every run flag that takes a value, with the config key it sets
_FLAG_KEYS = {
    "--law": "law", "--task": "task", "--K": "K", "--trials": "trials",
    "--seed": "master_seed", "--steps": "steps", "--mode": "mode", "--out": "out_dir",
    "--smooth-min-eps": "smooth_min_eps", "--workers": "workers",
}
# no '/' or NUL: an --out text is made a directory under the working one
_VALUE_TEXTS = (
    st.text(st.sampled_from("0123456789+-._eEinfatxb ,"), max_size=6)
    | st.sampled_from(LAWS + TASKS + MODES + ("-5", "-0.25", "1e400", "18446744073709551616"))
).filter(lambda text: text == text.strip())


# tenfold: the flags have no parser of their own, and drawn flag texts are
# the check that none creeps back in
@pytest.mark.tenfold
@given(st.sampled_from(sorted(_FLAG_KEYS)), _VALUE_TEXTS)
@example("--K", "1.5")
@example("--smooth-min-eps", "-inf")
@example("--smooth-min-eps", "")
@example("--out", "")
@example("--K", "--")
def test_flag_text_reads_like_a_config_line(tmp_path_factory, flag, text):
    # --flag=TEXT and the line "key = TEXT" give equal configs or equal
    # violations; the run itself is stubbed, as a drawn workers or trials
    # could start that many processes
    key = _FLAG_KEYS[flag]
    try:
        expected = parse_config(f"{key} = {text}\n")
    except ConfigError as err:
        expected = [f"  - {v}" for v in err.violations]
    built = []

    def run_and_write(config):
        built.append(config)
        return SimpleNamespace(records=[], excluded=[])

    err = io.StringIO()
    cwd = tmp_path_factory.getbasetemp() / "flag_text"
    cwd.mkdir(exist_ok=True)
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with mock.patch.object(cli, "run_and_write", run_and_write), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", f"{flag}={text}"])
    finally:
        os.chdir(old)
    if code == 0:
        assert built == [expected]
    else:
        assert code == 2 and err.getvalue().splitlines()[1:] == expected


def test_too_fine_coverage_grid_exits_2(tmp_path, capsys, monkeypatch):
    # the config rule refuses the grid, so no run tries to allocate it
    def no_grid(n, spacing):
        raise AssertionError("a grid was built")

    monkeypatch.setattr("broadcast_control.config.unit_cube_grid", no_grid)
    for text in ("task = coverage\ngrid_spacing = 1e-300\n", "task = coverage\nn = 4\n"):
        cfg = _write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "coverage grid must hold" in capsys.readouterr().err


def test_seed_out_of_range_exits_2(tmp_path, capsys):
    # --seed takes a U64; -1 once ran with the signs of seed 2**64 - 1
    for seed in ("-1", str(2**64)):
        argv = ["run", "--seed", seed, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert f"master_seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_out_exits_2(tmp_path, capsys, monkeypatch):
    # --out= names no directory: a violation, not a failed makedirs; verify,
    # whose --out is no config field, refuses it before it runs any check
    monkeypatch.chdir(tmp_path)
    for argv, err in (
        (["run", "--out="], ["invalid configuration:", "  - out_dir must not be empty"]),
        (["verify", "--check", "k-step", "--out="], ["out_dir must not be empty"]),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == err and captured.out == ""
        assert list(tmp_path.iterdir()) == []


def test_out_dir_with_hash_exits_2(tmp_path, capsys):
    # the manifest could not echo this out_dir: its '#' starts a comment
    cfg = _write_config(tmp_path)
    out = tmp_path / "runs#1"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "out_dir must hold no '#'" in capsys.readouterr().err
    assert not out.exists()


def test_uncreatable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = str(blocker / "sub")
    cfg = _write_config(tmp_path)
    # a NUL byte passes the config's checks, and os.makedirs raises ValueError
    nul = str(tmp_path / "a\x00b")
    nul_cfg = _write_config(tmp_path, BASE + f"out_dir = {nul}\n", name="nul.cfg")
    for argv, path in (
        (["run", "--config", cfg, "--out", bad], bad),
        (["verify", "--check", "k-step", "--out", bad], bad),
        (["run", "--config", nul_cfg], nul),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot create output directory {path}: ")
        assert err.count("\n") == 1


def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch):
    # a directory squats on a file the run or the report would write; exit 1
    # stays for a diverged trial or a failed check
    cfg = _write_config(tmp_path, BASE.replace("trials = 2", "trials = 1"))
    run_out, verify_out = tmp_path / "r", tmp_path / "v"
    (run_out / "manifest").mkdir(parents=True)
    (verify_out / "verify_report.txt").mkdir(parents=True)
    for argv, path in (
        (["run", "--config", cfg, "--out", str(run_out)], run_out / "manifest"),
        (["verify", "--check", "k-step", "--out", str(verify_out)],
         verify_out / "verify_report.txt"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {path}: ")
        assert err.count("\n") == 1

    # an OSError that names no file is no unwritable output
    def failed_pool_start(config):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "run_and_write", failed_pool_start)
    with pytest.raises(OSError):
        main(["run", "--config", cfg, "--out", str(run_out)])


def test_config_not_utf8_exits_2(tmp_path, capsys):
    # exit 1 is kept for a diverged trial; this was a UnicodeDecodeError
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"K = 1\n\xff\xfe\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read config: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_retention_policy(tmp_path):
    many = BASE.replace("trials = 2", "trials = 12")
    cfg = _write_config(tmp_path, many)
    out1 = tmp_path / "auto"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert not any(p.name.startswith("trajectory") for p in out1.iterdir())
    out2 = tmp_path / "forced"
    assert main(["run", "--config", cfg, "--out", str(out2), "--retain-trajectories"]) == 0
    assert (out2 / "trajectory_11.csv").is_file()


def test_paired_run_outputs(tmp_path):
    cfg = _write_config(tmp_path, BASE + "law = paired\nmode = theorem\n")
    out = tmp_path / "p"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "summary.csv").is_file()
    assert (out / "summary_bc.csv").is_file()
    bc_lines = _read(out / "summary_bc.csv").decode().strip().split("\n")
    assert len(bc_lines) == 1 + 11  # two-stage horizon 2T


def test_manifest_echoes_every_config_field(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "m"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    manifest = _read(out / "manifest").decode()
    for field in dataclasses.fields(ExperimentConfig):
        assert f"{field.name} = " in manifest
    assert "generator = splitmix64-keyed-v1" in manifest
    assert "excluded_trials = 0" in manifest


@st.composite
def _small_runs(draw):
    """A config of a few short trials over every task, law and option that
    the manifest echoes; some start far out, so every trial diverges."""
    task, law = draw(st.sampled_from(TASKS)), draw(st.sampled_from(LAWS))
    N = draw(st.integers(1, 4))
    fields = dict(
        task=task,
        law=law,
        K=1 if law in ("bc", "paired") else draw(st.integers(1, 3)),
        N=N,
        steps=draw(st.integers(0, 3)),
        trials=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        mode=draw(st.sampled_from(MODES)),
        grid_spacing=0.25,
        formation_count=draw(st.integers(1, N)),
        reassignment=draw(st.sampled_from(("every-step", "once-at-start"))),
        retain_trajectories=draw(st.sampled_from(RETAIN)),
    )
    if task in ("coverage", "rendezvous"):  # the tasks that take a smooth minimum
        fields["smooth_min_eps"] = draw(st.none() | st.floats(-100.0, -0.5))
    if task == "assignment":
        fields["a0"] = 0.2
    if draw(st.booleans()):
        fields["x0"] = (draw(st.sampled_from((0.3, 1e200))),) * (2 * N)
    return ExperimentConfig(**fields)


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# tenfold: every drawn small run's manifest must replay it byte for byte
@pytest.mark.tenfold
@given(_small_runs())
@settings(deadline=None)
def test_manifest_replays_the_run(config):
    # run --config DIR/manifest --out DIR2 reruns the run: every file is equal
    # byte for byte, apart from the manifest's out_dir line
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        first, second = Path(tmp, "first"), Path(tmp, "second")
        # the first run is built from the config itself, not from its text
        result = run_and_write(dataclasses.replace(config, out_dir=str(first)))
        code = main(["run", "--config", str(first / "manifest"), "--out", str(second)])
        assert code == (1 if result.excluded else 0)
        original, replayed = _files(first), _files(second)
    assert sorted(original) == sorted(replayed)
    for name, data in original.items():
        if name == "manifest":
            data = data.replace(f"out_dir = {first}\n".encode(), f"out_dir = {second}\n".encode())
        assert replayed[name] == data, name


def test_manifest_of_another_generator_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    manifest = (out / "manifest").read_text().replace("splitmix64-keyed-v1", "other-v2")
    (tmp_path / "manifest").write_text(manifest)
    replay = tmp_path / "replay"
    assert main(["run", "--config", str(tmp_path / "manifest"), "--out", str(replay)]) == 2
    assert capsys.readouterr().err.splitlines()[1:] == [
        "  - a manifest replays only with generator = splitmix64-keyed-v1 and "
        "package_version = 0.1.0, got 'other-v2' and '0.1.0'"
    ]
    assert not replay.exists()


def test_seed_changes_summary_bytes(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
    assert _read(out1 / "summary.csv") != _read(out2 / "summary.csv")


def test_plotdata_summary_only(tmp_path):
    cfg = _write_config(tmp_path, BASE.replace("trials = 2", "trials = 12"))
    out = tmp_path / "pd"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["plotdata", str(out)]) == 0
    rows = _read(out / "plotdata.csv").decode().strip().split("\n")
    assert rows[0] == "t,series,trial,value"
    # 4 series x (steps + 1) rows
    assert len(rows) == 1 + 4 * 6
    assert all(row.split(",")[2] == "mean" for row in rows[1:])


def test_plotdata_includes_trajectories(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "pd2"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["plotdata", str(out)]) == 0
    rows = _read(out / "plotdata.csv").decode().strip().split("\n")[1:]
    series = {row.split(",")[1] for row in rows}
    assert "agent0_x_1" in series
    assert "agent2_x_2" in series
    trials = {row.split(",")[2] for row in rows}
    assert {"mean", "0", "1"} <= trials


def test_plotdata_on_paired_run(tmp_path):
    # 12 retained trials, so a file name's order would put trial 10 before 2;
    # each trajectory row names its trial's index, and the two-stage
    # partner's rows carry its bc_ prefix in the series, as its summary's do
    text = "law = paired\nmode = theorem\nretain_trajectories = true\n"
    cfg = _write_config(tmp_path, BASE.replace("trials = 2", "trials = 12") + text)
    out = tmp_path / "pp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["plotdata", str(out)]) == 0
    rows = [r.split(",") for r in _read(out / "plotdata.csv").decode().strip().split("\n")[1:]]
    series = {r[1] for r in rows}
    assert "J_mean" in series
    assert "bc_J_mean" in series
    assert all(trial == "mean" or trial.isdigit() for _, _, trial, _ in rows)
    expected = []
    for tag in ("", "bc_"):
        for k in range(12):
            lines = _read(out / f"trajectory_{tag}{k}.csv").decode().strip().split("\n")[1:]
            for line in lines:
                t, agent, *coords = line.split(",")
                expected += [
                    [t, f"{tag}agent{agent}_x_{d + 1}", str(k), v] for d, v in enumerate(coords)
                ]
    assert [r for r in rows if r[2] != "mean"] == expected


def test_plotdata_missing_manifest(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "summary.csv").write_text("t,J_mean,J_sd,D_mean,D_sd\n")
    assert main(["plotdata", str(bare)]) == 2
    assert not (bare / "plotdata.csv").exists()


def test_plotdata_unwritable_out_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    capsys.readouterr()
    # a path under a regular file, and a path that is a directory
    for bad in (str(blocker / "x.csv"), str(out)):
        assert main(["plotdata", str(out), "--out", bad]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write {bad}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


def test_smooth_min_flag_changes_dynamics(tmp_path):
    text = "task = coverage\nN = 3\nsteps = 5\ntrials = 1\n"
    cfg = _write_config(tmp_path, text)
    out1, out2 = tmp_path / "hard", tmp_path / "soft"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--smooth-min-eps", "-5"]) == 0
    assert "smooth_min_eps = -5" in _read(out2 / "manifest").decode()
    assert _read(out1 / "summary.csv") != _read(out2 / "summary.csv")


def test_run_zero_steps(tmp_path):
    cfg = _write_config(tmp_path, "N = 3\nformation_count = 3\ntrials = 1\n")
    out = tmp_path / "z"
    assert main(["run", "--config", cfg, "--out", str(out), "--steps", "0"]) == 0
    lines = _read(out / "summary.csv").decode().strip().split("\n")
    assert len(lines) == 2  # header + single state


def test_verify_quick_checks(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(["verify", "--check", "k-step", "--check", "variance", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "k-step-ordering" in captured
    assert "PASS" in captured
    report = _read(out / "verify_report.txt").decode()
    assert "overall: PASS" in report


def test_verify_concave_reversal(tmp_path, capsys):
    out = tmp_path / "vc"
    code = main(["verify", "--check", "k-step", "--concave", "--out", str(out)])
    assert code == 0
    assert "reversed ordering expected" in capsys.readouterr().out


def test_verify_passes_only_the_counts_given(tmp_path, monkeypatch):
    # run_verify owns the defaults: the flags add none of their own
    calls = []

    def fake_run_verify(names, **kwargs):
        calls.append(kwargs)
        return "overall: PASS\n", True

    monkeypatch.setattr(cli, "run_verify", fake_run_verify)
    out = str(tmp_path / "v")
    assert main(["verify", "--check", "k-step", "--out", out]) == 0
    assert main(["verify", "--check", "k-step", "--seeds", "2", "--out", out]) == 0
    assert calls == [{"concave": False}, {"concave": False, "seeds": 2}]


def test_verify_rejects_counts_below_one(tmp_path, capsys):
    # zero paired seeds would report a vacuous PASS; zero trials a traceback
    for flag in ("--seeds", "--trials"):
        for value in ("0", "-2"):
            argv = ["verify", "--check", "k-step", "--check", "distance",
                    flag, value, "--out", str(tmp_path / "v")]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()
