"""Command-line entry point: run experiments, verify the law properties,
and re-serialize run outputs for plotting."""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys

from ._version import __version__
from .config import LAWS, MODES, TASKS, ConfigError, ExperimentConfig, load_config
from .engine import run_and_write
from .verify import VERIFY_CHECKS, run_verify


def positive_int(text: str) -> int:
    """Argument type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="broadcast-control",
        description="Deterministic multi-agent broadcast-control simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("--config", metavar="PATH", help="config file (flat key = value)")
    run_p.add_argument("--law", choices=LAWS)
    run_p.add_argument("--task", choices=TASKS)
    run_p.add_argument("--K", type=int, dest="K", metavar="INT")
    run_p.add_argument("--trials", type=int, metavar="INT")
    run_p.add_argument("--seed", type=int, metavar="U64", dest="master_seed")
    run_p.add_argument("--steps", type=int, metavar="INT")
    run_p.add_argument("--mode", choices=MODES)
    run_p.add_argument("--out", metavar="DIR", dest="out_dir")
    run_p.add_argument(
        "--retain-trajectories",
        action="store_const",
        const="true",
        dest="retain_trajectories",
    )
    run_p.add_argument(
        "--smooth-min-eps", type=float, metavar="NEG_REAL", dest="smooth_min_eps"
    )
    run_p.add_argument("--workers", type=int, metavar="INT")

    ver_p = sub.add_parser("verify", help="run the exact/empirical law checks")
    ver_p.add_argument(
        "--check",
        action="append",
        choices=sorted(VERIFY_CHECKS),
        help="restrict to named checks (repeatable; default: all)",
    )
    ver_p.add_argument(
        "--concave",
        action="store_true",
        help="use a concave instance for the probe-count ordering check",
    )
    ver_p.add_argument(
        "--seeds", type=positive_int, default=3, help="paired seeds to test"
    )
    ver_p.add_argument(
        "--trials", type=positive_int, default=20, help="trials for empirical checks"
    )
    ver_p.add_argument("--out", metavar="DIR", default=".", dest="out_dir")

    plot_p = sub.add_parser("plotdata", help="flatten a run directory to tidy CSV")
    plot_p.add_argument("run_dir", metavar="DIR")
    plot_p.add_argument("--out", metavar="PATH", help="default: DIR/plotdata.csv")
    return parser


def _make_out_dir(path: str) -> bool:
    """Create the output directory, or say on one line why it cannot be."""
    try:
        os.makedirs(path, exist_ok=True)
    except (OSError, ValueError) as err:  # ValueError: a NUL byte in the path
        reason = err.strerror if isinstance(err, OSError) else err
        print(f"cannot create output directory {path}: {reason}", file=sys.stderr)
        return False
    return True


def cmd_run(args: argparse.Namespace) -> int:
    try:
        if args.config:
            config = load_config(args.config)
        else:
            config = ExperimentConfig()
        # flags win over the config file; replace checks the new config again
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        flags = {k: v for k, v in vars(args).items() if k in fields and v is not None}
        config = dataclasses.replace(config, **flags)
    except ConfigError as err:
        print("invalid configuration:", file=sys.stderr)
        for v in err.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return 2
    if not _make_out_dir(config.out_dir):
        return 2

    result = run_and_write(config)
    done = len(result.records)
    print(f"completed {done} trial(s), excluded {len(result.excluded)}; wrote {config.out_dir}")
    for idx, reason in result.excluded:
        print(f"  trial {idx} excluded: {reason}", file=sys.stderr)
    return 0 if not result.excluded else 1


def cmd_verify(args: argparse.Namespace) -> int:
    names = args.check or sorted(VERIFY_CHECKS)
    if not _make_out_dir(args.out_dir):
        return 2
    report, all_ok = run_verify(
        names, concave=args.concave, seeds=args.seeds, trials=args.trials
    )
    print(report, end="")
    path = os.path.join(args.out_dir, "verify_report.txt")
    with open(path, "w", newline="\n") as fh:
        fh.write(report)
    print(f"report written to {path}")
    return 0 if all_ok else 1


def _read_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return rows[0], rows[1:]


def cmd_plotdata(args: argparse.Namespace) -> int:
    run_dir = args.run_dir
    manifest = os.path.join(run_dir, "manifest")
    if not os.path.isfile(manifest):
        print(f"no manifest in {run_dir}; refusing to emit plot data", file=sys.stderr)
        return 2
    out_path = args.out or os.path.join(run_dir, "plotdata.csv")
    lines = ["t,series,trial,value"]
    for name in ("summary.csv", "summary_bc.csv"):
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            continue
        tag = "" if name == "summary.csv" else "bc_"
        header, rows = _read_csv(path)
        for row in rows:
            for col, value in zip(header[1:], row[1:]):
                lines.append(f"{row[0]},{tag}{col},mean,{value}")
    for path in sorted(glob.glob(os.path.join(run_dir, "trajectory_*.csv"))):
        stem = os.path.basename(path)[len("trajectory_") : -len(".csv")]
        header, rows = _read_csv(path)
        for row in rows:
            t, agent = row[0], row[1]
            for col, value in zip(header[2:], row[2:]):
                lines.append(f"{t},agent{agent}_{col},{stem},{value}")
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        print(f"cannot write {out_path}: {err.strerror}", file=sys.stderr)
        return 2
    print(f"wrote {out_path} ({len(lines) - 1} rows)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_plotdata(args)


if __name__ == "__main__":
    sys.exit(main())
