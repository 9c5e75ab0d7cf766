"""Command-line entry point: run experiments, verify the law properties,
and re-serialize run outputs for plotting.  ``run`` hands its flags' texts
to ``config.parse_config``, which reads each like a config file's value and
lets it win over that key's line."""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from ._version import __version__
from .config import LAWS, MODES, TASKS, ConfigError, parse_config
from .engine import _write_lines, run_and_write
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
    # no type= or choices=: cmd_run reads each flag's text as parse_config
    # reads a config line's value
    run_p.add_argument("--law", metavar="{%s}" % ",".join(LAWS))
    run_p.add_argument("--task", metavar="{%s}" % ",".join(TASKS))
    run_p.add_argument("--K", dest="K", metavar="INT")
    run_p.add_argument("--trials", metavar="INT")
    run_p.add_argument("--seed", metavar="U64", dest="master_seed")
    run_p.add_argument("--steps", metavar="INT")
    run_p.add_argument("--mode", metavar="{%s}" % ",".join(MODES))
    run_p.add_argument("--out", metavar="DIR", dest="out_dir")
    run_p.add_argument(
        "--retain-trajectories",
        action="store_const",
        const="true",
        dest="retain_trajectories",
    )
    run_p.add_argument("--smooth-min-eps", metavar="NEG_REAL", dest="smooth_min_eps")
    run_p.add_argument("--workers", metavar="INT")

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
    # no defaults: cmd_verify passes only the counts given, and run_verify
    # owns the defaults
    ver_p.add_argument("--seeds", type=positive_int, help="paired seeds to test")
    ver_p.add_argument("--trials", type=positive_int, help="trials for empirical checks")
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


def _or_unwritable(write, *args):
    """Return ``write(*args)``, or None after naming the file it could not
    write; an OSError naming no file, such as a failed pool start, propagates."""
    try:
        return write(*args)
    except OSError as err:
        if err.filename is None:
            raise
        print(f"cannot write {err.filename}: {err.strerror}", file=sys.stderr)
        return None


def cmd_run(args: argparse.Namespace) -> int:
    # argparse hands --flag=-- over as [], having dropped the "--" it read
    flags = {
        k: "--" if v == [] else v
        for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        config = parse_config(text, flags)
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

    result = _or_unwritable(run_and_write, config)
    if result is None:
        return 2
    done = len(result.records)
    print(f"completed {done} trial(s), excluded {len(result.excluded)}; wrote {config.out_dir}")
    for idx, reason in result.excluded:
        print(f"  trial {idx} excluded: {reason}", file=sys.stderr)
    return 0 if not result.excluded else 1


def cmd_verify(args: argparse.Namespace) -> int:
    names = args.check or sorted(VERIFY_CHECKS)
    if not args.out_dir:  # names no directory, as run's out_dir rule says
        print("out_dir must not be empty", file=sys.stderr)
        return 2
    if not _make_out_dir(args.out_dir):
        return 2
    counts = {k: v for k, v in vars(args).items() if k in ("seeds", "trials") and v is not None}
    report, all_ok = run_verify(names, concave=args.concave, **counts)
    print(report, end="")
    path = os.path.join(args.out_dir, "verify_report.txt")
    if _or_unwritable(_write_lines, path, report.splitlines()) is None:
        return 2
    print(f"report written to {path}")
    return 0 if all_ok else 1


def _read_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return rows[0], rows[1:]


# trajectory_<trial>.csv, or trajectory_bc_<trial>.csv for the two-stage partner
_TRAJECTORY = re.compile(r"trajectory_(bc_)?(\d+)\.csv")


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
    # the single-stage trials, then a paired run's two-stage partner, each in
    # trial order (a name's order puts trial 10 before trial 2)
    names = map(_TRAJECTORY.fullmatch, os.listdir(run_dir))
    for tag, trial, name in sorted((m[1] or "", int(m[2]), m[0]) for m in names if m):
        header, rows = _read_csv(os.path.join(run_dir, name))
        for row in rows:
            t, agent = row[0], row[1]
            for col, value in zip(header[2:], row[2:]):
                lines.append(f"{t},{tag}agent{agent}_{col},{trial},{value}")
    if _or_unwritable(_write_lines, out_path, lines) is None:
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
