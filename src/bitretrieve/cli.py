"""Command-line interface.

Usage:
    bitretrieve <pointwise|uniform|noise|diagnostics|theory>
                [--config PATH] [--seed N] [--out PATH] [--threads N]
                [--field F] [--n N] [--m-grid LIST] [--trials N]
                [--inputs N] [--delta X] [--bound-D X] [--tau X]
                [--flip-mode MODE]

Flags override config-file keys of the same name, parsed alike. `main` fixes
the C library's mmap and trim thresholds for its process and holds it to one
malloc arena (glibc's M_ARENA_MAX = 1), which the worker threads share. Exit
codes:

0   success (for diagnostics: every check passed).
1   a failure during the run: a failed diagnostic, a theory relation
    violated by a trial (CheckFailure), or an eigensolve that missed its
    residual tolerance (ArithmeticError). The message goes to stderr.
2   a configuration or input error: an unknown, malformed, repeated or
    out-of-range key (a seed, a seed-path index, a non-finite delta or D),
    an unreadable config file, an unwritable output path, a --threads value
    below 1, or a config whose bound is undefined (n = 1 over either field,
    where the gap is zero). Errors in the config itself, an output path or
    auxiliary-table path that is a directory, and an output directory that
    is missing or not writable, are reported before any trial runs.
"""

from __future__ import annotations

import argparse
import ctypes
import sys

from .core import InvalidInput
from .experiments import (
    CheckFailure,
    ConfigError,
    DiagnosticsReport,
    EXPERIMENTS,
    _CONFIG_KEYS,
    _check_output_dir,
    load_config,
    run_diagnostics,
    run_experiment,
    theory_lines,
    write_result,
)

__all__ = ["main", "entry"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitretrieve",
        description="One-bit phase retrieval experiments and theory constants.",
    )
    parser.add_argument("experiment", help="one of " + ", ".join(EXPERIMENTS))
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for trials")
    # One flag per config key, read as text: load_config parses and checks
    # every value, from a file or a flag, by the same rules.
    names = {"master_seed": "--seed", "output_path": "--out"}
    for key in _CONFIG_KEYS:
        if key != "experiment":
            flag = names.get(key, "--" + key.replace("_", "-"))
            parser.add_argument(flag, dest=key, help=f"overrides {key}")
    return parser


def _print_diagnostics(report: DiagnosticsReport) -> None:
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name}: statistic={check.statistic:.6g} threshold={check.threshold:.6g}"
        if check.detail:
            line += f" ({check.detail})"
        print(line)


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at the ceilings its dynamic rule
    reaches, since the dynamic ones give each slice's freed buffers back to
    the kernel, and set M_ARENA_MAX to 1, so that the worker threads share
    the main heap instead of each keeping pages in an arena of its own.
    The settings are process-wide and for good, so only the CLI makes them.
    A C library without `mallopt` is left alone."""
    libc = ctypes.CDLL(None) if sys.platform != "win32" else None  # CDLL(None) is POSIX-only
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, in bytes
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        mallopt(-8, 1)  # M_ARENA_MAX


def main(argv: list[str] | None = None) -> int:
    _fix_malloc_thresholds()
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print(f"--threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 2
    try:
        overrides = {key: getattr(args, key) for key in _CONFIG_KEYS}
        cfg = load_config(args.config, overrides=overrides)
        if cfg.experiment == "theory":
            for line in theory_lines(cfg.field, cfg.n, cfg.delta, cfg.bound_D, cfg.tau):
                print(line)
            return 0
        if cfg.experiment == "diagnostics":
            report = run_diagnostics(cfg)
            _print_diagnostics(report)
            if not report.passed:
                failing = [c.name for c in report.checks if not c.passed]
                print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
                return 1
            return 0
        _check_output_dir(cfg.output_path, cfg.experiment)
        result = run_experiment(cfg, threads=args.threads)
        for path in write_result(result, cfg.output_path):
            print(f"wrote {path}")
        return 0
    except (ConfigError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
