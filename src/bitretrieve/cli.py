"""Command-line interface.

Usage:
    bitretrieve <pointwise|uniform|noise|diagnostics|theory>
                [--config PATH] [--seed N] [--out PATH] [--threads N]
                [--field F] [--n N] [--m-grid LIST] [--trials N]
                [--inputs N] [--delta X] [--bound-D X] [--tau X]
                [--flip-mode MODE]

Flags override config-file keys of the same name. Exit codes:

0   success (for diagnostics: every check passed).
1   a failure during the run: a failed diagnostic, a theory relation
    violated by a trial (CheckFailure), or an eigensolve that missed its
    residual tolerance (ArithmeticError). The message goes to stderr.
2   a configuration or input error: an unknown or malformed key, an
    unreadable config file, an unwritable output path, or a config whose
    bound is undefined (for example real n = 1, where the spectral gap
    is zero). Errors in the config itself are raised before any trial
    runs.
"""

from __future__ import annotations

import argparse
import sys

from .core import InvalidInput
from .experiments import (
    CheckFailure,
    ConfigError,
    DiagnosticsReport,
    EXPERIMENTS,
    _CONFIG_KEYS,
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
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument(
        "--seed", dest="master_seed", metavar="SEED", type=int,
        help="master seed (overrides master_seed)",
    )
    parser.add_argument(
        "--out", dest="output_path", metavar="OUT",
        help="output CSV path (overrides output_path)",
    )
    parser.add_argument("--threads", type=int, default=1, help="worker threads for trials")
    parser.add_argument("--field", help="real or complex")
    parser.add_argument("--n", type=int, help="half-dimension n (signals live in F^(2n))")
    parser.add_argument("--m-grid", dest="m_grid", help="comma-separated measurement counts")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--inputs", type=int)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--bound-D", dest="bound_D", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--flip-mode", dest="flip_mode", choices=["random", "greedy"])
    return parser


def _print_diagnostics(report: DiagnosticsReport) -> None:
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name}: statistic={check.statistic:.6g} threshold={check.threshold:.6g}"
        if check.detail:
            line += f" ({check.detail})"
        print(line)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
        result = run_experiment(cfg, threads=max(1, args.threads))
        for path in write_result(result, cfg.output_path):
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
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
