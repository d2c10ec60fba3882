"""The benchmark's workloads: the CLI call each one makes and its correctness gate.

Every workload is one `bitretrieve` CLI invocation whose only varying input
is the master seed, which is the benchmark's `--seed`. The gates
come from the paper's guarantees and hold for any seed; they read the CSVs
back with the stdlib `csv` module, not with the library's parser.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bitretrieve import theory
from bitretrieve.core import FieldKind

# The acceptance-criterion-4 grid: half-decades from 1e2 to 1e5.
POINTWISE_GRID = (100, 316, 1000, 3162, 10000, 31623, 100000)
# pointwise_m(complex, 4, delta=0.2, D=2): the m at which the noise bound applies.
NOISE_M = 40546
# Sizes are chosen so one repetition takes a few seconds on a 2-core machine,
# and a run can take the median of at least three.
POINTWISE_TRIALS = 2
UNIFORM_INPUTS = 1024
NOISE_TRIALS = 8


@dataclass(frozen=True)
class Outputs:
    """The CSVs one repetition wrote, parsed into rows of strings."""

    primary: list[dict[str, str]]
    tables: dict[str, list[dict[str, str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    options: tuple[str, ...]
    threads: int
    why: str
    # One-bit measurements taken per repetition.
    bits: int
    # PEP recoveries per repetition.
    ops: int
    # Maps the parsed outputs to failure messages; empty when they pass.
    gate: Callable[[Outputs], list[str]]
    # Also run once with --threads 1 and require the same CSV bytes.
    cross_thread_check: bool = False

    def argv(self, seed: int, out: str, threads: int | None = None) -> list[str]:
        threads = self.threads if threads is None else threads
        return [
            self.experiment,
            *self.options,
            "--threads", str(threads),
            "--seed", str(seed),
            "--out", out,
        ]


def csv_paths(out: str) -> list[str]:
    """Every CSV one repetition wrote: the primary first, then the auxiliary
    tables `<stem>.<name>.csv` in name order."""
    stem = Path(out[: -len(".csv")])
    return [out, *sorted(str(p) for p in stem.parent.glob(stem.name + ".*.csv"))]


def read_outputs(paths: list[str]) -> Outputs:
    """Parse the primary CSV and the auxiliary tables listed after it."""
    primary, *aux = paths
    stem = primary[: -len(".csv")]
    tables = {}
    for path in aux:
        name = path[len(stem) + 1 : -len(".csv")]
        tables[name] = _rows(path)
    return Outputs(_rows(primary), tables)


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


def _expect_units(rows: list[dict[str, str]], units: set[tuple[int, int]], what: str) -> list[str]:
    got = sorted((int(r["trial"]), int(r["m"])) for r in rows)
    if got != sorted(units):
        return [f"{what}: {len(got)} rows do not match the {len(units)} expected (trial, m) units"]
    return []


def _pointwise_gate(out: Outputs) -> list[str]:
    units = {(t, m) for t in range(POINTWISE_TRIALS) for m in POINTWISE_GRID}
    fails = _expect_units(out.primary, units, "pointwise")
    if fails:
        return fails
    for m in POINTWISE_GRID:
        errors = [float(r["error"]) for r in out.primary if int(r["m"]) == m]
        level = theory.pointwise_error_level(FieldKind.REAL, 8, m, 2.0)
        median = statistics.median(errors)
        if not median < level:
            fails.append(f"pointwise m={m}: median error {median:.4g} >= bound {level:.4g}")
    table = {int(r["m"]): float(r["delta_bound"]) for r in out.tables.get("bounds", [])}
    for m in POINTWISE_GRID:
        if table.get(m) != theory.pointwise_error_level(FieldKind.REAL, 8, m, 2.0):
            fails.append(f"pointwise bounds table: m={m} disagrees with pointwise_error_level")
    return fails


def _uniform_gate(out: Outputs) -> list[str]:
    m = 20000
    fails = _expect_units(out.primary, {(i, m) for i in range(UNIFORM_INPUTS)}, "uniform")
    if fails:
        return fails
    errors = [float(r["error"]) for r in out.primary]
    bound = theory.invert_uniform_delta(FieldKind.REAL, 8, m, 2.0)
    worst, median = max(errors), statistics.median(errors)
    if not worst < bound:
        fails.append(f"uniform: max error {worst:.4g} >= inverted uniform bound {bound:.4g}")
    if not worst < 5.0 * median:
        fails.append(f"uniform: max error {worst:.4g} >= 5 x median {median:.4g}")
    running = [float(r["max_error"]) for r in out.tables.get("max", [])]
    if len(running) != UNIFORM_INPUTS or running[-1] != worst:
        fails.append("uniform max table: running maximum does not end at the max error")
    return fails


def _noise_gate(out: Outputs) -> list[str]:
    units = {(t, NOISE_M) for t in range(NOISE_TRIALS)}
    fails = _expect_units(out.primary, units, "noise") + _expect_units(
        out.tables.get("noise", []), units, "noise table"
    )
    if fails:
        return fails
    bound = theory.noisy_error_bound(FieldKind.COMPLEX, 4, 0.2, 0.02)
    within = sum(float(r["error"]) <= bound for r in out.primary)
    if within < 0.8 * NOISE_TRIALS:
        fails.append(f"noise: {within}/{NOISE_TRIALS} trials within the bound {bound:.4g}, need 80%")
    for row in out.tables["noise"]:
        if float(row["bound"]) != bound:
            fails.append(f"noise table: bound {row['bound']} != noisy_error_bound {bound!r}")
            break
    return fails


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pointwise-grid",
            experiment="pointwise",
            options=(
                "--field", "real", "--n", "8",
                "--m-grid", ",".join(str(m) for m in POINTWISE_GRID),
                "--trials", str(POINTWISE_TRIALS), "--bound-D", "2",
            ),
            threads=1,
            why=(
                "Criterion-4 shape: the sampler's per-element reseed loop does almost all"
                " the work, and the m=1e5 ensemble sets peak memory."
            ),
            bits=POINTWISE_TRIALS * sum(POINTWISE_GRID),
            ops=POINTWISE_TRIALS * len(POINTWISE_GRID),
            gate=_pointwise_gate,
        ),
        Workload(
            name="uniform-block",
            experiment="uniform",
            options=(
                "--field", "real", "--n", "8", "--m-grid", "20000",
                "--inputs", str(UNIFORM_INPUTS), "--bound-D", "2",
            ),
            threads=1,
            why=(
                "One ensemble shared by 1024 signals in two blocks: trace_table and the batched average"
                " dominate and the sampler does little, so sampler gains should not show."
            ),
            bits=20000 * UNIFORM_INPUTS,
            ops=UNIFORM_INPUTS,
            gate=_uniform_gate,
        ),
        Workload(
            name="noise-greedy-2t",
            experiment="noise",
            options=(
                "--field", "complex", "--n", "4", "--m-grid", str(NOISE_M),
                "--trials", str(NOISE_TRIALS), "--tau", "0.02", "--flip-mode", "greedy",
                "--delta", "0.2",
            ),
            threads=2,
            why=(
                "The only complex-field, corruption-stage and thread-pool workload; it"
                " shows whether the sampler's GIL-holding loop limits 2-thread runs."
            ),
            bits=NOISE_TRIALS * NOISE_M,
            # A clean and a noisy recovery per unit.
            ops=2 * NOISE_TRIALS,
            gate=_noise_gate,
            cross_thread_check=True,
        ),
    )
}

