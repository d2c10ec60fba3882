"""The repository benchmark: time `bitretrieve` workloads end to end, check
their outputs, and with `--trace 1` report per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is one `bitretrieve.cli.main(argv)` call in a fresh
interpreter (`child.py`), so it pays imports, config parsing and CSV writing
as a user does. Repetitions run while another one still fits in
`--seconds`, at least three of them, and the timings reported are their
medians. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` the first repetition runs
untraced (for the tracing overhead) and the others traced, and the JSON
holds the per-layer metrics. `--workload all` runs every workload in turn.
See README.md.

Exit status: 0 when every output passed its checks, 1 when a check failed
(the JSON is still printed, with "correct": false), 2 when the command cannot
run here at all, for example without the library's sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REPS = 3
# A run must end within 180 s; stop starting repetitions that would pass this.
DEADLINE_S = 165.0
# BLAS helper threads would run outside the traced threads' CPU clocks and add
# parallelism the workload did not ask for: --threads is the only parallelism.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Layer functions that only some workloads call: their times are printed in
# the traced run's report but kept out of the JSON, whose metrics every
# workload must measure.
DETAIL_TIMES = (
    "measurement.measure.busy_s",
    "measurement.trace_table.busy_s",
    "measurement.trace_table.ns_per_entry",
    "measurement.corrupt_bits.busy_s",
    "recovery.empirical_average.busy_s",
    "recovery.empirical_average.ns_per_projection",
    "recovery.average_stack.busy_s",
    "recovery.recover_from_average.busy_s",
)
# Cost per unit of work: metric -> (busy time, work count).
RATES = {
    "sampler.sample_ensemble.ns_per_projection": (
        "sampler.sample_ensemble.busy_s", "sampler.sample_ensemble.projections"),
    "recovery.empirical_average.ns_per_projection": (
        "recovery.empirical_average.busy_s", "recovery.empirical_average.projections"),
    "measurement.trace_table.ns_per_entry": (
        "measurement.trace_table.busy_s", "measurement.trace_table.entries"),
}


@dataclass
class Rep:
    traced: bool
    threads: int
    rc: int
    wall_s: float
    stderr: str
    report: dict | None
    paths: list[str]
    digests: dict[str, str]

    @property
    def setup_s(self) -> float:
        return (self.report["first_unit_ns"] - self.report["spawn_ns"]) / 1e9


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_rep(workload, seed: int, rep_dir: Path, traced: bool, timeout: float, threads=None) -> Rep:
    from workloads import csv_paths

    rep_dir.mkdir(parents=True)
    out = str(rep_dir / "out.csv")
    report_path = rep_dir / "report.json"
    argv = workload.argv(seed, out, threads)
    spawn = time.monotonic_ns()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "child.py"),
            "--src", str(SRC),
            "--report", str(report_path),
            "--spawn-ns", str(spawn),
            "--trace", str(int(traced)),
            "--", *argv,
        ],
        env={**os.environ, **PINNED_ENV},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    wall_s = (time.monotonic_ns() - spawn) / 1e9
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    paths = csv_paths(out) if proc.returncode == 0 else []
    digests = {Path(p).name: sha256(p) for p in paths}
    return Rep(traced, threads or workload.threads, proc.returncode, wall_s, proc.stderr,
               report, paths, digests)


def source_identity() -> dict:
    """The git commit when there is one, and a digest of the library's sources."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"git_commit": commit or "unavailable", "src_sha256": digest.hexdigest()}


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def layer_metrics(reps: list[Rep], untraced_wall: float, names) -> tuple[dict, dict, list]:
    """Medians over the traced repetitions of every per-layer metric."""
    samples: dict[str, list[float]] = {}
    closures = []
    for index, rep in enumerate(reps):
        if not rep.traced:
            continue
        got = dict(rep.report["trace"]["metrics"])
        closures.extend({"rep": index, **c} for c in rep.report["trace"]["closure"])
        for name, (busy, work) in RATES.items():
            if got.get(work):
                got[name] = 1e9 * got[busy] / got[work]
        got["tracing.overhead_s"] = rep.wall_s - untraced_wall
        for name in (*names, *DETAIL_TIMES):
            samples.setdefault(name, []).append(got.get(name, 0))
    medians = {name: statistics.median(values) for name, values in samples.items()}
    json_metrics = {name: medians[name] for name in names}
    detail = {name: medians[name] for name in DETAIL_TIMES if medians[name]}
    return json_metrics, detail, closures


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    from workloads import read_outputs

    started = time.monotonic()
    deadline = started + DEADLINE_S
    run_dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    reps: list[Rep] = []
    failures: list[str] = []
    lines: list[str] = []

    def remaining() -> float:
        return deadline - time.monotonic()

    def rep(traced: bool, threads=None) -> Rep | None:
        try:
            result = run_rep(workload, seed, run_dir / f"rep{len(reps)}", traced, remaining(), threads)
        except subprocess.TimeoutExpired:
            failures.append(f"repetition {len(reps)} did not finish before the run's deadline")
            return None
        reps.append(result)
        if result.rc != 0:
            tail = result.stderr.strip().splitlines()[-3:]
            failures.append(f"repetition {len(reps) - 1} exited {result.rc}: {' | '.join(tail)}")
            return None
        return result

    extra = 1 if workload.cross_thread_check else 0
    while rep(traced=trace and len(reps) > 0) is not None:
        # Start another repetition only if it can end within --seconds.
        longest = max(r.wall_s for r in reps)
        if len(reps) >= MIN_REPS and time.monotonic() - started + longest > seconds:
            break
        if remaining() < 1.2 * longest * (1 + extra):
            lines.append(f"note: stopped after {len(reps)} repetitions to keep within the deadline")
            break
    timed = list(reps)
    if not failures and extra:
        rep(traced=False, threads=1)

    ok_reps = [r for r in reps if r.rc == 0]
    if any(r.report["first_unit_ns"] is None for r in ok_reps):
        failures.append("the runner never handed units to its pool, so setup_s is undefined")
    if ok_reps and not failures:
        outputs = read_outputs(ok_reps[0].paths)
        failures.extend(workload.gate(outputs))
        for index, r in enumerate(ok_reps[1:], start=1):
            if r.digests != ok_reps[0].digests:
                failures.append(
                    f"CSV digests of repetition {index} (traced={r.traced}, --threads {r.threads})"
                    " differ from repetition 0"
                )
        degenerate = sum(row["degenerate"] == "true" for row in outputs.primary)
    else:
        degenerate = 0
    attempted = workload.ops * len(reps)
    failed = sum(workload.ops if r.rc != 0 else degenerate for r in reps)

    result: dict = {"correct": not failures, "attempted": attempted, "failed": failed}
    if trace and not failures and not any(r.traced for r in timed):
        failures.append("no traced repetition finished before the deadline")
        result["correct"] = False
    if failures:
        result["metrics"] = {}
    elif trace:
        units = metric_units("per_layer")
        untraced = [r for r in timed if not r.traced]
        metrics, detail, closures = layer_metrics(timed, untraced[0].wall_s, units)
        if metrics["tracing.closure_failures"]:
            failures.append("per-thread accounting of traced time did not close")
            result["correct"] = False
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        for name, value in detail.items():
            lines.append(f"detail {name} = {value:.6g}")
        for c in closures:
            lines.append(
                "closure rep {rep} thread {thread}: window {window_s:.4f} s = layers {layer_s:.4f}"
                " + pool wait {pool_wait_s:.4f} + self {self_s:.4f}"
                " (residual {residual_ns} ns) {ok}".format(**c, ok="ok" if c["closes"] else "FAILED")
            )
    else:
        walls = [r.wall_s for r in timed]
        wall = statistics.median(walls)
        values = {
            "setup_s": statistics.median(r.setup_s for r in timed),
            "wall_s": wall,
            "bits_per_s": workload.bits / wall,
            "peak_rss_mb": statistics.median(r.report["peak_rss_mb"] for r in timed),
        }
        units = metric_units("end_to_end")
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        lines.append("walls_s = " + ", ".join(f"{w:.4f}" for w in walls))

    for name, metric in result["metrics"].items():
        lines.append(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    lines.append(f"{workload.name} ops_attempted = {attempted}, ops_failed = {failed}")
    for message in failures:
        lines.append(f"FAIL {workload.name}: {message}")
    if ok_reps:
        lines.append("digests " + json.dumps(ok_reps[0].digests, sort_keys=True))
        provenance = {
            "workload": workload.name,
            "why": workload.why,
            "seed": seed,
            "argv": workload.argv(seed, "OUT.csv"),
            "repetitions": len(timed),
            "traced_repetitions": sum(r.traced for r in timed),
            "cross_thread_check": bool(extra),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "env": PINNED_ENV,
            **ok_reps[0].report["versions"],
            "blas": ok_reps[0].report["blas"],
            **source_identity(),
        }
        lines.append("provenance " + json.dumps(provenance, sort_keys=True))
    return result, lines


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "bitretrieve" / "cli.py").is_file():
        print(f"perfbench: no library sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="bitretrieve benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for line in lines:
            print(line)
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
