"""One repetition of a workload: a single `bitretrieve.cli.main(argv)` call in
this fresh interpreter, timed and optionally traced from outside.

    python3 perfbench/child.py --src DIR --report PATH --spawn-ns NS --trace 0|1 -- ARGV...

`run.py` starts this script once per repetition, so every repetition pays the
imports, config parsing and CSV writing that a user of the CLI pays. The
report (JSON) holds the monotonic timestamps the parent needs for `setup_s`,
the process's peak RSS and, with `--trace 1`, the per-layer metrics.

Tracing replaces the names the runners look up in `bitretrieve.experiments`
(and the two that `bitretrieve.cli` imported) with wrappers that record one
span per call: name, start, end, thread CPU time, parent span, thread and
unit id (the seed path of the unit's ensemble stream). The library's source
is not touched. Spans stay in memory until `main` returns.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import inspect
import itertools
import json
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass, field

# Layer calls the runners make, by the name they look it up under in
# bitretrieve.experiments, with the metric prefix they report under (the
# theory calls are counted as one layer).
LAYER_CALLS = {
    "sample_ensemble": "sampler.sample_ensemble",
    "sample_unit_vector": "sampler.sample_unit_vector",
    "measure": "measurement.measure",
    "trace_table": "measurement.trace_table",
    "corrupt_bits": "measurement.corrupt_bits",
    "empirical_average": "recovery.empirical_average",
    "average_stack": "recovery.average_stack",
    "recover_from_average": "recovery.recover_from_average",
    "theory_constants": "theory",
    "pointwise_error_level": "theory",
    "invert_uniform_delta": "theory",
    "noisy_error_bound": "theory",
}
WRITE_RESULT = "experiments.write_result"
# Container spans: their time outside child spans is runner code.
MAIN, RUN, POOL, UNIT = "cli.main", "experiments.run", "experiments.pool", "experiments.unit"
# Two spans on one thread may overlap by this much before accounting is refused.
CLOSURE_TOL_NS = 1000


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    cpu_ns: int
    parent: int | None
    thread: int
    unit: list | None
    work: dict = field(default_factory=dict)

    @property
    def busy_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans around calls into the library's layers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def call(self, name, fn, args, kwargs, count=None, parent=None, span_id=None):
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        span_id = next(self._ids) if span_id is None else span_id
        if parent is None and stack:
            parent = stack[-1]
        unit = getattr(local, "unit", None)
        stack.append(span_id)
        result = None
        c0, t0 = time.thread_time_ns(), time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1, c1 = time.monotonic_ns(), time.thread_time_ns()
            stack.pop()
            work = count(args, kwargs, result) if count is not None and result is not None else {}
            span = Span(span_id, name, t0, t1, c1 - c0, parent, threading.get_ident(), unit, work)
            self.spans.append(span)

    def wrap(self, name, fn, count=None):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return wrapped

    def wrap_pool(self, fn):
        """Wrap `_pool_map(worker, units, threads)` so each unit gets a span
        whose parent is the pool span, whichever thread runs it."""
        local = self._local

        def pool(worker, units, threads):
            pool_id = next(self._ids)

            def unit_worker(unit):
                local.unit = [None]
                try:
                    return self.call(UNIT, worker, (unit,), {}, parent=pool_id)
                finally:
                    local.unit = None

            return self.call(POOL, fn, (unit_worker, units, threads), {}, span_id=pool_id)

        return pool

    def set_unit(self, label: str) -> None:
        """Name the unit the calling thread is running."""
        unit = getattr(self._local, "unit", None)
        if unit is not None:
            unit[0] = label


def _counter(fn, rule):
    """A work counter for `fn`: `rule(arguments, result)` -> dict of counts."""
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        return rule(sig.bind(*args, **kwargs).arguments, result)

    return count


def install_tracer(tracer: Tracer, cli, experiments) -> None:
    """Replace the runners' layer entry points with span-recording wrappers."""
    import numpy as np

    def ensemble_rule(a, r):
        tracer.set_unit(a["stream"].label())
        return {"projections": r.m}

    rules = {
        "sample_ensemble": ensemble_rule,
        "trace_table": lambda a, r: {"entries": int(r.size)},
        "corrupt_bits": lambda a, r: {"flips": int(np.count_nonzero(a["bits"].bits != r.bits))},
        "empirical_average": lambda a, r: {"projections": a["ens"].m},
        "recover_from_average": lambda a, r: {"degenerate": int(r.degenerate)},
    }
    for attr, name in LAYER_CALLS.items():
        fn = getattr(experiments, attr, None)
        if fn is None:
            continue
        rule = rules.get(attr)
        count = _counter(fn, rule) if rule else None
        setattr(experiments, attr, tracer.wrap(name, fn, count))
    experiments._pool_map = tracer.wrap_pool(experiments._pool_map)
    cli.run_experiment = tracer.wrap(RUN, cli.run_experiment)
    cli.write_result = tracer.wrap(
        WRITE_RESULT,
        cli.write_result,
        lambda args, kwargs, paths: {"csv_bytes": sum(os.path.getsize(p) for p in paths)},
    )


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _subtract_ns(outer: tuple[int, int], holes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    pieces, cursor = [], outer[0]
    for start, end in sorted(h for h in holes if h[0] < outer[1] and h[1] > outer[0]):
        if start > cursor:
            pieces.append((cursor, min(start, outer[1])))
        cursor = max(cursor, end)
    if cursor < outer[1]:
        pieces.append((cursor, outer[1]))
    return pieces


def account(spans: list[Span]) -> dict:
    """Per-layer metrics plus the per-thread accounting of traced time.

    On each thread the window is the time inside spans whose parent runs on
    another thread (`cli.main` on the main thread, units on pool threads).
    The window splits into layer spans, the main thread's wait inside the
    pool while other threads run the units, and runner self time. Self time
    is what the other two leave uncovered; the accounting closes when the
    layer spans do not overlap one another and stay inside the window, so
    layer + pool wait + self equals the window.
    """
    by_id = {s.id: s for s in spans}
    metrics: dict[str, float] = {}

    def add(key: str, value) -> None:
        metrics[key] = metrics.get(key, 0) + value

    def is_layer(s: Span) -> bool:
        return s.name not in (MAIN, RUN, POOL, UNIT)

    for s in filter(is_layer, spans):
        add(f"{s.name}.busy_s", s.busy_ns / 1e9)
        add(f"{s.name}.cpu_s", s.cpu_ns / 1e9)
        add(f"{s.name}.calls", 1)
        for key, value in s.work.items():
            add(f"{s.name}.{key}", value)
        add("experiments.wait_s", (s.busy_ns - s.cpu_ns) / 1e9)
        module = s.name.split(".", 1)[0]
        if module in ("measurement", "recovery"):
            add(f"{module}.busy_s", s.busy_ns / 1e9)

    threads: dict[int, dict] = {}
    for s in spans:
        threads.setdefault(s.thread, {"windows": [], "layers": [], "pools": [], "units": []})
        t = threads[s.thread]
        parent = by_id.get(s.parent)
        if parent is None or parent.thread != s.thread:
            t["windows"].append((s.start_ns, s.end_ns))
        if is_layer(s):
            t["layers"].append((s.start_ns, s.end_ns))
        elif s.name == POOL:
            t["pools"].append((s.start_ns, s.end_ns))
        elif s.name == UNIT:
            t["units"].append((s.start_ns, s.end_ns))

    closure = []
    for ident, t in threads.items():
        window = _union_ns(t["windows"])
        layer_sum = sum(end - start for start, end in t["layers"])
        waits = [p for pool in t["pools"] for p in _subtract_ns(pool, t["units"])]
        wait = sum(end - start for start, end in waits)
        covered = _union_ns(t["layers"] + waits)
        self_ns = window - covered
        residual = window - (layer_sum + wait + self_ns)
        inside = _union_ns(t["windows"] + t["layers"]) == window
        closes = abs(residual) <= CLOSURE_TOL_NS and inside
        add("experiments.self_s", self_ns / 1e9)
        add("experiments.pool_wait_s", wait / 1e9)
        closure.append(
            {
                "thread": ident,
                "window_s": window / 1e9,
                "layer_s": layer_sum / 1e9,
                "pool_wait_s": wait / 1e9,
                "self_s": self_ns / 1e9,
                "residual_ns": residual,
                "closes": closes,
            }
        )
    add("tracing.closure_failures", sum(not c["closes"] for c in closure))
    add("tracing.threads", len(closure))
    return {"metrics": metrics, "closure": closure}


def blas_info(np) -> dict:
    """BLAS vendor from numpy's build config and, for OpenBLAS, its live
    thread count (the library numpy loaded ships in `numpy.libs`)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    sys.path.insert(0, args.src)
    from bitretrieve import cli, experiments

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_tracer(tracer, cli, experiments)

    # The first unit begins when the runner hands its units to the pool.
    first_unit: list[int] = []
    pool_map = experiments._pool_map

    def marked_pool_map(*a, **k):
        if not first_unit:
            first_unit.append(time.monotonic_ns())
        return pool_map(*a, **k)

    experiments._pool_map = marked_pool_map

    main_start = time.monotonic_ns()
    if tracer is not None:
        rc = tracer.call(MAIN, cli.main, (cli_argv,), {})
    else:
        rc = cli.main(cli_argv)
    main_end = time.monotonic_ns()

    import numpy as np
    import scipy

    report = {
        "rc": rc,
        "spawn_ns": args.spawn_ns,
        "main_start_ns": main_start,
        "first_unit_ns": first_unit[0] if first_unit else None,
        "main_end_ns": main_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "blas": blas_info(np),
    }
    if tracer is not None:
        report["trace"] = account(tracer.spans)
        report["spans"] = [
            {
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "cpu_ns": s.cpu_ns,
                "parent": s.parent,
                "id": s.id,
                "thread": s.thread,
                "unit": s.unit[0] if s.unit else None,
                **s.work,
            }
            for s in tracer.spans
        ]
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
