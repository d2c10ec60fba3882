"""Seeded Monte Carlo experiment harness with CSV output.

Experiments
-----------
pointwise    one fixed signal, fresh ensembles per (trial, m); records the
             recovery error and the deviation of the empirical average from
             its expectation, plus the inverted fixed-signal accuracy bound
             as an auxiliary table.
uniform      one ensemble per m, many random signals recovered against it;
             records per-signal errors and Hamming gaps, the running
             maximum, and the inverted uniform accuracy bound.
noise        the pointwise protocol plus a corruption stage: after the
             clean recovery, the floor(tau m) measurement bits that
             `corrupt_bits` picks (uniformly at random or greedily) are
             flipped and the signal recovered again; records clean and
             noisy errors against the robustness bound.
diagnostics  distributional spot checks (trace law, expected-average
             eigenstructure, Hamming-vs-operator-norm margin, separation
             probability, eigenvalue-pair density fit, soft-distance
             sandwich); nonzero exit on any failure.
theory       prints the closed-form constants and sample-size bounds.

Seed-path layout: each path is the spawn key of a numpy SeedSequence under
the master seed, so every index must lie in [0, 2^32) and the master seed
in [0, 2^64). The signal of the pointwise and noise protocols comes from
path [0]; the ensemble of trial t at size m from path [t, m] (its
8192-element blocks from [t, m, b]; b < m, so no block collides with the
bit-corruption subset, drawn from [t, m, m]). The uniform protocol draws
the ensemble for size m from [0, m] and signal i from [1, i]. Records for
trial t therefore depend only on per-trial streams plus the shared signal,
so prefixes of a run are stable when `trials` or `inputs` grow; a uniform
row does not depend on the signals after it either (see the sampler's
signal blocks).

`run_experiment` and `run_diagnostics` hold numpy's bundled OpenBLAS at one
thread for the run and then restore the caller's count, so the bytes do not
depend on the BLAS thread count the environment asks for; with any other
BLAS they print one line to stderr and run as they are.

Output: the primary CSV has exactly the columns
trial,m,error,qdev,hamming_gap,degenerate,seed_path; auxiliary tables
(bound curves, running maxima, clean/noisy error pairs) are written next
to it as <out-stem>.<name>.csv. For a fixed config every artifact is
byte-identical across reruns and thread counts.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import io
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from operator import attrgetter, index
from pathlib import Path

import numpy as np

from .core import FieldKind, InvalidInput, RankOneProjection, UnitVector, rank_one_distance
from .measurement import FLIP_MODES, _streamed_disagreements, soft_hamming, trace_values
from .recovery import _scores, _streamed_averages, _streamed_stack_averages
from .sampler import SeedStream, _frame_blocks, sample_ensemble, sample_unit_vector
from .theory import (
    TheoryConstants,
    eigen_density,
    eigen_density_grid,
    dsep_probability,
    invert_uniform_delta,
    noisy_error_bound,
    pointwise_error_level,
    pointwise_m,
    theory_constants,
    uniform_m,
)

__all__ = [
    "ConfigError",
    "CheckFailure",
    "ExperimentConfig",
    "TrialRecord",
    "AuxTable",
    "ExperimentResult",
    "CheckResult",
    "DiagnosticsReport",
    "CSV_HEADER",
    "EXPERIMENTS",
    "parse_config_text",
    "load_config",
    "run_pointwise",
    "run_uniform",
    "run_noise",
    "run_diagnostics",
    "run_experiment",
    "emit_csv",
    "parse_csv",
    "write_result",
    "theory_lines",
]

EXPERIMENTS = ("pointwise", "uniform", "noise", "diagnostics", "theory")
CSV_HEADER = ("trial", "m", "error", "qdev", "hamming_gap", "degenerate", "seed_path")


class ConfigError(ValueError):
    """A configuration key is missing, unknown, or violates an invariant."""

    def __init__(self, key: str, message: str) -> None:
        self.key = key
        super().__init__(f"config error at '{key}': {message}")


class CheckFailure(RuntimeError):
    """A theory-implied relation failed during a run; indicates a bug."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    field: FieldKind = FieldKind.REAL
    n: int = 8
    m_grid: tuple[int, ...] = (1000,)
    trials: int = 50
    inputs: int = 1000
    delta: float = 0.3
    bound_D: float = 2.0
    tau: float = 0.05
    flip_mode: str = "random"
    master_seed: int = 20260808
    output_path: str = "results.csv"

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"unknown experiment {self.experiment!r}")
        if not isinstance(self.field, FieldKind):
            raise ConfigError("field", f"expected FieldKind, got {self.field!r}")
        if self.n < 1:
            raise ConfigError("n", f"must be >= 1, got {self.n}")
        if len(self.m_grid) == 0:
            raise ConfigError("m_grid", "must be nonempty")
        if any(not 1 <= m < 1 << 32 for m in self.m_grid):  # m, t and i index seed paths
            raise ConfigError("m_grid", f"entries must lie in [1, 2^32), got {self.m_grid}")
        if any(b <= a for a, b in zip(self.m_grid, self.m_grid[1:])):
            raise ConfigError("m_grid", f"must be strictly increasing, got {self.m_grid}")
        if not 1 <= self.trials <= 1 << 32:
            raise ConfigError("trials", f"must lie in [1, 2^32], got {self.trials}")
        if not 1 <= self.inputs <= 1 << 32:
            raise ConfigError("inputs", f"must lie in [1, 2^32], got {self.inputs}")
        if not 0 < self.delta < math.inf:
            raise ConfigError("delta", f"must be positive and finite, got {self.delta}")
        if not 0 <= self.bound_D < math.inf:
            raise ConfigError("bound_D", f"must be nonnegative and finite, got {self.bound_D}")
        if not 0.0 <= self.tau < 1.0:
            raise ConfigError("tau", f"must lie in [0, 1), got {self.tau}")
        if self.flip_mode not in FLIP_MODES:
            raise ConfigError("flip_mode", f"must be one of {FLIP_MODES}, got {self.flip_mode}")
        if not self.output_path:
            raise ConfigError("output_path", "must be nonempty")


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _integer(value) -> int:
    """Text by Python's int(text, 0); any other value only if it is an integer."""
    return int(value.strip(), 0) if isinstance(value, str) else index(value)


def _coerce(key: str, value):
    """Parse a config value from its text form (typed values pass through)."""
    try:
        if key == "experiment":
            return str(value).strip().lower()
        if key == "field":
            return value if isinstance(value, FieldKind) else FieldKind.parse(value)
        if key in ("n", "trials", "inputs", "master_seed"):
            return _integer(value)
        if key == "m_grid":
            parts = [p for p in value.split(",") if p.strip()] if isinstance(value, str) else value
            return tuple(_integer(p) for p in parts)
        if key in ("delta", "bound_D", "tau"):
            return float(value)
        if key == "flip_mode":
            return str(value).strip().lower()
        if key == "output_path":
            return str(value).strip()
    except (ValueError, TypeError, InvalidInput) as exc:
        raise ConfigError(key, f"cannot parse {value!r}: {exc}") from exc
    raise ConfigError(key, "unknown key")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the line-oriented `key = value` format with '#' comments; a key
    may be set once."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(key, "unknown key")
        if key in mapping:
            raise ConfigError(f"line {lineno}", f"{key!r} is set twice")
        mapping[key] = value
    return mapping


def load_config(
    path: str | None = None,
    experiment: str | None = None,
    overrides: dict | None = None,
) -> ExperimentConfig:
    """Build a validated config from defaults, an optional file, and overrides."""
    values: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="ascii")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", f"cannot read {path!r}: {exc}") from exc
        values.update(parse_config_text(text))
    if overrides:
        for key, val in overrides.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(key, "unknown key")
            if val is not None:
                values[key] = val
    if experiment is not None:
        values["experiment"] = experiment
    if "experiment" not in values:
        raise ConfigError("experiment", "no experiment selected")
    kwargs = {key: _coerce(key, val) for key, val in values.items()}
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    m: int
    error: float
    qdev: float
    hamming_gap: float | None
    degenerate: bool
    seed_path: str


@dataclass(frozen=True)
class AuxTable:
    name: str
    header: tuple[str, ...]
    rows: list[tuple]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: list[TrialRecord]
    tables: list[AuxTable]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class DiagnosticsReport:
    config: ExperimentConfig
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_csv(records: list[TrialRecord], path: str) -> None:
    """Write records with the exact header trial,m,error,qdev,hamming_gap,degenerate,seed_path."""
    _emit_table(CSV_HEADER, list(map(attrgetter(*CSV_HEADER), records)), path)


def parse_csv(path: str) -> list[TrialRecord]:
    """Read back a CSV produced by emit_csv, reproducing records exactly.
    Malformed input, a byte that is not ASCII included, raises InvalidInput
    naming its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InvalidInput(f"{path}: CSV line {line}: not ASCII: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    header = tuple(next(reader, ()))
    if header != CSV_HEADER:
        raise InvalidInput(f"{path}: CSV line 1: unexpected header {header!r}")
    records = []
    for row in reader:
        try:
            trial, m, error, qdev, gap, degenerate, seed_path = row
            if degenerate not in ("true", "false"):
                raise ValueError(f"degenerate must be true or false, got {degenerate!r}")
            record = TrialRecord(
                trial=int(trial),
                m=int(m),
                error=float(error),
                qdev=float(qdev),
                hamming_gap=None if gap == "" else float(gap),
                degenerate=degenerate == "true",
                seed_path=seed_path,
            )
        except ValueError as exc:
            raise InvalidInput(f"{path}: CSV line {reader.line_num}: {exc}") from exc
        records.append(record)
    return records


def _emit_table(header: tuple[str, ...], rows: list[tuple], path: str) -> None:
    try:
        with open(path, "w", newline="", encoding="ascii") as handle:
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc


# The auxiliary tables each experiment writes next to its primary CSV.
_AUX_TABLES = {"pointwise": ("bounds",), "uniform": ("bounds", "max"), "noise": ("noise",)}


def _output_paths(path: str, names) -> list[str]:
    """The primary CSV `path`, then the auxiliary table of each name next to
    it, as <stem>.<name>.csv."""
    stem = path[:-4] if path.endswith(".csv") else path
    return [path, *(f"{stem}.{name}.csv" for name in names)]


def _check_output_dir(path: str, experiment: str) -> None:
    """Raise the OSError that writing `experiment`'s CSVs to `path` would,
    before any trial runs, when the primary CSV's or an auxiliary table's
    path is a directory, or the directory that receives them is missing or
    not writable."""
    for target in _output_paths(path, _AUX_TABLES[experiment]):
        if os.path.isdir(target):
            raise OSError(f"cannot write CSV to {target!r}: it is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise OSError(f"cannot write CSV to {path!r}: no directory {directory!r}")
    if not os.access(directory, os.W_OK):
        raise OSError(f"cannot write CSV to {path!r}: directory {directory!r} is not writable")


def write_result(result: ExperimentResult, path: str) -> list[str]:
    """Write the primary CSV plus auxiliary tables; returns paths written."""
    written = _output_paths(path, [table.name for table in result.tables])
    emit_csv(result.records, path)
    for table, aux_path in zip(result.tables, written[1:]):
        _emit_table(table.header, table.rows, aux_path)
    return written


# ---------------------------------------------------------------------------
# Shared numeric helpers


def _pool_map(worker, units, threads: int) -> list:
    if threads <= 1 or len(units) <= 1:
        return [worker(unit) for unit in units]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, units))


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    build record names, from the ILP64 copy numpy's wheel bundles in
    `numpy.libs`; None for any other BLAS or layout."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if blas.get("name") != "scipy-openblas":
        return None
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*")):
        lib = ctypes.CDLL(str(path))  # the library numpy already loaded
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get and set_:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's BLAS at one thread and restore the caller's count after.
    The pinned bytes are those of a one-thread BLAS: a GEMM split over
    threads sums in another order. The count is process-wide, so runs made
    at once from several threads of one process share it."""
    threads = _openblas_threads()
    if threads is None:
        print(
            "bitretrieve: cannot set this numpy's BLAS thread count; the output"
            " bytes may differ from those of a one-thread BLAS",
            file=sys.stderr,
        )
        yield
        return
    get, set_ = threads
    caller = get()
    set_(1)
    try:
        yield
    finally:
        set_(caller)


def _require_experiment(cfg: ExperimentConfig, expected: str) -> None:
    cfg.validate()
    if cfg.experiment != expected:
        raise ConfigError("experiment", f"expected {expected!r}, got {cfg.experiment!r}")


def _bounds_table(cfg: ExperimentConfig, level) -> AuxTable:
    """The accuracy level `level(field, n, m, D)` at every m of the grid."""
    rows = [(m, level(cfg.field, cfg.n, m, cfg.bound_D)) for m in cfg.m_grid]
    return AuxTable("bounds", ("m", "delta_bound"), rows)


# ---------------------------------------------------------------------------
# Experiment runners


def _run_fixed_signal(
    cfg: ExperimentConfig, consts: TheoryConstants, threads: int
) -> list[tuple[TrialRecord, tuple]]:
    """The pointwise pipeline, shared by the pointwise and noise protocols:
    each (trial, m) unit scores its streamed average, and for noise the
    corrupted one too, in one `_scores` call. Returns, per unit in (trial,
    m) order, the record of the last recovery and the clean (error, qdev)."""
    root = SeedStream(cfg.master_seed)
    x = RankOneProjection(sample_unit_vector(cfg.field, 2 * cfg.n, root.child(0)))
    noisy = cfg.experiment == "noise"

    def worker(unit: tuple[int, int]) -> tuple[TrialRecord, tuple]:
        t, m = unit
        blocks = functools.partial(_frame_blocks, cfg.field, cfg.n, m, root.child(t, m))
        mode = cfg.flip_mode if noisy else None
        clean_avg, noisy_avg, _ = _streamed_averages(
            m, blocks, x, mode, cfg.tau, root.child(t, m, m)
        )
        qhats = np.stack([clean_avg.matrix, noisy_avg.matrix] if noisy else [clean_avg.matrix])
        signals = np.stack([x.vector.entries] * len(qhats))
        _, scores = _scores(qhats, signals, consts.mu1, consts.mu2)
        path = f"ens={t}/{m};x=0" + (f";flip={t}/{m}/{m}" if noisy else "")
        error, qdev, degenerate = scores[-1]
        return TrialRecord(t, m, error, qdev, None, degenerate, path), scores[0][:2]

    units = [(t, m) for t in range(cfg.trials) for m in cfg.m_grid]
    return _pool_map(worker, units, threads)


def run_pointwise(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """One fixed signal; fresh ensembles per (trial, m); errors vs the bound."""
    _require_experiment(cfg, "pointwise")
    bounds = _bounds_table(cfg, pointwise_error_level)
    outputs = _run_fixed_signal(cfg, theory_constants(cfg.field, cfg.n), threads)
    records = [rec for rec, _ in outputs]
    return ExperimentResult(cfg, records, [bounds])


def run_uniform(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """One ensemble per m; `inputs` random signals recovered against it."""
    _require_experiment(cfg, "uniform")
    bounds = _bounds_table(cfg, invert_uniform_delta)
    consts = theory_constants(cfg.field, cfg.n)
    root = SeedStream(cfg.master_seed)
    d = 2 * cfg.n
    signals = np.stack(
        [sample_unit_vector(cfg.field, d, root.child(1, i)).entries for i in range(cfg.inputs)]
    )

    def worker(m: int) -> tuple[list[TrialRecord], list[tuple]]:
        def blocks():
            return _frame_blocks(cfg.field, cfg.n, m, root.child(0, m))

        estimates, scores = np.empty_like(signals), []
        for rows, qhats in _streamed_stack_averages(cfg.field, m, blocks(), signals):
            block_estimates, block_scores = _scores(qhats, signals[rows], consts.mu1, consts.mu2)
            estimates[rows] = block_estimates  # copied after _scores read the strided view
            scores += block_scores
            # drop the averages and the eigenvector stack before the next block and pass 2
            del qhats, block_estimates
        hamming = _streamed_disagreements(cfg.field, blocks(), signals, estimates) / m
        recs = [
            TrialRecord(i, m, error, qdev, float(hamming[i]) - error, flag, f"ens=0/{m};x=1/{i}")
            for i, (error, qdev, flag) in enumerate(scores)
        ]
        running_max = np.maximum.accumulate([error for error, _, _ in scores])
        return recs, [(i, m, peak) for i, peak in enumerate(running_max)]

    outputs = _pool_map(worker, list(cfg.m_grid), threads)
    records = sorted(
        (rec for recs, _ in outputs for rec in recs), key=lambda r: (r.trial, r.m)
    )
    max_rows = [row for _, rows in outputs for row in rows]
    max_table = AuxTable("max", ("trial", "m", "max_error"), max_rows)
    return ExperimentResult(cfg, records, [bounds, max_table])


def run_noise(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Pointwise protocol with floor(tau*m) measurement bits flipped."""
    _require_experiment(cfg, "noise")
    bound = noisy_error_bound(cfg.field, cfg.n, cfg.delta, cfg.tau)
    consts = theory_constants(cfg.field, cfg.n)
    gate = 0.5 * consts.gap * cfg.delta
    outputs = _run_fixed_signal(cfg, consts, threads)
    details = []
    for rec, (clean_error, clean_qdev) in outputs:
        if clean_qdev <= gate and rec.error > bound + 1e-12:
            raise CheckFailure(
                f"trial {rec.trial}, m={rec.m}: noisy error {rec.error} exceeds bound {bound}"
                f" although the clean average was within its gate"
            )
        details.append((rec.trial, rec.m, clean_error, rec.error, bound, clean_qdev, cfg.flip_mode))
    noise_table = AuxTable(
        "noise",
        ("trial", "m", "clean_error", "noisy_error", "bound", "clean_qdev", "flip_mode"),
        details,
    )
    return ExperimentResult(cfg, [rec for rec, _ in outputs], [noise_table])


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    runner = {"pointwise": run_pointwise, "uniform": run_uniform, "noise": run_noise}
    if cfg.experiment not in runner:
        raise ConfigError("experiment", f"{cfg.experiment!r} does not produce trial records")
    with _one_blas_thread():
        return runner[cfg.experiment](cfg, threads)


# ---------------------------------------------------------------------------
# Diagnostics


def _ks_statistic(samples: np.ndarray, cdf) -> float:
    ordered = np.sort(samples, kind="stable")
    values = cdf(ordered)
    n = samples.shape[0]
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - values), np.max(values - grid_lo)))


def _check_beta_law(cfg: ExperimentConfig, root: SeedStream) -> CheckResult:
    # Imported here: scipy.special adds 0.25 s and 26 MB to every run that loads it.
    from scipy.special import betainc

    n_samples = 20000
    x = RankOneProjection(sample_unit_vector(cfg.field, 2 * cfg.n, root.child(0, 0)))
    blocks = _frame_blocks(cfg.field, cfg.n, n_samples, root.child(1))
    traces = np.concatenate([trace_values(ens, x) for _, ens in blocks])
    bn = cfg.field.beta * cfg.n
    stat = _ks_statistic(traces, lambda t: betainc(bn, bn, t))
    threshold = 1.36 / math.sqrt(n_samples) + 0.005
    return CheckResult("beta_trace_law_ks", stat < threshold, stat, threshold)


def _check_expectation_structure(cfg: ExperimentConfig, root: SeedStream) -> CheckResult:
    m = 50000
    consts = theory_constants(cfg.field, cfg.n)
    x = RankOneProjection(sample_unit_vector(cfg.field, 2 * cfg.n, root.child(0, 0)))
    blocks = functools.partial(_frame_blocks, cfg.field, cfg.n, m, root.child(1))
    qhat, _, _ = _streamed_averages(m, blocks, x)
    vals, vecs = np.linalg.eigh(qhat.matrix)
    top_dev = abs(float(vals[-1]) - consts.mu1)
    rest_dev = float(np.max(np.abs(vals[:-1] - consts.mu2)))
    align = float(abs(np.vdot(x.vector.entries, vecs[:, -1])) ** 2)
    stat = max(top_dev, rest_dev)
    passed = stat < 0.01 and align >= 0.99
    return CheckResult(
        "expected_average_eigenstructure", passed, stat, 0.01, f"alignment={align:.4f}"
    )


def _check_hamming_margin(cfg: ExperimentConfig, root: SeedStream) -> CheckResult:
    m, pairs = 20000, 1000
    d = 2 * cfg.n
    vecs = np.stack(
        [sample_unit_vector(cfg.field, d, root.child(0, i)).entries for i in range(2 * pairs)]
    )
    blocks = _frame_blocks(cfg.field, cfg.n, m, root.child(1))
    d_meas = _streamed_disagreements(cfg.field, blocks, vecs[0::2], vecs[1::2]) / m
    overlaps = np.abs(np.einsum("id,id->i", vecs[0::2].conj(), vecs[1::2])) ** 2
    dists = np.sqrt(np.maximum(0.0, 1.0 - overlaps))
    stat = float(np.max(d_meas - dists))
    return CheckResult("hamming_vs_opnorm_margin", stat <= 0.05, stat, 0.05)


def _eigen_pair_cell_probs(cfg: ExperimentConfig, grid: int) -> np.ndarray:
    """Probability of each grid cell (x in cell a, y in cell b) under the
    eigenvalue-pair density, by 32 x 32-node Gauss-Legendre quadrature over
    every cell at once. The density vanishes off the y < x triangle, so the
    cells above the diagonal come out 0. It has a kink there over R, so a
    diagonal cell is integrated over its triangle alone, by the collapsed
    (Duffy) rule x = a + w u, y = a + w u v of Jacobian w^2 u."""
    den = eigen_density(cfg.field, cfg.n)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    nodes = (nodes + 1.0) / 2.0
    weights = weights / 2.0
    pairs = weights[:, None] * weights[None, :]
    width = 1.0 / grid
    corners = np.arange(grid) * width
    cell_nodes = corners[:, None] + nodes * width
    vals = eigen_density_grid(den, cell_nodes[:, None, :, None], cell_nodes[None, :, None, :])
    probs = (pairs * vals).sum(axis=(2, 3)) * width * width
    u, v = nodes[:, None], nodes[None, :]
    corner = corners[:, None, None]
    triangles = eigen_density_grid(den, corner + width * u, corner + width * u * v)
    np.fill_diagonal(probs, (pairs * u * triangles).sum(axis=(1, 2)) * width * width)
    return probs


def _check_eigenvalue_pairs(cfg: ExperimentConfig, root: SeedStream) -> list[CheckResult]:
    """The separation probability and the eigenvalue-pair density fit, both
    read off the eigenvalues of one sample of top-left 2 x 2 compressions."""
    # Imported here: scipy.special adds 0.25 s and 26 MB to every run that loads it.
    from scipy.special import chdtrc

    names = ("separation_probability_mc", "eigen_pair_density_chi2")
    if cfg.n < 2:
        return [CheckResult(name, True, 0.0, 0.0, "skipped: n < 2") for name in names]
    n_samples = 100000
    blocks = _frame_blocks(cfg.field, cfg.n, n_samples, root.child(1))
    lam2, lam1 = np.concatenate([np.linalg.eigvalsh(ens.compression(2)) for _, ens in blocks]).T
    estimate = float(np.mean((lam2 < 0.5) & (lam1 > 0.5)))
    closed = dsep_probability(cfg.field, cfg.n)
    se = math.sqrt(closed * (1.0 - closed) / n_samples)
    stat = abs(estimate - closed)
    detail = f"estimate={estimate:.5f} closed={closed:.5f}"
    separation = CheckResult(names[0], stat <= 3.0 * se, stat, 3.0 * se, detail)
    if cfg.field.beta * (cfg.n - 1) - 1.0 < 0:
        skipped = CheckResult(names[1], True, 0.0, 0.0, "skipped: boundary-singular density")
        return [separation, skipped]
    grid = 6
    probs = _eigen_pair_cell_probs(cfg, grid)
    idx1 = np.minimum((lam1 * grid).astype(int), grid - 1)
    idx2 = np.minimum((lam2 * grid).astype(int), grid - 1)
    counts = np.zeros((grid, grid))
    np.add.at(counts, (idx1, idx2), 1)
    keep = probs * n_samples >= 200.0
    # the pooled bucket's own cells, so no quadrature error lands in it
    pooled = max(1e-9, probs[~keep].sum() * n_samples)
    expected = np.concatenate([probs[keep] * n_samples, [pooled]])
    observed = np.concatenate([counts[keep], [counts[~keep].sum()]])
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = expected.shape[0] - 1
    p_value = float(chdtrc(dof, stat))
    fit = CheckResult(names[1], p_value > 0.01, p_value, 0.01, f"chi2={stat:.1f} dof={dof}")
    return [separation, fit]


def _check_soft_sandwich(cfg: ExperimentConfig, root: SeedStream) -> CheckResult:
    instances, m = 200, 500
    d = 2 * cfg.n
    worst = -1.0
    for i in range(instances):
        ens = sample_ensemble(cfg.field, cfg.n, m, root.child(1, i))
        x0v = sample_unit_vector(cfg.field, d, root.child(0, i, 0))
        y0v = sample_unit_vector(cfg.field, d, root.child(0, i, 1))
        bump_x = sample_unit_vector(cfg.field, d, root.child(0, i, 2))
        bump_y = sample_unit_vector(cfg.field, d, root.child(0, i, 3))
        x0, y0 = RankOneProjection(x0v), RankOneProjection(y0v)
        x1 = RankOneProjection(UnitVector(cfg.field, x0v.entries + 0.03 * bump_x.entries))
        y1 = RankOneProjection(UnitVector(cfg.field, y0v.entries + 0.03 * bump_y.entries))
        eps = max(rank_one_distance(x0, x1), rank_one_distance(y0, y1)) + 1e-12
        t = (-0.05, 0.0, 0.05)[i % 3]
        mid = soft_hamming(ens, x0, y0, t)
        left = soft_hamming(ens, x1, y1, t + eps)
        right = soft_hamming(ens, x1, y1, t - eps)
        worst = max(worst, left - mid, mid - right)
    return CheckResult("soft_hamming_sandwich", worst <= 0.0, worst, 0.0)


def run_diagnostics(cfg: ExperimentConfig) -> DiagnosticsReport:
    """Distributional spot checks; each yields a named pass/fail line."""
    _require_experiment(cfg, "diagnostics")
    root = SeedStream(cfg.master_seed)
    with _one_blas_thread():
        checks = [
            _check_beta_law(cfg, root.child(1001)),
            _check_expectation_structure(cfg, root.child(1002)),
            _check_hamming_margin(cfg, root.child(1003)),
            *_check_eigenvalue_pairs(cfg, root.child(1004)),
            _check_soft_sandwich(cfg, root.child(1005)),
        ]
    return DiagnosticsReport(cfg, checks)


# ---------------------------------------------------------------------------
# Theory printing


def theory_lines(
    field: FieldKind, n: int, delta: float, big_d: float, tau: float
) -> list[str]:
    """One key=value line per theory constant plus the sample-size bounds."""
    consts = theory_constants(field, n)
    lines = [
        f"field={field.value}",
        f"n={n}",
        f"mu1={_fmt(consts.mu1)}",
        f"mu2={_fmt(consts.mu2)}",
        f"gap={_fmt(consts.gap)}",
        f"gap_lower={_fmt(consts.gap_lower) if consts.gap_lower is not None else 'none'}",
        f"gap_upper={_fmt(consts.gap_upper) if consts.gap_upper is not None else 'none'}",
        f"pointwise_m={pointwise_m(field, n, delta, big_d)}",
        f"uniform_m={uniform_m(field, n, delta, big_d)}",
        f"noisy_error_bound={_fmt(noisy_error_bound(field, n, delta, tau))}",
    ]
    return lines
