"""Seeded Monte Carlo experiment harness with CSV output.

Experiments
-----------
pointwise    one fixed signal, fresh ensembles per (trial, m); records the
             recovery error and the deviation of the empirical average from
             its expectation, plus the inverted fixed-signal accuracy bound
             as an auxiliary table.
uniform      one ensemble per m, many random signals recovered against it;
             records per-signal errors, the running maximum, and the
             inverted uniform accuracy bound.
noise        the pointwise protocol plus a corruption stage: after the
             clean recovery, a fraction of the measurement bits is flipped
             (uniformly at random or greedily) and the signal recovered
             again; records clean and noisy errors against the robustness
             bound.
diagnostics  distributional spot checks (trace law, expected-average
             eigenstructure, Hamming-vs-operator-norm margin, separation
             probability, eigenvalue-pair density fit, soft-distance
             sandwich); nonzero exit on any failure.
theory       prints the closed-form constants and sample-size bounds.

Seed-path layout: the signal of the pointwise and noise protocols comes
from path [0]; the ensemble of trial t at size m from path [t, m] (its
elements from [t, m, j]); the bit-corruption subset from [t, m, m]. The
uniform protocol draws the ensemble for size m from [0, m] and signal i
from [1, i]. Records for trial t therefore depend only on per-trial
streams plus the shared signal, so prefixes of a run are stable when
`trials` or `inputs` grow.

Output: the primary CSV has exactly the columns
trial,m,error,qdev,hamming_gap,degenerate,seed_path; auxiliary tables
(bound curves, running maxima, clean/noisy error pairs) are written next
to it as <out-stem>.<name>.csv. For a fixed config every artifact is
byte-identical across reruns and thread counts.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.special import betainc
from scipy.stats import chi2 as chi2_dist

from .core import (
    FieldKind,
    InvalidInput,
    RankOneProjection,
    UnitVector,
    _vector_distance,
    rank_one_distance,
)
from .measurement import corrupt_bits, measure, trace_table, trace_values, soft_hamming
from .recovery import (
    DEGENERACY_TOL,
    average_stack,
    empirical_average,
    expected_average,
    recover_from_average,
)
from .sampler import SeedStream, sample_ensemble, sample_unit_vector
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
FLIP_MODES = ("random", "greedy")
CSV_HEADER = ("trial", "m", "error", "qdev", "hamming_gap", "degenerate", "seed_path")

_INPUT_BLOCK = 512


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
        if any(m < 1 for m in self.m_grid):
            raise ConfigError("m_grid", f"entries must be positive, got {self.m_grid}")
        if any(b <= a for a, b in zip(self.m_grid, self.m_grid[1:])):
            raise ConfigError("m_grid", f"must be strictly increasing, got {self.m_grid}")
        if self.trials < 1:
            raise ConfigError("trials", f"must be >= 1, got {self.trials}")
        if self.inputs < 1:
            raise ConfigError("inputs", f"must be >= 1, got {self.inputs}")
        if not self.delta > 0:
            raise ConfigError("delta", f"must be positive, got {self.delta}")
        if self.bound_D < 0:
            raise ConfigError("bound_D", f"must be nonnegative, got {self.bound_D}")
        if not 0.0 <= self.tau < 1.0:
            raise ConfigError("tau", f"must lie in [0, 1), got {self.tau}")
        if self.flip_mode not in FLIP_MODES:
            raise ConfigError("flip_mode", f"must be one of {FLIP_MODES}, got {self.flip_mode}")
        if not self.output_path:
            raise ConfigError("output_path", "must be nonempty")


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _coerce(key: str, value):
    """Parse a config value from its text form (typed values pass through)."""
    try:
        if key == "experiment":
            return str(value).strip().lower()
        if key == "field":
            return value if isinstance(value, FieldKind) else FieldKind.parse(value)
        if key in ("n", "trials", "inputs", "master_seed"):
            return int(str(value).strip(), 0) if isinstance(value, str) else int(value)
        if key == "m_grid":
            if isinstance(value, str):
                parts = [p.strip() for p in value.split(",") if p.strip()]
                return tuple(int(p) for p in parts)
            return tuple(int(v) for v in value)
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
    """Parse the line-oriented `key = value` format with '#' comments."""
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
        except OSError as exc:
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
    _emit_table(CSV_HEADER, [astuple(rec) for rec in records], path)


def parse_csv(path: str) -> list[TrialRecord]:
    """Read back a CSV produced by emit_csv, reproducing records exactly."""
    with open(path, newline="", encoding="ascii") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise InvalidInput(f"unexpected CSV header {header!r}")
        records = []
        for row in reader:
            records.append(
                TrialRecord(
                    trial=int(row[0]),
                    m=int(row[1]),
                    error=float(row[2]),
                    qdev=float(row[3]),
                    hamming_gap=None if row[4] == "" else float(row[4]),
                    degenerate=row[5] == "true",
                    seed_path=row[6],
                )
            )
    return records


def _emit_table(header: tuple[str, ...], rows: list[tuple], path: str) -> None:
    try:
        with open(path, "w", newline="", encoding="ascii") as handle:
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc


def write_result(result: ExperimentResult, path: str) -> list[str]:
    """Write the primary CSV plus auxiliary tables; returns paths written."""
    emit_csv(result.records, path)
    written = [path]
    stem = path[:-4] if path.endswith(".csv") else path
    for table in result.tables:
        aux_path = f"{stem}.{table.name}.csv"
        _emit_table(table.header, table.rows, aux_path)
        written.append(aux_path)
    return written


# ---------------------------------------------------------------------------
# Shared numeric helpers


def _pool_map(worker, units, threads: int) -> list:
    if threads <= 1 or len(units) <= 1:
        return [worker(unit) for unit in units]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, units))


def _qdev(qmat: np.ndarray, x: RankOneProjection, mu1: float, mu2: float) -> float:
    expect = expected_average(x, mu1, mu2).matrix
    vals = np.linalg.eigvalsh(qmat - expect)
    return float(np.max(np.abs(vals)))


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
    """The pointwise pipeline, shared by the pointwise and noise protocols.

    Each (trial, m) unit samples its ensemble, measures the fixed signal,
    averages, recovers and scores the estimate by (error, qdev). The noise
    protocol then flips bits and recovers again from the corrupted string.
    Returns, per unit in (trial, m) order, the record of the last recovery
    and the clean (error, qdev).
    """
    root = SeedStream(cfg.master_seed)
    x = RankOneProjection(sample_unit_vector(cfg.field, 2 * cfg.n, root.child(0)))
    noisy = cfg.experiment == "noise"

    def recover(ens, bits):
        qhat = empirical_average(ens, bits)
        rec = recover_from_average(qhat)
        error = rank_one_distance(x, rec.estimate)
        return error, _qdev(qhat.matrix, x, consts.mu1, consts.mu2), rec.degenerate

    def worker(unit: tuple[int, int]) -> tuple[TrialRecord, tuple]:
        t, m = unit
        ens = sample_ensemble(cfg.field, cfg.n, m, root.child(t, m))
        bits = measure(ens, x)
        error, qdev, degenerate = recover(ens, bits)
        clean, path = (error, qdev), f"ens={t}/{m};x=0"
        if noisy:
            corrupted = corrupt_bits(bits, cfg.tau, cfg.flip_mode, root.child(t, m, m), (ens, x))
            error, qdev, degenerate = recover(ens, corrupted)
            path += f";flip={t}/{m}/{m}"
        return TrialRecord(t, m, error, qdev, None, degenerate, path), clean

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
        ens = sample_ensemble(cfg.field, cfg.n, m, root.child(0, m))
        recs: list[TrialRecord] = []
        max_rows: list[tuple] = []
        running_max = 0.0
        for start in range(0, cfg.inputs, _INPUT_BLOCK):
            stop = min(start + _INPUT_BLOCK, cfg.inputs)
            block = signals[start:stop]
            bits = (trace_table(ens, block) >= 0.5).astype(np.uint8)
            qhats = average_stack(ens, bits)
            vals, vecs = np.linalg.eigh(qhats)
            margins = vals[:, -1] - vals[:, -2]
            estimates = vecs[:, :, -1]
            est_bits = (trace_table(ens, estimates) >= 0.5).astype(np.uint8)
            hamming = np.mean(bits != est_bits, axis=1)
            expects = consts.mu2 * np.eye(d, dtype=cfg.field.dtype)[None] + (
                consts.mu1 - consts.mu2
            ) * np.einsum("ia,ib->iab", block, block.conj())
            qdevs = np.max(np.abs(np.linalg.eigvalsh(qhats - expects)), axis=1)
            for i in range(stop - start):
                idx = start + i
                error = _vector_distance(block[i], estimates[i])
                running_max = max(running_max, error)
                recs.append(
                    TrialRecord(
                        idx,
                        m,
                        error,
                        float(qdevs[i]),
                        float(hamming[i]) - error,
                        bool(margins[i] < DEGENERACY_TOL),
                        f"ens=0/{m};x=1/{idx}",
                    )
                )
                max_rows.append((idx, m, running_max))
        return recs, max_rows

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


def _two_by_two_eigs(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    tr = np.real(blocks[:, 0, 0] + blocks[:, 1, 1])
    det = np.real(
        blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    )
    disc = np.sqrt(np.maximum(0.0, tr * tr - 4.0 * det))
    return (tr + disc) / 2.0, (tr - disc) / 2.0


def _check_beta_law(cfg: ExperimentConfig, root: SeedStream) -> CheckResult:
    n_samples = 20000
    x = RankOneProjection(sample_unit_vector(cfg.field, 2 * cfg.n, root.child(0, 0)))
    ens = sample_ensemble(cfg.field, cfg.n, n_samples, root.child(1))
    traces = trace_values(ens, x)
    bn = cfg.field.beta * cfg.n
    stat = _ks_statistic(traces, lambda t: betainc(bn, bn, t))
    threshold = 1.36 / math.sqrt(n_samples) + 0.005
    return CheckResult("beta_trace_law_ks", stat < threshold, stat, threshold)


def _check_expectation_structure(cfg: ExperimentConfig, root: SeedStream) -> CheckResult:
    m = 50000
    consts = theory_constants(cfg.field, cfg.n)
    x = RankOneProjection(sample_unit_vector(cfg.field, 2 * cfg.n, root.child(0, 0)))
    ens = sample_ensemble(cfg.field, cfg.n, m, root.child(1))
    qhat = empirical_average(ens, measure(ens, x))
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
    ens = sample_ensemble(cfg.field, cfg.n, m, root.child(1))
    bits = trace_table(ens, vecs) >= 0.5
    overlaps = np.abs(np.einsum("id,id->i", vecs[0::2].conj(), vecs[1::2])) ** 2
    dists = np.sqrt(np.maximum(0.0, 1.0 - overlaps))
    d_meas = np.mean(bits[0::2] != bits[1::2], axis=1)
    stat = float(np.max(d_meas - dists))
    return CheckResult("hamming_vs_opnorm_margin", stat <= 0.05, stat, 0.05)


def _check_separation_probability(
    cfg: ExperimentConfig, root: SeedStream
) -> tuple[CheckResult, np.ndarray, np.ndarray]:
    n_samples = 100000
    if cfg.n < 2:
        empty = np.empty(0)
        return (
            CheckResult("separation_probability_mc", True, 0.0, 0.0, "skipped: n < 2"),
            empty,
            empty,
        )
    ens = sample_ensemble(cfg.field, cfg.n, n_samples, root.child(1))
    lam1, lam2 = _two_by_two_eigs(ens.compression(2))
    estimate = float(np.mean((lam2 < 0.5) & (lam1 > 0.5)))
    closed = dsep_probability(cfg.field, cfg.n)
    se = math.sqrt(closed * (1.0 - closed) / n_samples)
    stat = abs(estimate - closed)
    return (
        CheckResult(
            "separation_probability_mc",
            stat <= 3.0 * se,
            stat,
            3.0 * se,
            f"estimate={estimate:.5f} closed={closed:.5f}",
        ),
        lam1,
        lam2,
    )


def _eigen_pair_cell_probs(cfg: ExperimentConfig, grid: int) -> np.ndarray:
    """Probability of each grid cell under the eigenvalue-pair density,
    via Gauss-Legendre quadrature restricted to the y < x triangle."""
    den = eigen_density(cfg.field, cfg.n)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    nodes = (nodes + 1.0) / 2.0
    weights = weights / 2.0
    probs = np.zeros((grid, grid))
    width = 1.0 / grid
    for a in range(grid):
        for b in range(a + 1):
            x0, y0 = a * width, b * width
            xs = x0 + nodes * width
            ys = y0 + nodes * width
            xg, yg = np.meshgrid(xs, ys, indexing="ij")
            vals = eigen_density_grid(den, xg, yg)
            probs[a, b] = float(
                (weights[:, None] * weights[None, :] * vals).sum() * width * width
            )
    return probs


def _check_eigen_density_fit(
    cfg: ExperimentConfig, lam1: np.ndarray, lam2: np.ndarray
) -> CheckResult:
    name = "eigen_pair_density_chi2"
    if cfg.n < 2:
        return CheckResult(name, True, 0.0, 0.0, "skipped: n < 2")
    if cfg.field.beta * (cfg.n - 1) - 1.0 < 0:
        return CheckResult(name, True, 0.0, 0.0, "skipped: boundary-singular density")
    grid = 6
    n_samples = lam1.shape[0]
    probs = _eigen_pair_cell_probs(cfg, grid)
    idx1 = np.minimum((lam1 * grid).astype(int), grid - 1)
    idx2 = np.minimum((lam2 * grid).astype(int), grid - 1)
    counts = np.zeros((grid, grid))
    np.add.at(counts, (idx1, idx2), 1)
    keep = probs * n_samples >= 200.0
    expected = np.concatenate([probs[keep] * n_samples, [max(1e-9, (1 - probs[keep].sum()) * n_samples)]])
    observed = np.concatenate([counts[keep], [counts[~keep].sum()]])
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = expected.shape[0] - 1
    p_value = float(chi2_dist.sf(stat, dof))
    return CheckResult(name, p_value > 0.01, p_value, 0.01, f"chi2={stat:.1f} dof={dof}")


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
    checks = [
        _check_beta_law(cfg, root.child(1001)),
        _check_expectation_structure(cfg, root.child(1002)),
        _check_hamming_margin(cfg, root.child(1003)),
    ]
    sep_check, lam1, lam2 = _check_separation_probability(cfg, root.child(1004))
    checks.append(sep_check)
    checks.append(_check_eigen_density_fit(cfg, lam1, lam2))
    checks.append(_check_soft_sandwich(cfg, root.child(1005)))
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
