"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Scales are reduced from the headline experiments (thousands of trials,
millions of measurements) but keep the same geometry (n = 8, signals in
R^16, for the figure-style runs).
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import dblquad
from scipy.special import betainc

from bitretrieve.core import (
    FieldKind,
    RankOneProjection,
    UnitVector,
    operator_norm,
    rank_one_distance,
)
from bitretrieve.experiments import (
    _ks_statistic,
    load_config,
    run_noise,
    run_pointwise,
    run_uniform,
    write_result,
)
from bitretrieve.measurement import measure, trace_table, trace_values
from bitretrieve.recovery import empirical_average, expected_average, recover_from_average
from bitretrieve.sampler import SeedStream, sample_ensemble, sample_unit_vector
from bitretrieve.theory import (
    dsep_probability,
    eigen_density,
    eigen_density_eval,
    mu_pair,
    pointwise_error_level,
    pointwise_m,
    spectral_gap,
    uniform_m,
)

R = FieldKind.REAL
C = FieldKind.COMPLEX
MASTER = 20260808


def report(criterion: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion} [{time.perf_counter() - started:.1f}s]: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_beta_measurement_law():
    started = time.perf_counter()
    n_samples = 20000
    details = []
    ok = True
    for field, n, tag in ((R, 8, 0), (C, 4, 1)):
        ens = sample_ensemble(field, n, n_samples, SeedStream(MASTER, (100, tag)))
        x = RankOneProjection(sample_unit_vector(field, 2 * n, SeedStream(MASTER, (101, tag))))
        traces = trace_values(ens, x)
        bn = field.beta * n
        stat = _ks_statistic(traces, lambda t: betainc(bn, bn, t))
        mean = float(traces.mean())
        var = float(traces.var(ddof=1))
        target_var = 1.0 / (4.0 * (2.0 * bn + 1.0))
        ok = (
            ok
            and stat < 0.015
            and abs(mean - 0.5) <= 0.01
            and abs(var - target_var) <= 0.1 * target_var
        )
        details.append(f"{field.value} n={n}: KS={stat:.4f} mean={mean:.4f} var={var:.5f}")
    report("criterion 1 (Beta measurement law)", ok, "; ".join(details), started)


def test_criterion_2_expectation_structure():
    started = time.perf_counter()
    field, n, m = R, 4, 50000
    mu1, mu2 = mu_pair(field, n)
    x = RankOneProjection(sample_unit_vector(field, 2 * n, SeedStream(MASTER, (200,))))
    ens = sample_ensemble(field, n, m, SeedStream(MASTER, (201,)))
    qhat = empirical_average(ens, measure(ens, x))
    vals, vecs = np.linalg.eigh(qhat.matrix)
    top_dev = abs(float(vals[-1]) - mu1)
    rest_dev = float(np.max(np.abs(vals[:-1] - mu2)))
    align = float(abs(np.vdot(x.vector.entries, vecs[:, -1])) ** 2)
    ok = top_dev < 0.01 and rest_dev < 0.01 and align >= 0.99
    report(
        "criterion 2 (expectation structure)",
        ok,
        f"|top-mu1|={top_dev:.4f} max|rest-mu2|={rest_dev:.4f} tr(X E1)={align:.4f}",
        started,
    )


def test_criterion_3_pointwise_guarantee():
    started = time.perf_counter()
    field, n, delta, big_d, trials = R, 8, 0.3, 2.0, 100
    m = pointwise_m(field, n, delta, big_d)
    cfg = load_config(
        experiment="pointwise",
        overrides={
            "field": "real",
            "n": n,
            "m_grid": str(m),
            "trials": trials,
            "delta": delta,
            "bound_D": big_d,
            "master_seed": MASTER,
        },
    )
    result = run_pointwise(cfg)
    successes = sum(rec.error < delta for rec in result.records)
    ok = successes >= 80
    report(
        "criterion 3 (pointwise guarantee)",
        ok,
        f"m={m}, {successes}/{trials} trials with error < {delta}",
        started,
    )


def test_criterion_4_rate_reproduction():
    started = time.perf_counter()
    field, n, trials, big_d = R, 8, 50, 2.0
    grid = sorted({int(round(v)) for v in np.geomspace(100, 100000, 7)})
    cfg = load_config(
        experiment="pointwise",
        overrides={
            "field": "real",
            "n": n,
            "m_grid": ",".join(str(m) for m in grid),
            "trials": trials,
            "bound_D": big_d,
            "master_seed": MASTER,
        },
    )
    result = run_pointwise(cfg)
    medians = []
    for m in grid:
        errors = [rec.error for rec in result.records if rec.m == m]
        medians.append(float(np.median(errors)))
    slope = float(np.polyfit(np.log(grid), np.log(medians), 1)[0])
    below = all(
        med < pointwise_error_level(field, n, m, big_d) for med, m in zip(medians, grid)
    )
    ok = -0.65 <= slope <= -0.35 and below
    report(
        "criterion 4 (error rate vs m)",
        ok,
        f"slope={slope:.3f}, medians below bound: {below}, medians={[round(v, 4) for v in medians]}",
        started,
    )


def test_criterion_5_uniform_mode_sanity():
    started = time.perf_counter()
    field, n, m, inputs, big_d = R, 8, 20000, 1000, 2.0
    cfg = load_config(
        experiment="uniform",
        overrides={
            "field": "real",
            "n": n,
            "m_grid": str(m),
            "inputs": inputs,
            "bound_D": big_d,
            "master_seed": MASTER,
        },
    )
    result = run_uniform(cfg)
    errors = np.array([rec.error for rec in result.records])
    bound_delta = result.tables[0].rows[0][1]
    max_error = float(errors.max())
    median_error = float(np.median(errors))
    ok = max_error < bound_delta and max_error < 5 * median_error
    report(
        "criterion 5 (uniform-mode sanity)",
        ok,
        f"max={max_error:.4f} median={median_error:.4f} inverted bound delta={bound_delta:.3f}",
        started,
    )


def test_uniform_theorem_at_its_own_sample_size():
    # Criterion 5 runs far below the m the uniform theorem is about. Here m is
    # the theorem's own uniform_m(real, 2, delta=0.3, D=2) = 3,579,352, which
    # uniform mode reaches because it streams its ensemble twice instead of
    # holding it; the maximum error over the inputs must be below delta.
    started = time.perf_counter()
    delta, inputs = 0.3, 256
    m = uniform_m(R, 2, delta, 2.0)
    cfg = load_config(
        experiment="uniform",
        overrides={"field": "real", "n": 2, "m_grid": str(m), "inputs": inputs, "delta": delta},
    )
    result = run_uniform(cfg)
    errors = np.array([rec.error for rec in result.records])
    max_error = float(errors.max())
    ok = len(errors) == inputs and max_error < delta
    report(
        "uniform theorem at uniform_m",
        ok,
        f"m={m} inputs={inputs} max={max_error:.4f} median={float(np.median(errors)):.4f}"
        f" delta={delta}",
        started,
    )


def test_criterion_6_separation_probability():
    started = time.perf_counter()
    n_samples = 100000
    details = []
    ok = True
    for field, tag in ((R, 0), (C, 1)):
        ens = sample_ensemble(field, 2, n_samples, SeedStream(MASTER, (600, tag)))
        blocks = ens.compression(2)
        tr = np.real(blocks[:, 0, 0] + blocks[:, 1, 1])
        det = np.real(blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0])
        disc = np.sqrt(np.maximum(0.0, tr * tr - 4 * det))
        lam1, lam2 = (tr + disc) / 2, (tr - disc) / 2
        est = float(np.mean((lam2 < 0.5) & (lam1 > 0.5)))
        closed = dsep_probability(field, 2)
        se = math.sqrt(closed * (1 - closed) / n_samples)
        ok = ok and abs(est - closed) <= 3 * se
        details.append(f"{field.value}: est={est:.4f} closed={closed:.4f}")
    limit_r = abs(dsep_probability(R, 512) / (1 / math.sqrt(2)) - 1)
    limit_c = abs(dsep_probability(C, 512) / (0.5 + 1 / math.pi) - 1)
    ok = ok and limit_r < 0.01 and limit_c < 0.01
    details.append(f"n=512 limit gaps: real={limit_r:.4f} complex={limit_c:.4f}")
    report("criterion 6 (separation probability)", ok, "; ".join(details), started)


def test_criterion_7_hamming_vs_operator_norm():
    started = time.perf_counter()
    field, n, m, pairs = R, 8, 20000, 1000
    d = 2 * n
    ens = sample_ensemble(field, n, m, SeedStream(MASTER, (700,)))
    vecs = np.stack(
        [
            sample_unit_vector(field, d, SeedStream(MASTER, (701, i))).entries
            for i in range(2 * pairs)
        ]
    )
    bits = trace_table(ens, vecs) >= 0.5
    overlaps = np.abs(np.einsum("id,id->i", vecs[0::2].conj(), vecs[1::2])) ** 2
    dists = np.sqrt(np.maximum(0.0, 1.0 - overlaps))
    d_meas = np.mean(bits[0::2] != bits[1::2], axis=1)
    worst = float(np.max(d_meas - dists))
    ok = worst <= 0.05
    report(
        "criterion 7 (Hamming vs operator norm)",
        ok,
        f"max over {pairs} pairs of d_P(X,Y) - ||X-Y|| = {worst:.4f}",
        started,
    )


def test_criterion_8_noise_robustness():
    started = time.perf_counter()
    field, n, delta, big_d, tau, trials = R, 4, 0.2, 2.0, 0.05, 100
    m = pointwise_m(field, n, delta, big_d)
    bound = float(0.2 + 2 * Fraction(56, 9) * Fraction(5, 100))
    details = []
    ok = True
    for mode in ("random", "greedy"):
        cfg = load_config(
            experiment="noise",
            overrides={
                "field": "real",
                "n": n,
                "m_grid": str(m),
                "trials": trials,
                "delta": delta,
                "bound_D": big_d,
                "tau": tau,
                "flip_mode": mode,
                "master_seed": MASTER,
            },
        )
        result = run_noise(cfg)
        within = sum(rec.error <= bound for rec in result.records)
        ok = ok and within >= 80
        details.append(f"{mode}: {within}/{trials} within bound {bound:.4f}")
    report("criterion 8 (noise robustness)", ok, f"m={m}; " + "; ".join(details), started)


def test_criterion_9_exact_identity_suite():
    started = time.perf_counter()
    checks = {}

    dev = 0.0
    for field in (R, C):
        for n in range(1, 65):
            mu1, mu2 = mu_pair(field, n)
            dev = max(dev, abs(mu1 + (2 * n - 1) * mu2 - n))
    checks["mu identity"] = dev <= 1e-12

    sandwich_ok = True
    for field in (R, C):
        for n in range(1, 130):
            bn = field.beta * n
            if not 2 <= bn <= 64:
                continue
            gap, lower, upper = spectral_gap(field, n)
            sandwich_ok = sandwich_ok and lower <= gap <= upper
    checks["gap bounds"] = sandwich_ok

    ident_dev = 0.0
    norm_ineq_ok = True
    for field, seed in ((R, 900), (C, 901)):
        n = 4
        mu1, mu2 = mu_pair(field, n)
        root = SeedStream(MASTER, (seed,))
        for i in range(500):
            xv = sample_unit_vector(field, 2 * n, root.child(i, 0))
            yv = sample_unit_vector(field, 2 * n, root.child(i, 1))
            x, y = RankOneProjection(xv), RankOneProjection(yv)
            diff = x.matrix() - y.matrix()
            vals, vecs = np.linalg.eigh(diff)
            ab = np.outer(vecs[:, -1], vecs[:, -1].conj()) - np.outer(
                vecs[:, 0], vecs[:, 0].conj()
            )
            qx = expected_average(x, mu1, mu2).matrix
            value = float(np.trace(qx @ ab).real) / (mu1 - mu2)
            ident_dev = max(ident_dev, abs(value - rank_one_distance(x, y)))
            norm_ineq_ok = norm_ineq_ok and rank_one_distance(x, y) <= float(
                np.linalg.norm(xv.entries - yv.entries)
            ) + 1e-12
    checks["trace identity"] = ident_dev <= 1e-8
    checks["norm inequality"] = norm_ineq_ok

    cert_ok = True
    for inst in range(3):
        ens = sample_ensemble(R, 4, 500, SeedStream(MASTER, (902, inst)))
        x = RankOneProjection(sample_unit_vector(R, 8, SeedStream(MASTER, (903, inst))))
        qhat = empirical_average(ens, measure(ens, x))
        rec = recover_from_average(qhat)
        vhat = rec.estimate.vector.entries
        best = float(np.real(np.vdot(vhat, qhat.matrix @ vhat)))
        for i in range(100):
            y = sample_unit_vector(R, 8, SeedStream(MASTER, (904, inst, i)))
            value = float(np.real(np.vdot(y.entries, qhat.matrix @ y.entries)))
            cert_ok = cert_ok and best >= value - 1e-9
    checks["PEP optimality"] = cert_ok

    den = eigen_density(R, 3)
    total, _ = dblquad(
        lambda yy, xx: eigen_density_eval(den, xx, yy), 0.0, 1.0, lambda xx: 0.0, lambda xx: xx
    )
    nodes, weights = np.polynomial.legendre.leggauss(64)
    xs = (nodes + 1) / 2
    ws = weights / 2
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    dc = eigen_density(C, 2)
    vals = np.where(yg <= xg, 12 * (xg - yg) ** 2, 0.0)
    for i in range(64):
        for j in range(64):
            if yg[i, j] <= xg[i, j]:
                vals[i, j] = eigen_density_eval(dc, xg[i, j], yg[i, j])
    total_c = float((ws[:, None] * ws[None, :] * vals).sum())
    checks["density normalization"] = abs(total - 1.0) <= 1e-6 and abs(total_c - 1.0) <= 1e-6

    ok = all(checks.values())
    detail = "; ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items())
    report("criterion 9 (exact-identity suite)", ok, detail, started)


def test_criterion_10_reproducibility(tmp_path):
    started = time.perf_counter()
    outputs: dict[str, list[bytes]] = {"pointwise": [], "uniform": [], "noise": []}
    for threads in (1, 4, 8):
        cfg_p = load_config(
            experiment="pointwise",
            overrides={
                "n": 4,
                "m_grid": "100,400",
                "trials": 6,
                "master_seed": MASTER,
            },
        )
        out = tmp_path / f"p{threads}.csv"
        write_result(run_pointwise(cfg_p, threads=threads), str(out))
        outputs["pointwise"].append(out.read_bytes() + (tmp_path / f"p{threads}.bounds.csv").read_bytes())

        cfg_u = load_config(
            experiment="uniform",
            overrides={
                "n": 4,
                "m_grid": "200",
                "inputs": 8,
                "master_seed": MASTER,
            },
        )
        out = tmp_path / f"u{threads}.csv"
        write_result(run_uniform(cfg_u, threads=threads), str(out))
        outputs["uniform"].append(out.read_bytes() + (tmp_path / f"u{threads}.max.csv").read_bytes())

        cfg_n = load_config(
            experiment="noise",
            overrides={
                "n": 4,
                "m_grid": "300",
                "trials": 6,
                "tau": 0.1,
                "delta": 0.5,
                "master_seed": MASTER,
            },
        )
        out = tmp_path / f"n{threads}.csv"
        write_result(run_noise(cfg_n, threads=threads), str(out))
        outputs["noise"].append(out.read_bytes() + (tmp_path / f"n{threads}.noise.csv").read_bytes())
    ok = all(blobs[0] == blobs[1] == blobs[2] for blobs in outputs.values())
    report(
        "criterion 10 (reproducibility)",
        ok,
        "byte-identical CSVs across 1, 4, and 8 threads for pointwise, uniform, noise",
        started,
    )
