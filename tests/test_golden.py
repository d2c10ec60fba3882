"""Golden SHA-256 digests of every CSV the trial-producing subcommands write,
and the exact results of the diagnostics checks.

The reproducibility contract is that a fixed config writes the same bytes
on every rerun and at every thread count. The digests below pin those bytes
across code changes: a refactor that is meant to be byte-identical must leave
them unchanged, and a change that moves any output byte must re-pin them and
say why. `DIAGNOSTICS` pins every check of `diagnostics --n 3` for both
fields at the default seed, floats compared exactly through their repr.

Captured with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on OpenBLAS
0.3.31 (scipy-openblas, DYNAMIC_ARCH) at one BLAS thread, with streams
seeded through numpy's SeedSequence, ensembles sampled as one Gaussian
draw per 8192-element block and one batched QR, the noise protocol's
corrupted average taken as a sparse update of the clean one, and uniform
mode's projection tables packed from batched F^H F products, one table per
1024-projection slice, with the stacked averages summed slice by slice as a
real GEMM over them (that moved the last bits of the uniform averages, by
at most 1.1e-16, and no answer bit). The Gaussian streams depend on the
numpy version and the reductions on the BLAS build and its thread count
(the stacked averages' GEMM splits its work by thread), so
`tests/conftest.py` pins the BLAS to one thread, and another stack may need
a fresh capture; run this file as a script, with the BLAS pinned the same
way, to print one.
"""

import hashlib
from pathlib import Path

import pytest

from bitretrieve.cli import main
from bitretrieve.experiments import load_config, run_diagnostics

CONFIGS = {
    "pointwise-real": (
        "pointwise", "--field", "real", "--n", "4", "--m-grid", "50,150,400",
        "--trials", "3", "--seed", "11",
    ),
    # m = 2 * 8192 + 17 spans three sampling blocks, the last one partial.
    "pointwise-real-block": (
        "pointwise", "--field", "real", "--n", "2", "--m-grid", "16401",
        "--trials", "2", "--seed", "16",
    ),
    # inputs > 512 crosses the uniform runner's signal block, and m = 9000 a
    # sampling block and the 1024-projection slices of its packed tables.
    "uniform-real": (
        "uniform", "--field", "real", "--n", "4", "--m-grid", "300,9000",
        "--inputs", "700", "--seed", "12",
    ),
    # m = 2 * 8192 + 17 spans three sampling blocks, the last one partial, and
    # inputs = 600 two signal chunks of the uniform runner.
    "uniform-real-block": (
        "uniform", "--field", "real", "--n", "2", "--m-grid", "16401",
        "--inputs", "600", "--seed", "18",
    ),
    "uniform-complex": (
        "uniform", "--field", "complex", "--n", "3", "--m-grid", "300,1200",
        "--inputs", "700", "--seed", "13",
    ),
    "noise-real-random": (
        "noise", "--field", "real", "--n", "4", "--m-grid", "200,800",
        "--trials", "3", "--tau", "0.05", "--flip-mode", "random", "--seed", "14",
    ),
    "noise-complex-greedy": (
        "noise", "--field", "complex", "--n", "3", "--m-grid", "300,900",
        "--trials", "3", "--tau", "0.05", "--flip-mode", "greedy", "--seed", "15",
    ),
    # The greedy mode's running top floor(tau m) carried across three blocks.
    "noise-real-greedy-block": (
        "noise", "--field", "real", "--n", "2", "--m-grid", "16401",
        "--trials", "2", "--tau", "0.05", "--flip-mode", "greedy", "--seed", "17",
    ),
}

GOLDEN = {
    "noise-complex-greedy": {
        ".csv": "ec2c38aaad0d46be14eccb8f4361a4a3761fbeeb979d82dab3600c5e8fecb255",
        ".noise.csv": "aad15c7a931afa4c704fb6f103548c956901b5ef2eb6eaa71b8387dfbf99a6db",
    },
    "noise-real-greedy-block": {
        ".csv": "630a28a9ea53cad71afc96082e6608c0451ed7d912802786e122ebe5d716cecc",
        ".noise.csv": "aaf261e66da74edbb5aabaf5a739402e439da19c212f0eca49b32aa79d003c6e",
    },
    "noise-real-random": {
        ".csv": "df7dab7d1b4c4c5ecc4a2fb17aea89bd2e781aae37c731e448465e37900bb0f3",
        ".noise.csv": "c0cac85483d318cbd6748a866b745962b4bfca6be0972f32373aece75bc60b31",
    },
    "pointwise-real": {
        ".bounds.csv": "7d796736596498493efb8e7549006d5ed9bf9df68292c64f588de6889600f603",
        ".csv": "6b0bb8b0e86619cdfdcd71dfd31591e572cb5cc774994ba378be20b9feefeb65",
    },
    "pointwise-real-block": {
        ".bounds.csv": "0f33a1c3cb94a16d2018c60dbee530aadb7d23768303d2d48355e0563c9e20d3",
        ".csv": "baf022165ff5c3be1473d781065171aa3baddb81660282c476d3e86cbc59bb0a",
    },
    "uniform-complex": {
        ".bounds.csv": "de7141d2f23b8030ebb47bd2f676d821ebaafa6edd626a3869573ad46601da71",
        ".csv": "7fa5783db598f217d2f0993f0c36bc8af8703e48aabfefa1b3fdc14ae6e8642a",
        ".max.csv": "c1079206b2f5956f33bff4aec1432006a7bc1bcf9e847c66cad350eac9772135",
    },
    "uniform-real": {
        ".bounds.csv": "d4e353997c92d16820ffef45c27ff2883668f1fcd50f52499044173a72cbd1c3",
        ".csv": "e58ba0d2b017a2217b922cb9cf1a61412e4608325f510a1d232f781c4eaf45da",
        ".max.csv": "4506d538706d8ca07930e6c687365cbe19850b1805a324a679a416d1c5622b49",
    },
    "uniform-real-block": {
        ".bounds.csv": "cd038271980f164f6579e68b9c29f125f4535837f91e4ed30384d92169dfb308",
        ".csv": "3f7e3bb1898e35b0c099cb26111323a9dfab100ec7bb31e287c7858bfddb4b0a",
        ".max.csv": "cae06e7594c7f0a561e1927621814f2c939306313d075f0a7a34f05feb68671b",
    },
}

DIAGNOSTICS = {
    "complex": (
        ('beta_trace_law_ks', True, '0.009497202037344388', '0.014616652224137047', ''),
        ('expected_average_eigenstructure', True, '0.0032813180407973985', '0.01', 'alignment=0.9999'),
        ('hamming_vs_opnorm_margin', True, '-0.19610780611042727', '0.05', ''),
        ('separation_probability_mc', True, '0.00010250000000044945', '0.003372883450912212', 'estimate=0.85146 closed=0.85156'),
        ('eigen_pair_density_chi2', True, '0.3674789040328089', '0.01', 'chi2=18.3 dof=17'),
        ('soft_hamming_sandwich', True, '-0.050000000000000044', '0.0', ''),
    ),
    "real": (
        ('beta_trace_law_ks', True, '0.009469676670103067', '0.014616652224137047', ''),
        ('expected_average_eigenstructure', True, '0.002996698816580712', '0.01', 'alignment=0.9998'),
        ('hamming_vs_opnorm_margin', True, '-0.11681579557610959', '0.05', ''),
        ('separation_probability_mc', True, '5.9999999999504894e-05', '0.004107919181288743', 'estimate=0.75006 closed=0.75000'),
        ('eigen_pair_density_chi2', True, '0.2407147486164133', '0.01', 'chi2=25.2 dof=21'),
        ('soft_hamming_sandwich', True, '-0.026000000000000023', '0.0', ''),
    ),
}


def csv_digests(argv: tuple[str, ...], threads: int, directory: Path) -> dict[str, str]:
    """Run one config through the CLI and hash every CSV it wrote, keyed by
    the file name with the common stem removed."""
    out = directory / "run.csv"
    assert main([*argv, "--threads", str(threads), "--out", str(out)]) == 0
    return {
        path.name[len("run") :]: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("run*.csv"))
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_digests(name, threads, tmp_path):
    assert csv_digests(CONFIGS[name], threads, tmp_path) == GOLDEN[name]


def diagnostics_pin(field: str) -> tuple[tuple, ...]:
    """(name, passed, repr(statistic), repr(threshold), detail) of every
    check of `diagnostics --n 3` over `field` at the default seed."""
    cfg = load_config(experiment="diagnostics", overrides={"field": field, "n": 3})
    return tuple(
        (c.name, c.passed, repr(float(c.statistic)), repr(float(c.threshold)), c.detail)
        for c in run_diagnostics(cfg).checks
    )


@pytest.mark.parametrize("field", sorted(DIAGNOSTICS))
def test_diagnostics_pin(field):
    assert diagnostics_pin(field) == DIAGNOSTICS[field]


if __name__ == "__main__":
    # Print fresh GOLDEN and DIAGNOSTICS mappings to paste above, after
    # checking that threads 1 and 2 write the same bytes. Run from the
    # repository root, with the BLAS pinned as tests/conftest.py pins it:
    #   OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
    #   PYTHONPATH=src python tests/test_golden.py
    import contextlib
    import sys
    import tempfile

    print("GOLDEN = {")
    for name in sorted(CONFIGS):
        runs = []
        for threads in (1, 2):
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
                runs.append(csv_digests(CONFIGS[name], threads, Path(tmp)))
        if runs[0] != runs[1]:
            raise SystemExit(f"{name}: threads 1 and 2 wrote different bytes")
        print(f'    "{name}": {{')
        for suffix, digest in runs[0].items():
            print(f'        "{suffix}": "{digest}",')
        print("    },")
    print("}")
    print("DIAGNOSTICS = {")
    for field in ("complex", "real"):
        print(f'    "{field}": (')
        for check in diagnostics_pin(field):
            print(f"        {check!r},")
        print("    ),")
    print("}")
