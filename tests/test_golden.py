"""Golden SHA-256 digests of every CSV the trial-producing subcommands write.

The reproducibility contract is that a fixed config writes the same bytes
on every rerun and at every thread count. The digests below pin those bytes
across code changes: a refactor that is meant to be byte-identical must leave
them unchanged, and a change that moves any output byte must re-pin them and
say why.

Captured with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on OpenBLAS
0.3.31 (scipy-openblas, DYNAMIC_ARCH), with ensembles sampled as one
Gaussian draw per 8192-element block and one batched QR. The Gaussian
streams depend on the numpy version and the reductions on the BLAS, so
another stack may need a fresh capture.
"""

import hashlib
from pathlib import Path

import pytest

from bitretrieve.cli import main

CONFIGS = {
    "pointwise-real": (
        "pointwise", "--field", "real", "--n", "4", "--m-grid", "50,150,400",
        "--trials", "3", "--seed", "11",
    ),
    # inputs > 512 crosses the uniform runner's signal block, and m = 9000 the
    # 8192-element accumulation chunk of the stacked average.
    "uniform-real": (
        "uniform", "--field", "real", "--n", "4", "--m-grid", "300,9000",
        "--inputs", "700", "--seed", "12",
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
}

GOLDEN = {
    "noise-complex-greedy": {
        ".csv": "3d9fee17cb05773d3c9365bb766df41bb82cafca4c4cbc3d3baf490d57e98427",
        ".noise.csv": "19c5c456eae9ff6027d8a99b8c30d6c06426e848d90a93c2956a2575dde50cca",
    },
    "noise-real-random": {
        ".csv": "ccb515d76daa32c7ec1d5bb8509f409034c6fdfbf236fccde7af728379ca9881",
        ".noise.csv": "5a64df232e76d362ade48942308e63fb2feda81225f6194d3e151456f6e74b88",
    },
    "pointwise-real": {
        ".bounds.csv": "7d796736596498493efb8e7549006d5ed9bf9df68292c64f588de6889600f603",
        ".csv": "05599fd63a075223874f9cb3f0c55d0a1a76ac40f2ac448d41ca85f64717e5c5",
    },
    "uniform-complex": {
        ".bounds.csv": "de7141d2f23b8030ebb47bd2f676d821ebaafa6edd626a3869573ad46601da71",
        ".csv": "5c22941b8a62ab15036c81ce27dca06637b6bf96c71e991487f323b6ef656545",
        ".max.csv": "07948480cd274d96b579fe947d4bc3c58a8d31531a6208cd08dbb1c5c668acca",
    },
    "uniform-real": {
        ".bounds.csv": "d4e353997c92d16820ffef45c27ff2883668f1fcd50f52499044173a72cbd1c3",
        ".csv": "f4adb39288ee9b342dcab7eb03daec410a4e3871be0f434cd8c5df2f6591b61d",
        ".max.csv": "b2c6249ee23bf60264b4a123d50ee4ff94ae0ab7fb56899d455d4f6f6eaca0d5",
    },
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
