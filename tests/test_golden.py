"""Golden SHA-256 digests of every CSV the trial-producing subcommands write.

The reproducibility contract is that a fixed config writes the same bytes
on every rerun and at every thread count. The digests below pin those bytes
across code changes: a refactor that is meant to be byte-identical must leave
them unchanged, and a change that moves any output byte must re-pin them and
say why.

Captured with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on OpenBLAS
0.3.31 (scipy-openblas, DYNAMIC_ARCH). The Gaussian streams depend on the
numpy version and the reductions on the BLAS, so another stack may need a
fresh capture.
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
        ".csv": "5d1b4d398c20e1ab7f91e2604756f57d0f5d307bc1973561f59e16e9259ceb7c",
        ".noise.csv": "0868e3fa4b64f0a776c46a604132467b87a25a1ee5e6b8bb024d69d8945f9400",
    },
    "noise-real-random": {
        ".csv": "6705e3ed726934acd7d9b4fa487b405bb069f54ca3804826810c4658494fca20",
        ".noise.csv": "c2b5600dcc8c38c863a46656f4d6821186c606e79d2322935dfbf6c1981b1b0f",
    },
    "pointwise-real": {
        ".bounds.csv": "7d796736596498493efb8e7549006d5ed9bf9df68292c64f588de6889600f603",
        ".csv": "62fd81afa4069a061875a82845a7c0593d4635fa098a3b5c206f652f4fb5723a",
    },
    "uniform-complex": {
        ".bounds.csv": "de7141d2f23b8030ebb47bd2f676d821ebaafa6edd626a3869573ad46601da71",
        ".csv": "9a50b7cebab75957ba0475f80746000f219f8664ad64032076fbe9a664243f8a",
        ".max.csv": "41ff7c35a9be0ca58054e283426a3cf6668ad1cfa4277eabf31c4ca3bc5eede0",
    },
    "uniform-real": {
        ".bounds.csv": "d4e353997c92d16820ffef45c27ff2883668f1fcd50f52499044173a72cbd1c3",
        ".csv": "3abe725534b763adb5dca73d05444c2067d0b6388fc988d9cf8581f53403f14e",
        ".max.csv": "f3f472ac4d74293bc14b118f92120cd8afad622b99d7ba2914924c0a90b33c4a",
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
