"""Golden SHA-256 digests of every CSV the trial-producing subcommands write,
and the exact results of the diagnostics checks.

The reproducibility contract is that a fixed config writes the same bytes
on every rerun and at every thread count. The digests below pin those bytes
across code changes: a refactor that is meant to be byte-identical must leave
them unchanged, and a change that moves any output byte must re-pin them and
say why. `DIAGNOSTICS` pins every check of `diagnostics --n 3` for both
fields at the default seed, floats compared exactly through their repr.

Captured with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on OpenBLAS
0.3.31 (scipy-openblas, DYNAMIC_ARCH), with streams seeded through numpy's
SeedSequence, ensembles sampled in 8192-element blocks, one seed stream
per block, each 1024-matrix slice drawn by one call that continues its
block's stream (over C one call of shape (2, slice, d, k), which moved
every complex config whose blocks hold more than one slice, and the
complex diagnostics) and orthonormalized one sub-batch at a time, a matrix
of at most 1 KiB by batch-last classical Gram-Schmidt with one
reorthogonalization and a larger one by LAPACK's QR (that moved the last
bits of every config at or below real n = 8 and complex n = 5, errors by at
most 3.4e-13 and qdev by 1.4e-16, and of the expected-average and complex
beta-law diagnostics, by at most 2.2e-16, and no flag, bound or verdict),
the fixed-signal averages summed one 1024-projection slice per GEMM (that
moved the last
bits of the n = 2 pointwise and noise block configs, errors by at most
2.8e-14, and of the expected-average diagnostic, by at most 2.8e-16, and no
answer bit, flipped position or degenerate flag), the noise protocol's
corrupted average taken as a sparse update of the clean one, its flipped
frames summed by one GEMM per slice that holds flips (that moved the last
bits of the four noise configs whose flips span more than one slice,
errors by at most 5.4e-14 and qdev by 7.6e-17, and no flag or flipped
position), and uniform
mode's projection tables packed from batched F^H F products, one table per
slice, with the stacked averages summed slice by slice as a real GEMM over
them, and every recovery scored from the strided top eigenvector columns of
one batched eigensolve (that moved the last bits of 20 error cells of the
real pointwise and noise configs, by at most 1.25e-14, and no qdev,
degenerate flag, flipped position or answer bit), and every product of
signal rows against a table taken in whole 128-signal blocks, the last one
padded with zero rows (that moved the last bits of 86 of the 88 rows of
`uniform-real-block`'s partial last block, errors by at most 1.2e-13 and
qdev by 1.2e-16, and no flag, disagreement count or running maximum), and
the eigenvalue-pair cells' diagonal integrated over each triangle y < x,
with the pooled bucket's expectation summed from its own cells (that moved
the real chi-square p-value from 0.2407 to 0.3492, chi2 25.2 to 22.9, and
the complex one by 8.5e-15 in its last bits). The
Gaussian streams depend on the numpy version and the reductions on the BLAS
build and its thread count (a GEMM split over threads sums in another
order), so
`run_experiment` and `run_diagnostics` hold numpy's bundled OpenBLAS at one
thread, `tests/conftest.py` pins the BLAS to one thread too, and
`test_digests_hold_at_two_blas_threads` runs a config whose bytes move at
two BLAS threads. Another stack may need a fresh capture; run
this file as a script to print one.
"""

import csv
import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bitretrieve import experiments, recovery
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
    # inputs = 700 crosses the uniform runner's 128-signal blocks, and m = 9000 a
    # sampling block and the 1024-projection slices of its packed tables.
    "uniform-real": (
        "uniform", "--field", "real", "--n", "4", "--m-grid", "300,9000",
        "--inputs", "700", "--seed", "12",
    ),
    # m = 2 * 8192 + 17 spans three sampling blocks, the last one partial, and
    # inputs = 600 five signal blocks of the uniform runner.
    "uniform-real-block": (
        "uniform", "--field", "real", "--n", "2", "--m-grid", "16401",
        "--inputs", "600", "--seed", "18",
    ),
    # inputs = 300 ends on a partial 128-signal block (44 rows); the rows of
    # that block are those of a longer run only if every product is one
    # whole-block shape.
    "uniform-real-partial": (
        "uniform", "--field", "real", "--n", "2", "--m-grid", "3000",
        "--inputs", "300", "--seed", "7",
    ),
    "uniform-complex": (
        "uniform", "--field", "complex", "--n", "3", "--m-grid", "300,1200",
        "--inputs", "700", "--seed", "13",
    ),
    "noise-real-random": (
        "noise", "--field", "real", "--n", "4", "--m-grid", "200,800",
        "--trials", "3", "--tau", "0.05", "--flip-mode", "random", "--seed", "14",
    ),
    # 820 random flips over the 17 slices of three sampling blocks, the last
    # block partial.
    "noise-real-random-block": (
        "noise", "--field", "real", "--n", "2", "--m-grid", "16401",
        "--trials", "2", "--tau", "0.05", "--flip-mode", "random", "--seed", "24",
    ),
    "noise-complex-greedy": (
        "noise", "--field", "complex", "--n", "3", "--m-grid", "300,900",
        "--trials", "3", "--tau", "0.05", "--flip-mode", "greedy", "--seed", "15",
    ),
    # m = 2 * 8192 + 17 spans three complex sampling blocks, the last one
    # partial, each of more than one 1024-projection slice.
    "noise-complex-greedy-block": (
        "noise", "--field", "complex", "--n", "2", "--m-grid", "16401",
        "--trials", "2", "--tau", "0.05", "--flip-mode", "greedy", "--seed", "19",
    ),
    # The greedy mode's running top floor(tau m) carried across three blocks.
    "noise-real-greedy-block": (
        "noise", "--field", "real", "--n", "2", "--m-grid", "16401",
        "--trials", "2", "--tau", "0.05", "--flip-mode", "greedy", "--seed", "17",
    ),
    # Above the sampler's 8 MiB slice budget: 512-projection slices (real
    # n = 23-32, complex n = 17-22) and small QR sub-batches, over 1100
    # projections, so the last slice is partial.
    "pointwise-real-n24": (
        "pointwise", "--field", "real", "--n", "24", "--m-grid", "1100",
        "--trials", "2", "--seed", "20",
    ),
    "pointwise-complex-n17": (
        "pointwise", "--field", "complex", "--n", "17", "--m-grid", "1100",
        "--trials", "2", "--seed", "21",
    ),
    # 150 greedy flips over 128-projection slices: more flips than a slice,
    # so the flip store keeps a whole slice of spare rows.
    "noise-real-greedy-n64": (
        "noise", "--field", "real", "--n", "64", "--m-grid", "3000",
        "--trials", "1", "--tau", "0.05", "--flip-mode", "greedy", "--seed", "22",
    ),
    # 512-projection tables against 130 signals, the last 128-signal block partial.
    "uniform-real-n32": (
        "uniform", "--field", "real", "--n", "32", "--m-grid", "1100",
        "--inputs", "130", "--seed", "23",
    ),
    # The largest Gram-Schmidt and the smallest QR matrix size of the sampler
    # (real n = 8 and complex n = 6), each over m = 1025, so the last slice
    # holds one matrix.
    "pointwise-real-n8": (
        "pointwise", "--field", "real", "--n", "8", "--m-grid", "1025",
        "--trials", "2", "--seed", "25",
    ),
    "pointwise-complex-n6": (
        "pointwise", "--field", "complex", "--n", "6", "--m-grid", "1025",
        "--trials", "2", "--seed", "26",
    ),
}

GOLDEN = {
    "noise-complex-greedy": {
        ".csv": "244290ac093bfdda9159633429d0d3e93d69a3a9d60a579095512b5d411db739",
        ".noise.csv": "88bcc5ab32a30e3547e5dd8002fe5c53c8f319db1a6bdb0042336bb0bdad9931",
    },
    "noise-complex-greedy-block": {
        ".csv": "1d6976eca1656c4eb41800a818e22bf798b45a43097ef8cf37a85b419e2d41d1",
        ".noise.csv": "dbfbcee7dca895df4bc6981190fa34c69257c0cd4a043ceba0ba5b3d09ea8971",
    },
    "noise-real-greedy-block": {
        ".csv": "874d9733b2e77a25ce8e9e92ef3ce36330583b83519290ec9eb7516a38001f58",
        ".noise.csv": "e98b8812ae3eea7a5ec787397a8c97a81cf41413ff63d3df41e1ee8a34b02f23",
    },
    "noise-real-greedy-n64": {
        ".csv": "ac6447ff3ddcf2f88fc32bc73a012e98523372e63f7f27680ef17c19ff5d7cdb",
        ".noise.csv": "fe9146a088e26187381f1da655465a9a42cb46559245bf954db9d2a5e4c5a262",
    },
    "noise-real-random": {
        ".csv": "aa4c2fb267c48ffc735cb3af6d750e86dcb6b61bf5f244a1693d50e5b2aa3800",
        ".noise.csv": "af0351baa68f124cdb797568f8a66fdff59aa30b167206f66d2f9ca87b9e02d3",
    },
    "noise-real-random-block": {
        ".csv": "fdcb517fb5e271464a41fd802f72b6906fd8ed061d23235f8cb37892726f2b16",
        ".noise.csv": "ac2fd465929851660f9057885320e444642e19e91e8eac25dcab3dd2a7bae7e6",
    },
    "pointwise-complex-n17": {
        ".bounds.csv": "648c336b1d73b3df39be5f768d403e631b7a8fdfc4e261726de3eea1322138ce",
        ".csv": "240304d2254e59ee440e66bbd06ee2997f94cfadf6fb4b145739cf554af4fa35",
    },
    "pointwise-complex-n6": {
        ".bounds.csv": "e87c54a2d552102948be27477f20ef8ff6b1b6b1ba10ac43a0a56d3f9aff3ba3",
        ".csv": "367aa0f1f840c3e554c6311a999c4debdc48f5387011ec4e7bc2acf74f8aa995",
    },
    "pointwise-real": {
        ".bounds.csv": "7d796736596498493efb8e7549006d5ed9bf9df68292c64f588de6889600f603",
        ".csv": "26cc83c90af267c2699df661ec64a8996d26381b38c94305cd06a563870fad54",
    },
    "pointwise-real-block": {
        ".bounds.csv": "0f33a1c3cb94a16d2018c60dbee530aadb7d23768303d2d48355e0563c9e20d3",
        ".csv": "64af5a7a455573962d07389f73feeee0d111a6f7ddeaed355ff2eac4b56a32cf",
    },
    "pointwise-real-n24": {
        ".bounds.csv": "14279fd7061d95c996b71d7a9f3b7a8be70917a1dd084deb1ce30362828948ac",
        ".csv": "3601299379a0b7a51e59650718b98ae6b69f0ccb59a496c23d25419b96448595",
    },
    "pointwise-real-n8": {
        ".bounds.csv": "dcb4650a1903f64e0c18415598456a4d3cc9494eb16f365e5df2411a49a1fb9d",
        ".csv": "254d23497c291d2f1708184bb2a9b8202a679d86cc138841b0ee08b385b0fb54",
    },
    "uniform-complex": {
        ".bounds.csv": "de7141d2f23b8030ebb47bd2f676d821ebaafa6edd626a3869573ad46601da71",
        ".csv": "c49eb3e85bd0a62dc4d3b4d37551d6fa1c1d9e8ad529d8dca925fac955f30793",
        ".max.csv": "ad12243aae24a5be6f4696861ccfef137d2e2406b804f697e14f9580be64c931",
    },
    "uniform-real": {
        ".bounds.csv": "d4e353997c92d16820ffef45c27ff2883668f1fcd50f52499044173a72cbd1c3",
        ".csv": "f3df27ae1b22ef15a5b542049f0b9377d1bf21681f48675e9b09631b64a97f30",
        ".max.csv": "0f1046d80f38e69a55810436e094c0d9c6687ce98b90fa8cb9f69e87506dd797",
    },
    "uniform-real-block": {
        ".bounds.csv": "cd038271980f164f6579e68b9c29f125f4535837f91e4ed30384d92169dfb308",
        ".csv": "36ca7d90beeb7b76668101e9ae7396c87a19171781ce54c9ba678f278095adfa",
        ".max.csv": "ce2fe2f31a068cc3b863358204ac5f6b0eaaecd021f18fd76e28983be62181d2",
    },
    "uniform-real-n32": {
        ".bounds.csv": "0d807da6ef7840329c5150a3d025e02e6771e02eac29b4c1b78800b39744c300",
        ".csv": "46d118d6edf2946fa6078957833fccf2193153a706659691292067dcf00aa69c",
        ".max.csv": "d2d7fd378450329fd41d7e2e9601c8d8fdc54764d897ec1256e74bed6bfcc30f",
    },
    "uniform-real-partial": {
        ".bounds.csv": "c88f4fb565bd570d5d2479d3c48d0796735baeb07064081c6a9f558743b5edf7",
        ".csv": "c6b9a85e91f3da9577c644251aa6bcb9136e0371f407d215245332e68d91f378",
        ".max.csv": "d8169897284118790870dca0f5211633d7f86333f68dc115f30c01fcf41cce22",
    },
}

DIAGNOSTICS = {
    "complex": (
        ('beta_trace_law_ks', True, '0.006964206590637012', '0.014616652224137047', ''),
        ('expected_average_eigenstructure', True, '0.0031274840435620566', '0.01', 'alignment=0.9999'),
        ('hamming_vs_opnorm_margin', True, '-0.1977578061104273', '0.05', ''),
        ('separation_probability_mc', True, '0.0018725000000004988', '0.003372883450912212', 'estimate=0.84969 closed=0.85156'),
        ('eigen_pair_density_chi2', True, '0.17253833463399823', '0.01', 'chi2=22.3 dof=17'),
        ('soft_hamming_sandwich', True, '-0.050000000000000044', '0.0', ''),
    ),
    "real": (
        ('beta_trace_law_ks', True, '0.009469676670103067', '0.014616652224137047', ''),
        ('expected_average_eigenstructure', True, '0.0029966988165804898', '0.01', 'alignment=0.9998'),
        ('hamming_vs_opnorm_margin', True, '-0.11681579557610959', '0.05', ''),
        ('separation_probability_mc', True, '5.9999999999504894e-05', '0.004107919181288743', 'estimate=0.75006 closed=0.75000'),
        ('eigen_pair_density_chi2', True, '0.3491672824763429', '0.01', 'chi2=22.9 dof=21'),
        ('soft_hamming_sandwich', True, '-0.026000000000000023', '0.0', ''),
    ),
}


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def written_digests(directory: Path) -> dict[str, str]:
    """The SHA-256 of every CSV of the run `run.csv` in `directory`, keyed by
    the file name with the common stem removed."""
    return {
        path.name[len("run") :]: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("run*.csv"))
    }


def csv_digests(argv: tuple[str, ...], threads: int, directory: Path) -> dict[str, str]:
    """Run one config through the CLI in this process and hash every CSV it wrote."""
    assert main([*argv, "--threads", str(threads), "--out", str(directory / "run.csv")]) == 0
    return written_digests(directory)


def child_env(blas_threads: int, src: str | None = None) -> dict[str, str]:
    """This process's environment with every BLAS thread variable at
    `blas_threads`, and the library imported from `src` if one is given."""
    env = dict(os.environ, **{var: str(blas_threads) for var in BLAS_VARIABLES})
    if src is not None:
        env["PYTHONPATH"] = src
    return env


def child_digests(
    argv: tuple[str, ...], blas_threads: int, directory: Path, src: str | None = None
) -> dict[str, str]:
    """Run the CLI in a child process whose BLAS thread variables all ask for
    `blas_threads`, from the library at `src` if one is given, and hash
    every CSV it wrote."""
    env = child_env(blas_threads, src)
    command = [sys.executable, "-m", "bitretrieve", *argv, "--out", str(directory / "run.csv")]
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return written_digests(directory)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_digests(name, threads, tmp_path):
    assert csv_digests(CONFIGS[name], threads, tmp_path) == GOLDEN[name]


# Greedy configs whose flip store the budget decides: the n = 64 one's
# 150 + 128 rows of 64 KiB frames exceed the 16 MiB budget, the others fit.
STORED_OR_REPLAYED = (
    "noise-complex-greedy-block", "noise-real-greedy-block", "noise-real-greedy-n64",
)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("budget, walks", [(0, 2), (1 << 30, 1)], ids=["replayed", "stored"])
@pytest.mark.parametrize("name", STORED_OR_REPLAYED)
def test_flip_store_budget_keeps_the_digests(name, budget, walks, threads, monkeypatch, tmp_path):
    # With no budget every greedy unit keeps positions, damages and bits
    # only, and walks its ensemble a second time for the flipped frames;
    # with a budget of 1 GiB every unit keeps its frames and walks its
    # ensemble once. Both group the flipped frames by the same slices, so
    # both give the pinned bytes.
    paths = []

    def counted(field, n, m, stream):
        paths.append(stream.path)
        return frame_blocks(field, n, m, stream)

    frame_blocks = experiments._frame_blocks
    monkeypatch.setattr(experiments, "_frame_blocks", counted)
    monkeypatch.setattr(recovery, "_FLIP_STORE_BYTES", budget)
    assert csv_digests(CONFIGS[name], threads, tmp_path) == GOLDEN[name]
    assert set(Counter(paths).values()) == {walks}, paths


def test_digests_hold_at_two_blas_threads(tmp_path):
    # A run holds the BLAS at one thread whatever the environment asks for;
    # left at two, OpenBLAS splits the stacked averages' GEMM and the last
    # bits of the uniform averages move.
    assert child_digests(CONFIGS["uniform-real"], 2, tmp_path) == GOLDEN["uniform-real"]


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


def is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def csv_moves(before: Path, after: Path) -> str:
    """How one CSV moved between two runs of a config: the largest absolute
    move of each float column (every cell a float, not every cell an
    integer) and the number of changed cells in every other column."""
    old, new = ([*csv.reader(path.read_text().splitlines())] for path in (before, after))
    if old[0] != new[0] or len(old) != len(new):
        return "header or row count changed"
    floats, others = [], []
    for i, name in enumerate(old[0]):
        pairs = [(a[i], b[i]) for a, b in zip(old[1:], new[1:])]
        cells = [cell for pair in pairs for cell in pair]
        if all(map(is_float, cells)) and not all(c.lstrip("-").isdigit() for c in cells):
            move = max((abs(float(a) - float(b)) for a, b in pairs), default=0.0)
            floats.append(f"{name} {move:.3g}")
        else:
            others.append(f"{name} {sum(a != b for a, b in pairs)}")
    return f"moved by {', '.join(floats) or '-'}; cells changed: {', '.join(others) or '-'}"


def diagnostics_moves(before: tuple[tuple, ...], after: tuple[tuple, ...]) -> list[str]:
    """How each diagnostics check moved between two pins: its statistic's
    absolute move, and whether its verdict or detail changed."""
    return [
        f"{a[0]}: statistic moved by {abs(float(a[2]) - float(b[2])):.3g},"
        f" verdict {'changed' if a[1] != b[1] else 'held'},"
        f" detail {'changed' if a[4] != b[4] else 'held'}"
        for a, b in zip(before, after)
    ]


if __name__ == "__main__":
    # Print fresh GOLDEN and DIAGNOSTICS mappings to paste above, after a
    # comment naming every pinned entry they change. Every config runs in
    # child processes at --threads 1 and 2, each with the BLAS thread
    # variables at 1 and at 2, and the diagnostics at both BLAS settings; any
    # difference stops the script before it prints. From the repository root:
    #   PYTHONPATH=src python tests/test_golden.py
    # With `--moves OTHER_SRC` it runs every config, and the diagnostics, once
    # on another `src/` tree and once on this one, and prints how each CSV
    # and each check moved (`csv_moves`, `diagnostics_moves`), for a re-pin's
    # record.
    import ast
    import itertools
    import tempfile

    def child_diagnostics(field: str, blas_threads: int, src: str | None = None) -> tuple:
        command = [sys.executable, __file__, "--diagnostics", field]
        env = child_env(blas_threads, src)
        out = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
        return ast.literal_eval(out.stdout)

    if sys.argv[1:2] == ["--diagnostics"]:
        print(repr(diagnostics_pin(sys.argv[2])))
        raise SystemExit

    if sys.argv[1:2] == ["--moves"]:
        other = str(Path(sys.argv[2]).resolve())
        for name in sorted(CONFIGS):
            with tempfile.TemporaryDirectory() as tmp:
                before, after = Path(tmp, "before"), Path(tmp, "after")
                before.mkdir()
                after.mkdir()
                child_digests(CONFIGS[name], 1, before, other)
                child_digests(CONFIGS[name], 1, after)
                for path in sorted(before.glob("run*.csv")):
                    moves = csv_moves(path, after / path.name)
                    print(f"{name} {path.name[len('run'):]}: {moves}")
        for field in ("complex", "real"):
            old, new = child_diagnostics(field, 1, other), child_diagnostics(field, 1)
            for line in diagnostics_moves(old, new):
                print(f"diagnostics {field} {line}")
        raise SystemExit

    golden = {}
    for name in sorted(CONFIGS):
        runs = {}
        for threads, blas in itertools.product((1, 2), (1, 2)):
            with tempfile.TemporaryDirectory() as tmp:
                argv = (*CONFIGS[name], "--threads", str(threads))
                runs[threads, blas] = child_digests(argv, blas, Path(tmp))
        if any(run != runs[1, 1] for run in runs.values()):
            raise SystemExit(f"{name}: (--threads, BLAS threads) runs differ: {runs}")
        golden[name] = runs[1, 1]
    diagnostics = {}
    for field in ("complex", "real"):
        pins = [child_diagnostics(field, blas) for blas in (1, 2)]
        if pins[0] != pins[1]:
            raise SystemExit(f"diagnostics over {field}: BLAS threads 1 and 2 differ")
        diagnostics[field] = pins[0]

    moved = [
        f"{name} {suffix}"
        for name in sorted(set(GOLDEN) | set(golden))
        for suffix in sorted(set(GOLDEN.get(name, {})) | set(golden.get(name, {})))
        if GOLDEN.get(name, {}).get(suffix) != golden.get(name, {}).get(suffix)
    ]
    moved += [f"diagnostics {f}" for f in sorted(diagnostics) if DIAGNOSTICS.get(f) != diagnostics[f]]
    print("# differs from the pins in this file:", ", ".join(moved) or "nothing")
    print("GOLDEN = {")
    for name, digests in golden.items():
        print(f'    "{name}": {{')
        for suffix, digest in digests.items():
            print(f'        "{suffix}": "{digest}",')
        print("    },")
    print("}")
    print("DIAGNOSTICS = {")
    for field, checks in diagnostics.items():
        print(f'    "{field}": (')
        for check in checks:
            print(f"        {check!r},")
        print("    ),")
    print("}")
