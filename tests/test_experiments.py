import ctypes
import platform
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from bitretrieve import cli, experiments
from bitretrieve.cli import main
from bitretrieve.core import FieldKind, InvalidInput
from bitretrieve.experiments import (
    _AUX_TABLES,
    AuxTable,
    CSV_HEADER,
    CheckFailure,
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    emit_csv,
    load_config,
    parse_config_text,
    parse_csv,
    run_experiment,
    run_noise,
    run_pointwise,
    run_uniform,
    theory_lines,
    write_result,
)

R = FieldKind.REAL

CONFIG_TEXT = """\
# pointwise example configuration
experiment = pointwise
field = real
n = 4            # half-dimension
m_grid = 50, 150
trials = 2
delta = 0.3
bound_D = 2
master_seed = 77
output_path = out.csv
"""


class TestConfig:
    def test_parse_text(self):
        mapping = parse_config_text(CONFIG_TEXT)
        assert mapping["experiment"] == "pointwise"
        assert mapping["m_grid"] == "50, 150"
        assert mapping["n"] == "4"

    def test_unknown_key_names_offender(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("bogus = 1\n")
        assert err.value.key == "bogus"

    def test_bad_syntax(self):
        with pytest.raises(ConfigError):
            parse_config_text("no equals sign here\n")

    def test_repeated_key_names_its_line(self):
        # The last line used to win without a word.
        with pytest.raises(ConfigError, match="'n' is set twice") as err:
            parse_config_text("n = 4\n# comment\nn = 8\n")
        assert err.value.key == "line 3"

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT)
        cfg = load_config(str(path), overrides={"master_seed": 123, "trials": "5"})
        assert cfg.master_seed == 123
        assert cfg.trials == 5
        assert cfg.field is R
        assert cfg.m_grid == (50, 150)

    def test_validation_failures_carry_key(self):
        cases = {
            "m_grid": {"m_grid": "100, 50"},
            "tau": {"tau": "1.0"},
            "trials": {"trials": "0"},
            "delta": {"delta": "-1"},
            "flip_mode": {"flip_mode": "evil"},
            "n": {"n": "0"},
        }
        for key, overrides in cases.items():
            with pytest.raises(ConfigError) as err:
                load_config(experiment="pointwise", overrides=overrides)
            assert err.value.key == key

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            load_config()

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            load_config(experiment="pointwise", overrides={"n": "four"})

    def test_m_grid_entries_read_as_the_other_integers(self, tmp_path):
        # m_grid entries were read by int(p): "08" gave 8 where n = 08 is
        # refused, and "0x10" was refused where seed = 0x10 is 16.
        path = tmp_path / "cfg.txt"
        path.write_text("experiment = pointwise\nm_grid = 0x10, 0o40, 1_000\n")
        assert load_config(str(path)).m_grid == (16, 32, 1000)
        path.write_text("experiment = pointwise\nm_grid = 08\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.key == "m_grid"

    @pytest.mark.parametrize(
        "key, value",
        [("n", 4.5), ("trials", 2.0), ("inputs", 3.7), ("master_seed", 1.5),
         ("m_grid", (10.9, 20.2)), ("m_grid", (10, np.float64(20.0)))],
    )
    def test_typed_non_integer_is_refused(self, key, value):
        # int(value) used to truncate these: n = 4.5 ran as n = 4.
        with pytest.raises(ConfigError) as err:
            load_config(experiment="pointwise", overrides={key: value})
        assert err.value.key == key

    def test_typed_integers_pass(self):
        cfg = load_config(experiment="pointwise", overrides={"n": np.int64(3), "m_grid": (10, 20)})
        assert (cfg.n, cfg.m_grid) == (3, (10, 20))

    def test_experiment_word_is_case_insensitive_in_a_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("experiment = Theory\n")
        assert load_config(str(path)).experiment == "theory"


class TestCsv:
    RECORDS = [
        TrialRecord(0, 100, 0.125, 0.0625, None, False, "ens=0/100;x=0"),
        TrialRecord(1, 100, 0.5, 0.25, -0.03125, True, "ens=1/100;x=0"),
    ]

    def test_header_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv([], str(path))
        assert path.read_text() == "trial,m,error,qdev,hamming_gap,degenerate,seed_path\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(self.RECORDS, str(path))
        assert parse_csv(str(path)) == self.RECORDS

    @pytest.mark.parametrize(
        "body, line",
        [
            ("", 1),
            ("0,100,0.125\n", 2),
            ("0,100,x,0.0625,,false,ens=0/100;x=0\n", 2),
            ("0,100,0.125,0.0625,,maybe,ens=0/100;x=0\n", 2),
            ("0,100,0.125,0.0625,,false,ens=0/100;x=0\n1,100,0.5,0.25,,false,x=0\u03b4\n", 3),
        ],
        ids=["empty-file", "short-row", "bad-number", "bad-degenerate", "non-ascii"],
    )
    def test_malformed_input_names_its_line(self, body, line, tmp_path):
        # An empty file used to raise StopIteration, a short row IndexError,
        # a bad number a bare ValueError, "maybe" read as False, and a byte
        # that is not ASCII UnicodeDecodeError.
        path = tmp_path / "r.csv"
        header = ",".join(CSV_HEADER) + "\n" if body else ""
        path.write_text(header + body, encoding="utf-8")
        with pytest.raises(InvalidInput, match=f"CSV line {line}:"):
            parse_csv(str(path))

    def test_empty_cell_for_absent_optional(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(self.RECORDS, str(path))
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[4] == ""
        assert lines[2].split(",")[4] == "-0.03125"
        assert lines[1].split(",")[5] == "false"
        assert lines[2].split(",")[5] == "true"

    def test_write_result_places_aux_tables(self, tmp_path):
        result_path = tmp_path / "out.csv"
        cfg = load_config(experiment="pointwise", overrides={"trials": 1, "m_grid": "50"})
        from bitretrieve.experiments import ExperimentResult

        res = ExperimentResult(cfg, self.RECORDS, [AuxTable("bounds", ("m", "b"), [(50, 1.5)])])
        written = write_result(res, str(result_path))
        assert written == [str(result_path), str(tmp_path / "out.bounds.csv")]
        assert (tmp_path / "out.bounds.csv").read_text() == "m,b\n50,1.5\n"


def make_cfg(**overrides):
    experiment = overrides.pop("experiment", "pointwise")
    return load_config(experiment=experiment, overrides=overrides)


class TestRunPointwise:
    def test_single_cell_yields_one_record(self):
        res = run_pointwise(make_cfg(n=2, m_grid="100", trials=1, master_seed=1))
        assert len(res.records) == 1

    def test_record_grid(self):
        cfg = make_cfg(n=4, m_grid="50,150", trials=3, master_seed=5)
        res = run_pointwise(cfg)
        assert [(r.trial, r.m) for r in res.records] == [
            (t, m) for t in range(3) for m in (50, 150)
        ]
        for rec in res.records:
            assert 0.0 <= rec.error <= 1.0
            assert rec.qdev >= 0.0
            assert rec.hamming_gap is None
            assert rec.seed_path == f"ens={rec.trial}/{rec.m};x=0"

    def test_bounds_table(self):
        cfg = make_cfg(n=4, m_grid="50,150", trials=1, bound_D=2.0)
        res = run_pointwise(cfg)
        table = res.tables[0]
        assert table.name == "bounds"
        ms = [row[0] for row in table.rows]
        assert ms == [50, 150]
        assert table.rows[0][1] > table.rows[1][1]

    def test_byte_identical_replay(self, tmp_path):
        cfg = make_cfg(n=4, m_grid="50,100", trials=2, master_seed=9)
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            write_result(run_pointwise(cfg), str(out))
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trial_prefix_stability(self):
        small = run_pointwise(make_cfg(n=4, m_grid="80", trials=2, master_seed=3))
        large = run_pointwise(make_cfg(n=4, m_grid="80", trials=5, master_seed=3))
        assert large.records[: len(small.records)] == small.records

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = make_cfg(n=4, m_grid="50,100", trials=4, master_seed=13)
        outs = []
        for threads in (1, 2, 4):
            out = tmp_path / f"t{threads}.csv"
            write_result(run_pointwise(cfg, threads=threads), str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_wrong_experiment_rejected(self):
        cfg = make_cfg(experiment="uniform")
        with pytest.raises(ConfigError):
            run_pointwise(cfg)


class TestRunUniform:
    def test_single_input_is_single_record(self):
        cfg = make_cfg(experiment="uniform", n=4, m_grid="200", inputs=1, master_seed=8)
        res = run_uniform(cfg)
        assert len(res.records) == 1
        assert res.records[0].trial == 0

    def test_running_max_matches_errors(self):
        cfg = make_cfg(experiment="uniform", n=4, m_grid="300", inputs=12, master_seed=8)
        res = run_uniform(cfg)
        errors = [r.error for r in sorted(res.records, key=lambda r: r.trial)]
        max_table = next(t for t in res.tables if t.name == "max")
        running = np.maximum.accumulate(errors)
        assert [row[2] for row in max_table.rows] == pytest.approx(list(running))

    def test_hamming_gap_recorded(self):
        cfg = make_cfg(experiment="uniform", n=4, m_grid="300", inputs=5, master_seed=8)
        res = run_uniform(cfg)
        for rec in res.records:
            assert rec.hamming_gap is not None
            # measurement distance between signal and estimate stays near
            # the operator distance, so the gap is small
            assert -1.0 <= rec.hamming_gap <= 1.0

    def test_input_prefix_stability(self):
        # 4 and 9 inputs share one 128-signal block. 129 and 300 end on a
        # partial block, whose rows are those of the 700-input run only if
        # every product of signal rows has the shape of a whole block.
        def run(inputs, **params):
            return run_uniform(make_cfg(experiment="uniform", inputs=inputs, **params))

        block = dict(field="real", n=2, m_grid="3000", master_seed=7)
        cases = [
            (run(4, n=4, m_grid="200", master_seed=2), run(9, n=4, m_grid="200", master_seed=2)),
            *((run(inputs, **block), run(700, **block)) for inputs in (129, 300)),
        ]
        for small, large in cases:
            assert large.records[: len(small.records)] == small.records
            assert large.tables[1].rows[: len(small.records)] == small.tables[1].rows

    def test_bounds_table_inverts_uniform_requirement(self):
        from bitretrieve.theory import uniform_m

        cfg = make_cfg(experiment="uniform", n=4, m_grid="500", inputs=1, bound_D=2.0)
        res = run_uniform(cfg)
        m, delta = res.tables[0].rows[0]
        assert uniform_m(cfg.field, cfg.n, delta + 1e-5, cfg.bound_D) <= m


class TestRunNoise:
    def test_tau_zero_noisy_equals_clean(self):
        cfg = make_cfg(experiment="noise", n=4, m_grid="400", trials=3, tau=0.0, master_seed=4)
        res = run_noise(cfg)
        table = res.tables[0]
        for row in table.rows:
            assert row[2] == row[3]

    def test_noise_table_layout(self):
        cfg = make_cfg(
            experiment="noise", n=4, m_grid="400", trials=2, tau=0.1, delta=0.5, master_seed=4
        )
        res = run_noise(cfg)
        table = res.tables[0]
        assert table.header == (
            "trial",
            "m",
            "clean_error",
            "noisy_error",
            "bound",
            "clean_qdev",
            "flip_mode",
        )
        for row in table.rows:
            assert row[6] == "random"
            assert row[4] > 0

    def test_greedy_hurts_at_least_as_often_as_random(self):
        trials = 40
        base = dict(
            experiment="noise", n=4, m_grid="2000", trials=trials, tau=0.05, delta=0.5, master_seed=6
        )
        random_res = run_noise(make_cfg(**base, flip_mode="random"))
        greedy_res = run_noise(make_cfg(**base, flip_mode="greedy"))
        wins = sum(
            g.error >= r.error
            for g, r in zip(greedy_res.records, random_res.records)
        )
        assert wins >= trials // 2

    def test_records_hold_noisy_error(self):
        cfg = make_cfg(
            experiment="noise", n=4, m_grid="500", trials=2, tau=0.2, delta=0.5, master_seed=4
        )
        res = run_noise(cfg)
        table = res.tables[0]
        for rec, row in zip(res.records, table.rows):
            assert rec.error == row[3]


class TestTheoryLines:
    def test_contains_all_fields(self):
        lines = theory_lines(R, 8, 0.1, 3.0, 0.05)
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys == [
            "field",
            "n",
            "mu1",
            "mu2",
            "gap",
            "gap_lower",
            "gap_upper",
            "pointwise_m",
            "uniform_m",
            "noisy_error_bound",
        ]
        mapping = dict(line.split("=", 1) for line in lines)
        assert mapping["pointwise_m"] == "185309"
        assert float(mapping["mu1"]) == pytest.approx(0.63671875)

    def test_bounds_none_below_threshold(self):
        mapping = dict(line.split("=", 1) for line in theory_lines(R, 2, 0.5, 1.0, 0.0))
        assert mapping["gap_lower"] == "none"


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "bitretrieve", *args],
            capture_output=True,
            text=True,
        )

    def test_import_leaves_out_scipy_stats(self, tmp_path):
        # scipy.special alone would add about 0.25 s and 26 MB to every
        # run's startup; only the diagnostics load it. No scipy module may
        # be loaded by the import, nor by a run of any other experiment.
        code = f"""
import contextlib, io, sys
from bitretrieve.cli import main

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

print(scipy_modules())
tiny = ["--field", "real", "--n", "2", "--m-grid", "40", "--trials", "1", "--inputs", "3",
        "--out", {str(tmp_path / "x.csv")!r}]
runs = [["pointwise", *tiny], ["uniform", *tiny], ["noise", "--flip-mode", "greedy", *tiny],
        ["theory"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes)
print(scipy_modules())
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[0, 0, 0, 0]", "[]"]

    def test_theory_subcommand(self):
        proc = self.run_cli("theory", "--field", "real", "--n", "8", "--delta", "0.1", "--bound-D", "3")
        assert proc.returncode == 0
        assert "pointwise_m=185309" in proc.stdout

    def test_pointwise_run_writes_files(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CONFIG_TEXT.replace("output_path = out.csv", f"output_path = {tmp_path}/res.csv"))
        proc = self.run_cli("pointwise", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        body = (tmp_path / "res.csv").read_text().splitlines()
        assert body[0] == ",".join(CSV_HEADER)
        assert len(body) == 5
        assert (tmp_path / "res.bounds.csv").exists()

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CONFIG_TEXT)
        out = tmp_path / "cli.csv"
        proc = self.run_cli("pointwise", "--config", str(cfg), "--trials", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 3

    def test_bad_config_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("experiment = pointwise\nwibble = 3\n")
        proc = self.run_cli("pointwise", "--config", str(cfg))
        assert proc.returncode == 2
        assert "wibble" in proc.stderr

    def test_missing_config_file_exits_two(self):
        proc = self.run_cli("pointwise", "--config", "/nonexistent/q.txt")
        assert proc.returncode == 2

    def test_invalid_cli_value_exits_two(self):
        proc = self.run_cli("theory", "--n", "1", "--field", "real")
        assert proc.returncode == 2  # the gap degenerates at real n = 1


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail the test if any ensemble block is drawn: `_frame_blocks` is the
    runners' only way to sample one."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an ensemble was sampled although the bound is undefined")

    monkeypatch.setattr(experiments, "_frame_blocks", forbidden)


RUNNERS = [(run_pointwise, "pointwise"), (run_uniform, "uniform"), (run_noise, "noise")]
EXPERIMENTS = [experiment for _, experiment in RUNNERS]


class TestFailFast:
    # The gap is zero at n = 1 over either field.
    @pytest.mark.parametrize(
        "runner, experiment, field",
        [(*pair, "real") for pair in RUNNERS] + [(*pair, "complex") for pair in RUNNERS],
        ids=[f"{r.__name__}-{e}" for r, e in RUNNERS]
        + [f"{r.__name__}-{e}-complex" for r, e in RUNNERS],
    )
    def test_undefined_bound_raises_before_sampling(self, no_sampling, runner, experiment, field):
        cfg = make_cfg(experiment=experiment, field=field, n=1, m_grid="50", trials=2, inputs=2)
        with pytest.raises(InvalidInput, match="gap is zero"):
            runner(cfg)


class TestExitCodes:
    ARGV = ["pointwise", "--field", "real", "--n", "2", "--m-grid", "40", "--trials", "1"]

    def test_success_exits_zero(self, tmp_path):
        out = tmp_path / "ok.csv"
        assert main([*self.ARGV, "--out", str(out)]) == 0
        assert out.exists()

    def test_check_failure_exits_one(self, monkeypatch, tmp_path, capsys):
        def failing(cfg, threads=1):
            raise CheckFailure("noisy error exceeds bound")

        monkeypatch.setattr(cli, "run_experiment", failing)
        assert main([*self.ARGV, "--out", str(tmp_path / "x.csv")]) == 1
        assert "check failure: noisy error exceeds bound" in capsys.readouterr().err

    def test_eigensolver_failure_exits_one(self, monkeypatch, tmp_path, capsys):
        # Perturbed eigenvectors miss the residual check, whichever path of
        # the library asks for the eigensolve.
        eigh = np.linalg.eigh

        def perturbed(mats):
            vals, vecs = eigh(mats)
            return vals, vecs + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        assert main([*self.ARGV, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "eigendecomposition residual" in err
        assert "Traceback" not in err

    def test_uniform_eigensolver_residual_exits_one(self, monkeypatch, tmp_path, capsys):
        eigh = np.linalg.eigh

        def perturbed(mats):
            vals, vecs = eigh(mats)
            return vals, vecs + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        argv = ["uniform", "--field", "real", "--n", "2", "--m-grid", "40", "--inputs", "3"]
        with pytest.raises(ArithmeticError, match="eigendecomposition residual"):
            run_uniform(make_cfg(experiment="uniform", n=2, m_grid="40", inputs=3))
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
        assert "eigendecomposition residual" in capsys.readouterr().err

    def test_undefined_bound_exits_two_before_sampling(self, no_sampling, tmp_path, capsys):
        argv = ["pointwise", "--field", "real", "--n", "1", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert "gap is zero" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "experiment, target, refused",
        [(e, "missing/x.csv", "missing/x.csv") for e in EXPERIMENTS]
        + [(e, "directory", "directory") for e in EXPERIMENTS]
        + [(e, "r.csv", f"r.{_AUX_TABLES[e][-1]}.csv") for e in EXPERIMENTS],
        ids=EXPERIMENTS
        + [f"{e}-directory" for e in EXPERIMENTS]
        + [f"{e}-aux-directory" for e in EXPERIMENTS],
    )
    def test_unwritable_output_exits_two_before_sampling(
        self, experiment, target, refused, no_sampling, tmp_path, capsys
    ):
        # A missing directory, and an output path or an auxiliary table's
        # path that is a directory, used to be found only when the CSVs were
        # written, after every trial had run.
        made = sorted({"directory", refused} - {"missing/x.csv"})
        for name in made:
            (tmp_path / name).mkdir()
        argv = [experiment, "--field", "real", "--n", "2", "--m-grid", "40", "--trials", "1"]
        assert main([*argv, "--inputs", "3", "--out", str(tmp_path / target)]) == 2
        assert f"cannot write CSV to {str(tmp_path / refused)!r}" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.rglob("*")) == made

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_two(self, threads, no_sampling, tmp_path, capsys):
        # Both used to run as one thread without a word.
        out = tmp_path / "x.csv"
        assert main([*self.ARGV, "--threads", threads, "--out", str(out)]) == 2
        assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["pointwise", "--m-grid", f"100,{2**32}"],
            ["noise", "--m-grid", f"100,{2**32}"],
            ["uniform", "--m-grid", f"100,{2**32}"],
            ["pointwise", "--m-grid", "100", "--trials", str(2**32 + 1)],
            ["uniform", "--m-grid", "100", "--inputs", str(2**32 + 1)],
        ],
        ids=["pointwise-m", "noise-m", "uniform-m", "trials", "inputs"],
    )
    def test_seed_path_index_past_32_bits_exits_two(
        self, argv, no_sampling, monkeypatch, tmp_path, capsys
    ):
        # Each of these used to start the run, and sample the units below
        # the bound, before SeedStream rejected a path index of 2^32. No
        # signal may be drawn either: 2^32 + 1 trials or inputs would never end.
        def forbidden(*args):
            raise AssertionError("a signal was drawn although the config is out of bounds")

        monkeypatch.setattr(experiments, "sample_unit_vector", forbidden)
        out = tmp_path / "x.csv"
        assert main([*argv, "--field", "real", "--n", "2", "--out", str(out)]) == 2
        assert "2^32" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["pointwise", "--m-grid", "40", "--trials", "1", "--bound-D", "nan"], "bound_D"),
            (["pointwise", "--m-grid", "40", "--trials", "1", "--bound-D", "inf"], "bound_D"),
            (["noise", "--m-grid", "40", "--trials", "1", "--delta", "inf"], "delta"),
            (["theory", "--bound-D", "nan"], "bound_D"),
            (["theory", "--bound-D", "inf"], "bound_D"),
            (["uniform", "--m-grid", "40", "--inputs", "3", "--bound-D", "nan"], "bound_D"),
        ],
        ids=["pointwise-D-nan", "pointwise-D-inf", "noise-delta-inf", "theory-D-nan",
             "theory-D-inf", "uniform-D-nan"],
    )
    def test_non_finite_delta_or_bound_exits_two(self, argv, key, no_sampling, tmp_path, capsys):
        # A nan or infinite D or delta used to run (writing a nan or inf
        # bound, or a noise gate that never fires), crash with a traceback,
        # or exit with a message that named no key.
        out = tmp_path / "x.csv"
        assert main([*argv, "--field", "real", "--n", "2", "--out", str(out)]) == 2
        assert f"config error at '{key}'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_two(self, seed, no_sampling, tmp_path, capsys):
        # Masked to 64 bits, -1 would silently run as seed 2**64 - 1.
        out = tmp_path / "x.csv"
        assert main([*self.ARGV, "--seed", seed, "--out", str(out)]) == 2
        assert "master seed must lie in [0, 2^64)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--n", "four", "n"),
            ("--n", "08", "n"),
            ("--trials", "1.5", "trials"),
            ("--inputs", "x", "inputs"),
            ("--delta", "x", "delta"),
            ("--bound-D", "x", "bound_D"),
            ("--tau", "x", "tau"),
            ("--seed", "x", "master_seed"),
            ("--flip-mode", "evil", "flip_mode"),
        ],
    )
    def test_malformed_flag_value_exits_two(self, flag, value, key, no_sampling, tmp_path, capsys):
        # argparse used to parse these flags itself and exit through
        # SystemExit, naming no config key; "08" it read as 8.
        out = tmp_path / "x.csv"
        argv = ["noise", "--field", "real", "--n", "2", "--m-grid", "40", "--trials", "1"]
        assert main([*argv, flag, value, "--out", str(out)]) == 2
        assert f"config error at '{key}'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_flag_integers_read_as_in_a_config_file(self, tmp_path):
        hex_out, dec_out = tmp_path / "hex.csv", tmp_path / "dec.csv"
        assert main([*self.ARGV, "--seed", "0x10", "--out", str(hex_out)]) == 0
        assert main([*self.ARGV, "--seed", "16", "--out", str(dec_out)]) == 0
        assert hex_out.read_bytes() == dec_out.read_bytes()

    def test_m_grid_flag_read_as_the_other_integers(self, tmp_path, capsys):
        hex_out, dec_out = tmp_path / "hex.csv", tmp_path / "dec.csv"
        argv = ["pointwise", "--field", "real", "--n", "2", "--trials", "1"]
        assert main([*argv, "--m-grid", "0x28", "--out", str(hex_out)]) == 0
        assert main([*argv, "--m-grid", "40", "--out", str(dec_out)]) == 0
        assert hex_out.read_bytes() == dec_out.read_bytes()
        assert main([*argv, "--m-grid", "08", "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error at 'm_grid'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_experiment_word_is_case_insensitive_on_the_command_line(self, capsys):
        # argparse's choices used to refuse "Theory", which a config file's
        # experiment = Theory selects.
        assert main(["Theory", "--field", "real", "--n", "2"]) == 0
        assert "uniform_m=3579352" in capsys.readouterr().out

    def test_non_ascii_config_file_exits_two(self, tmp_path, capsys):
        # The ASCII decode used to escape as a UnicodeDecodeError traceback.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 2 # \u03b4\n", encoding="utf-8")
        assert main(["theory", "--config", str(cfg)]) == 2
        assert "config error at 'config'" in capsys.readouterr().err

    def test_repeated_config_key_exits_two_before_sampling(self, no_sampling, tmp_path, capsys):
        # A file setting n twice used to run the last value.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 4\nn = 8\n")
        argv = ["pointwise", "--config", str(cfg), "--m-grid", "40", "--trials", "1"]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error at 'line 2'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_unknown_experiment_exits_two_with_the_key(self, no_sampling, capsys):
        # argparse used to exit through SystemExit, naming no config key.
        assert main(["bogus"]) == 2
        assert "config error at 'experiment'" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_run_writes_the_aux_tables_checked_before_it(experiment):
    cfg = make_cfg(experiment=experiment, n=2, m_grid="40", trials=1, inputs=3)
    result = run_experiment(cfg)
    assert tuple(table.name for table in result.tables) == _AUX_TABLES[experiment]


def test_parser_has_one_flag_per_config_key():
    actions = [a for a in cli.build_parser()._actions if a.option_strings and a.dest != "help"]
    keys = [key for key in experiments._CONFIG_KEYS if key != "experiment"]
    assert sorted(a.dest for a in actions) == sorted([*keys, "config", "threads"])
    flags = {a.dest: a.option_strings for a in actions}
    assert flags["master_seed"] == ["--seed"] and flags["output_path"] == ["--out"]


@pytest.mark.parametrize("experiment", ["pointwise", "uniform", "noise"])
def test_runners_hand_their_units_to_the_module_pool_map(experiment, monkeypatch):
    # perfbench's child replaces experiments._pool_map to time setup_s, and
    # fails every benchmark run if a runner never calls it: each runner must
    # look the name up in the module when it runs.
    handed = []
    pool_map = experiments._pool_map

    def spy(worker, units, threads):
        handed.append(list(units))
        return pool_map(worker, units, threads)

    monkeypatch.setattr(experiments, "_pool_map", spy)
    cfg = make_cfg(experiment=experiment, n=2, m_grid="40,60", trials=2, inputs=3)
    experiments.run_experiment(cfg)
    fixed_signal = [(t, m) for t in range(2) for m in (40, 60)]
    assert handed == [[40, 60] if experiment == "uniform" else fixed_signal]


class TestBlasThreads:
    def test_run_holds_one_blas_thread_and_restores_the_callers(self, monkeypatch):
        threads = experiments._openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS is not the bundled OpenBLAS")
        get, set_ = threads
        seen = []
        runner = experiments.run_pointwise

        def spy(cfg, threads=1):
            seen.append(get())
            return runner(cfg, threads)

        monkeypatch.setattr(experiments, "run_pointwise", spy)
        caller = get()
        set_(2)
        try:
            experiments.run_experiment(make_cfg(n=2, m_grid="40", trials=1))
            after = get()
        finally:
            set_(caller)
        assert seen == [1] and after == 2

    def test_unknown_blas_runs_with_one_stderr_line(self, monkeypatch, capsys):
        cfg = make_cfg(n=2, m_grid="40", trials=1)
        expected = experiments.run_experiment(cfg).records
        capsys.readouterr()
        monkeypatch.setattr(experiments, "_openblas_threads", lambda: None)
        assert experiments.run_experiment(cfg).records == expected
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "BLAS" in err


class TestMallocThresholds:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
    def test_cli_run_keeps_its_freed_pages(self, tmp_path):
        # A real n = 16 unit frees and allocates its QR buffers again on every
        # slice. At glibc's dynamic thresholds they go back to the kernel each
        # time: this call took about 106 k minor faults, start-up included.
        # At the CLI's fixed thresholds it took 7.5 k.
        import resource

        argv = ["pointwise", "--field", "real", "--n", "16", "--m-grid", "50000", "--trials", "1"]
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        proc = subprocess.run(
            [sys.executable, "-m", "bitretrieve", *argv, "--out", str(tmp_path / "r.csv")],
            capture_output=True,
            text=True,
        )
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
        assert proc.returncode == 0, proc.stderr
        assert faults < 30_000, faults

    def test_cli_holds_the_process_to_one_malloc_arena(self, monkeypatch, capsys):
        # M_ARENA_MAX (-8) = 1: the worker threads share the main heap, so no
        # thread keeps freed pages in an arena of its own after a run.
        calls = []

        def mallopt(option, value):
            calls.append((option, value))
            return 1

        libc = SimpleNamespace(mallopt=mallopt)
        fake = SimpleNamespace(CDLL=lambda name: libc, c_int=ctypes.c_int)
        monkeypatch.setattr(cli, "ctypes", fake)
        assert main(["theory", "--n", "2"]) == 0
        assert calls == [(-3, 32 << 20), (-1, 64 << 20), (-8, 1)]

    def test_run_without_mallopt_writes_the_same_bytes(self, monkeypatch, tmp_path):
        # Only cli's own name for ctypes is replaced: experiments reaches the
        # BLAS through ctypes.CDLL too.
        argv = ["pointwise", "--field", "real", "--n", "2", "--m-grid", "40,2000", "--trials", "2"]
        assert main([*argv, "--out", str(tmp_path / "a.csv")]) == 0
        opened = []

        def cdll(name):
            opened.append(name)
            return SimpleNamespace()  # a C library without mallopt

        monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=cdll))
        assert main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
        assert opened == [None]
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


@pytest.mark.parametrize("n", [3, 8, 32, 64, 128])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_eigen_pair_cells_hold_the_whole_mass(field, n):
    # Every n here runs the chi-square fit. Over R the density has a kink on
    # the diagonal: a Gauss rule over the whole diagonal cells lost 2.2e-5
    # of the mass at n = 3, 5.5e-5 at n = 8 and 3.9e-4 at n = 64, and the
    # pooled bucket took all of it.
    cfg = load_config(experiment="diagnostics", overrides={"field": field, "n": n})
    probs = experiments._eigen_pair_cell_probs(cfg, 6)
    assert abs(probs.sum() - 1.0) <= 1e-8, probs.sum()
