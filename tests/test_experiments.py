import subprocess
import sys

import numpy as np
import pytest

from bitretrieve import cli, experiments, recovery
from bitretrieve.cli import main
from bitretrieve.core import FieldKind, InvalidInput
from bitretrieve.experiments import (
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
        small = run_uniform(make_cfg(experiment="uniform", n=4, m_grid="200", inputs=4, master_seed=2))
        large = run_uniform(make_cfg(experiment="uniform", n=4, m_grid="200", inputs=9, master_seed=2))
        assert large.records[: len(small.records)] == small.records

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
    """Fail the test if any ensemble is drawn."""

    def forbidden(*args, **kwargs):
        raise AssertionError("sample_ensemble ran although the bound is undefined")

    monkeypatch.setattr(experiments, "sample_ensemble", forbidden)


class TestFailFast:
    @pytest.mark.parametrize(
        "runner, experiment",
        [(run_pointwise, "pointwise"), (run_uniform, "uniform"), (run_noise, "noise")],
    )
    def test_undefined_bound_raises_before_sampling(self, no_sampling, runner, experiment):
        cfg = make_cfg(experiment=experiment, n=1, m_grid="50", trials=2, inputs=2)
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
        def failing(h):
            raise ArithmeticError("eigendecomposition residual 1.0e-03 exceeds tolerance")

        monkeypatch.setattr(recovery, "principal_eigenpair", failing)
        assert main([*self.ARGV, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "eigendecomposition residual" in err
        assert "Traceback" not in err

    def test_undefined_bound_exits_two_before_sampling(self, no_sampling, tmp_path, capsys):
        argv = ["pointwise", "--field", "real", "--n", "1", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert "gap is zero" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
