import json
import subprocess
import sys

import numpy as np
import pytest

from dybm.checkpoint import load_checkpoint, save_checkpoint
from dybm.cli import main
from dybm.config import ModelConfig, Parameters
from dybm.fixtures import period4_path, period4_run_path, random_n3_path, random_n3_run_path
from dybm.seriesio import parse_series


def run_cli(*argv):
    """Invoke the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "dybm", *map(str, argv)],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """Checkpoint from a short training run on the period-4 fixture."""
    out = tmp_path_factory.mktemp("model") / "model.json"
    code, stdout, stderr = run_cli(
        "train", period4_run_path(), period4_path(), "--out", out, "--epochs", "150"
    )
    assert code == 0, stderr
    return out, stdout


class TestTrain:
    def test_metrics_stream_and_improvement(self, trained_model):
        _, stdout = trained_model
        records = [json.loads(line) for line in stdout.strip().splitlines()]
        assert len(records) == 150
        assert records[-1]["log_likelihood"] > records[0]["log_likelihood"]
        for rec in records[:3]:
            assert set(rec) == {"epoch", "step", "log_likelihood", "grad_norm", "wall_ms"}

    def test_multiple_series_files(self, tmp_path):
        # traces reset per series; several CSVs train like a dataset
        import numpy as np

        from dybm.seriesio import write_series

        rng = np.random.default_rng(13)
        paths = []
        for idx in range(2):
            path = tmp_path / f"s{idx}.csv"
            write_series(path, (rng.random((10, 3)) < 0.5).astype(int))
            paths.append(path)
        out = tmp_path / "m.json"
        code, stdout, stderr = run_cli(
            "train", random_n3_run_path(), *paths, "--out", out, "--epochs", "20"
        )
        assert code == 0, stderr
        records = [json.loads(line) for line in stdout.strip().splitlines()]
        assert records[0]["step"] == 20  # both series consumed per epoch
        assert out.exists()

    def test_zero_epochs_writes_zero_parameters(self, tmp_path):
        out = tmp_path / "zero.json"
        code, _, _ = run_cli(
            "train", period4_run_path(), period4_path(), "--out", out, "--epochs", "0"
        )
        assert code == 0
        params, _, _ = load_checkpoint(out.read_text())
        assert np.all(params.bias == 0.0)
        assert np.all(params.u == 0.0)
        assert np.all(params.v == 0.0)

    def test_invalid_csv_value_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("u0,u1\n0,2\n")
        out = tmp_path / "m.json"
        code, _, stderr = run_cli("train", period4_run_path(), bad, "--out", out)
        assert code == 2
        assert "row 2" in stderr and "column 1" in stderr

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "config": {
                        "n_units": 2,
                        "temperature": 1.0,
                        "lambdas": [0.5],
                        "mus": [1.0],
                        "connectivity": [[0, 1, 2]],
                    }
                }
            )
        )
        code, _, stderr = run_cli("train", cfg, period4_path(), "--out", tmp_path / "m.json")
        assert code == 2
        assert "mus" in stderr

    def test_divergent_learning_rate_exits_3(self, tmp_path):
        out = tmp_path / "m.json"
        code, _, stderr = run_cli(
            "train",
            period4_run_path(),
            period4_path(),
            "--out",
            out,
            "--learning-rate",
            "1e8",
            "--mode",
            "online",
            "--epochs",
            "3",
        )
        assert code == 3
        assert "epoch" in stderr

    def test_non_finite_update_exits_3(self, tmp_path):
        # a full-batch step overflows to inf before the magnitude guard
        cfg = tmp_path / "steep.json"
        cfg.write_text(
            json.dumps(
                {
                    "config": {
                        "n_units": 1,
                        "lambdas": [0.5],
                        "mus": [0.1],
                        "temperature": 0.01,
                        "connectivity": [[0, 0, 300]],
                    },
                    "trainer": {"mode": "full_batch", "learning_rate": 1e8, "epochs": 5},
                }
            )
        )
        data = tmp_path / "ones.csv"
        data.write_text("u0\n" + "1\n" * 300)
        code, _, stderr = run_cli("train", cfg, data, "--out", tmp_path / "m.json")
        assert code == 3
        assert "epoch" in stderr
        assert "RuntimeWarning" not in stderr


class TestEval:
    def test_zero_param_model_scores_ln2(self, tmp_path):
        cfg = ModelConfig.dense(2)
        model_path = tmp_path / "zero.json"
        model_path.write_text(save_checkpoint(Parameters.zeros(cfg), cfg))
        code, stdout, _ = run_cli("eval", model_path, period4_path())
        assert code == 0
        scores = json.loads(stdout)
        assert scores["nll_per_bit"] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_trained_model_is_accurate_on_fixture(self, trained_model):
        model_path, _ = trained_model
        code, stdout, _ = run_cli("eval", model_path, period4_path())
        assert code == 0
        scores = json.loads(stdout)
        assert scores["accuracy"] == 1.0
        assert scores["log_likelihood"] < 0.0

    def test_mismatched_units_exit_2(self, trained_model):
        model_path, _ = trained_model
        code, _, stderr = run_cli("eval", model_path, random_n3_path())
        assert code == 2
        assert "units" in stderr

    def test_checkpoint_interchange_matches_in_process_eval(self, trained_model):
        # scoring a written checkpoint through the CLI must agree with the
        # in-process result to the last bit
        from dybm.generator import eval_prediction
        from dybm.seriesio import read_series

        model_path, _ = trained_model
        code, stdout, _ = run_cli("eval", model_path, period4_path())
        assert code == 0
        cli_scores = json.loads(stdout)
        params, config, _ = load_checkpoint(model_path.read_text())
        scores = eval_prediction(params, config, read_series(period4_path()))
        assert cli_scores["log_likelihood"] == scores.log_likelihood
        assert cli_scores["nll_per_bit"] == scores.nll_per_bit
        assert cli_scores["accuracy"] == scores.accuracy


class TestGenerate:
    def test_argmax_reproducible_and_wellformed(self, trained_model):
        model_path, _ = trained_model
        code, stdout, _ = run_cli(
            "generate", model_path, "--horizon", "12", "--mode", "argmax",
            "--primer", period4_path(),
        )
        assert code == 0
        series = parse_series(stdout)
        assert series.shape == (12, 2)

    def test_sample_seed_reproducible(self, trained_model):
        model_path, _ = trained_model
        a = run_cli("generate", model_path, "--horizon", "30", "--seed", "9")
        b = run_cli("generate", model_path, "--horizon", "30", "--seed", "9")
        c = run_cli("generate", model_path, "--horizon", "30", "--seed", "10")
        assert a[0] == b[0] == c[0] == 0
        assert a[1] == b[1]
        assert a[1] != c[1]

    def test_bad_flags_exit_2(self, trained_model):
        model_path, _ = trained_model
        code, _, _ = run_cli("generate", model_path, "--horizon", "0")
        assert code == 2


class TestValidate:
    def test_passes_and_prints_reports(self):
        code, stdout, _ = run_cli("validate", "--seed", "0")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)
        assert all("max error" in line for line in lines)

    def test_same_seed_same_report(self):
        a = run_cli("validate", "--seed", "5")
        b = run_cli("validate", "--seed", "5")
        assert a[1] == b[1]


class TestKernelDump:
    def test_curves_match_expand_weights(self, tmp_path):
        cfg = ModelConfig(2, (0.5,), (0.5,), {(0, 1): 2, (1, 0): 2})
        params = Parameters.zeros(cfg)
        params.u[cfg.pair_index[(0, 1)], 0] = 1.0
        params.v[cfg.pair_index[(1, 0)], 0] = 1.0
        model_path = tmp_path / "m.json"
        model_path.write_text(save_checkpoint(params, cfg))
        code, stdout, _ = run_cli(
            "kernel-dump", model_path, "--pre", "0", "--post", "1", "--max-delta", "6"
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "delta,w_forward,w_reverse,w_total"
        rows = {int(l.split(",")[0]): [float(x) for x in l.split(",")[1:]] for l in lines[1:]}
        # worked example: at the delay, total = 1 - 0.25 = 0.75
        assert rows[2] == [1.0, -0.25, 0.75]
        # the jump at the delay: near-window branch just before, arrival at it
        assert rows[1][0] == 0.0  # u branch absent below delay when v=0 on (0,1)
        assert rows[2][0] == 1.0

    def test_unconnected_pair_exits_2(self, tmp_path):
        cfg = ModelConfig(2, (0.5,), (0.5,), {(0, 1): 2})
        model_path = tmp_path / "m.json"
        model_path.write_text(save_checkpoint(Parameters.zeros(cfg), cfg))
        code, _, stderr = run_cli(
            "kernel-dump", model_path, "--pre", "1", "--post", "0", "--max-delta", "4"
        )
        assert code == 2
        assert "not connected" in stderr

    def test_zero_model_gives_zero_curves(self, tmp_path):
        cfg = ModelConfig.dense(2)
        model_path = tmp_path / "m.json"
        model_path.write_text(save_checkpoint(Parameters.zeros(cfg), cfg))
        code, stdout, _ = run_cli(
            "kernel-dump", model_path, "--pre", "0", "--post", "1", "--max-delta", "5"
        )
        assert code == 0
        for line in stdout.strip().splitlines()[1:]:
            assert [float(x) for x in line.split(",")[1:]] == [0.0, 0.0, 0.0]


class TestBench:
    def test_counts_match_formulas(self):
        code, stdout, _ = run_cli(
            "bench", "--sizes", "8,16", "--fan-in", "3", "--steps", "30"
        )
        assert code == 0
        report = json.loads(stdout)
        assert len(report["sweep"]) == 2
        for entry in report["sweep"]:
            n, m = entry["n_units"], entry["pairs"]
            assert m == n * 3
            assert entry["trace_scalars"]["measured"] == entry["trace_scalars"]["expected"] == m + n
            assert entry["param_scalars"]["measured"] == entry["param_scalars"]["expected"] == 2 * m + n
            assert entry["queue_bits"]["measured"] == entry["queue_bits"]["expected"] == 2 * m
            assert entry["per_synapse_update_us"] > 0


class TestInProcessMain:
    def test_main_returns_codes(self, tmp_path, capsys):
        # in-process entry point used by library callers
        code = main(["validate", "--seed", "0"])
        assert code == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["eval", str(tmp_path / "nope.json"), str(period4_path())])
        assert code == 2


class TestExitCodes:
    # bad input or configuration exits 2 with an error line, never an
    # uncaught traceback (which would exit 1, the validation-failure code)
    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--sizes", "8", "--steps", "0"],
            ["bench", "--sizes", "8", "--fan-in", "0"],
            ["eval", "{tmp}", "{data}"],
            ["train", "{tmp}", "{data}", "--out", "{tmp}/m.json"],
        ],
        ids=["bench-zero-steps", "bench-zero-fan-in", "eval-directory-model", "train-directory-config"],
    )
    def test_bad_input_exits_2(self, argv, tmp_path, capsys):
        code = main([arg.format(tmp=tmp_path, data=period4_path()) for arg in argv])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
