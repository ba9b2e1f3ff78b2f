import json
import subprocess
import sys

import numpy as np
import pytest

from dybm import cli
from dybm.checkpoint import load_checkpoint, save_checkpoint
from dybm.cli import main
from dybm.config import ModelConfig, Parameters
from dybm.fixtures import period4_path, period4_run_path, random_n3_path, random_n3_run_path
from dybm.learning import TrainerConfig, train
from dybm.model import advance, init_state, measured_footprint
from dybm.seriesio import parse_series, read_series

_MISSING = object()


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

    def test_missing_trainer_section_uses_file_defaults(self, tmp_path):
        # no trainer section: one full-batch epoch at learning rate 0.001
        doc = json.loads(period4_run_path().read_text())
        del doc["trainer"]
        run = tmp_path / "run.json"
        run.write_text(json.dumps(doc))
        out = tmp_path / "m.json"
        code, stdout, stderr = run_cli("train", run, period4_path(), "--out", out)
        assert code == 0, stderr
        assert "mode=full_batch, learning_rate=0.001, epochs=1" in stderr
        assert len(stdout.strip().splitlines()) == 1
        _, config, _ = load_checkpoint(out.read_text())
        series = read_series(period4_path())
        params, _ = train(Parameters.zeros(config), config, [series], TrainerConfig(1e-3, 1))
        assert out.read_text() == save_checkpoint(params, config)

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

    def test_overflowing_gradient_norm_prints_no_numpy_warning(self, tmp_path):
        # near-window coefficients up to 1e299 square past the double range
        cfg = tmp_path / "steep.json"
        cfg.write_text(
            json.dumps(
                {
                    "config": {
                        "n_units": 1,
                        "lambdas": [0.5],
                        "mus": [0.1],
                        "temperature": 1.0,
                        "connectivity": [[0, 0, 300]],
                    },
                    "trainer": {"mode": "full_batch", "learning_rate": 1e-300, "epochs": 1},
                }
            )
        )
        data = tmp_path / "ones.csv"
        data.write_text("u0\n" + "1\n" * 310)
        code, _, stderr = run_cli("train", cfg, data, "--out", tmp_path / "m.json")
        assert code == 2
        assert stderr.splitlines() == [
            "training on 1 series, mode=full_batch, learning_rate=1e-300, epochs=1",
            "error: grad_norm is inf, which JSON output cannot hold",
        ]

    def test_subnormal_temperature_prints_no_numpy_warning(self, tmp_path):
        doc = json.loads(random_n3_run_path().read_text(encoding="utf-8"))
        doc["config"]["temperature"] = 1e-320
        cfg = tmp_path / "cold.json"
        cfg.write_text(json.dumps(doc))
        code, _, stderr = run_cli("train", cfg, random_n3_path(), "--out", tmp_path / "m.json")
        assert code == 3
        assert stderr.splitlines() == [
            "training on 1 series, mode=full_batch, learning_rate=0.001, epochs=200",
            "error: update produced non-finite bias at epoch 0, step 48; training aborted",
        ]


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
        assert len(lines) == 5
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


class TestStrictJson:
    def test_non_finite_eval_exits_2(self, tmp_path):
        # a valid config and parameters whose log-likelihood over-runs to -inf:
        # the JSON printed would not parse as JSON, so nothing is printed
        config = ModelConfig(1, (0.5,), (0.5,), {(0, 0): 1023})
        params = Parameters(bias=np.zeros(1), u=np.zeros((1, 1)), v=np.ones((1, 1)))
        model = tmp_path / "model.json"
        model.write_text(save_checkpoint(params, config))
        data = tmp_path / "ones.csv"
        data.write_text("u0\n" + "1\n" * 1100)
        code, stdout, stderr = run_cli("eval", model, data)
        assert (code, stdout) == (2, "")
        assert "error: log_likelihood is -inf" in stderr

    def test_non_finite_eval_in_process_prints_only_the_error(self, tmp_path, capsys):
        # the overflow behind the -inf raises no numpy warning, which the
        # error::RuntimeWarning filter would turn into a traceback out of main
        config = ModelConfig(1, (0.5,), (0.5,), {(0, 0): 1023})
        params = Parameters(bias=np.zeros(1), u=np.zeros((1, 1)), v=np.ones((1, 1)))
        model = tmp_path / "model.json"
        model.write_text(save_checkpoint(params, config))
        data = tmp_path / "ones.csv"
        data.write_text("u0\n" + "1\n" * 1100)
        assert main(["eval", str(model), str(data)]) == 2
        assert capsys.readouterr() == ("", "error: log_likelihood is -inf, which JSON output cannot hold\n")

    def test_a_nested_field_is_named(self):
        with pytest.raises(ValueError, match=r"^sweep\.1\.per_synapse_update_us is nan, "):
            cli._json({"sweep": [{"pairs": 1.5}, {"per_synapse_update_us": float("nan")}]}, cli._JSON_REPORT)


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
            assert entry["queue_bits"]["measured"] == entry["queue_bits"]["expected"] == 2 * n
            assert entry["per_synapse_update_us"] > 0

    def test_audited_state_has_absorbed_the_series(self, monkeypatch):
        # the state the footprint audit reads is the one after every timed slice
        audited = []

        def capture(state, params):
            audited.append(state)
            return measured_footprint(state, params)

        monkeypatch.setattr(cli, "measured_footprint", capture)
        argv = ["bench", "--sizes", "8,16", "--fan-in", "3", "--steps", "30", "--seed", "4"]
        assert main(argv) == 0
        assert len(audited) == 2
        for n, state in zip((8, 16), audited):
            config = cli._bench_config(n, 3)
            data = np.random.Generator(np.random.Philox(4)).random((30, n)) < 0.5
            want = init_state(config)
            for x in data.astype(np.int64):
                want = advance(want, config, x)
            assert state.step_count == 30
            for name in ("alpha", "gamma", "queue"):
                assert getattr(state, name).tobytes() == getattr(want, name).tobytes()


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
            ["bench", "--sizes", "8,x"],
            ["eval", "{tmp}", "{data}"],
            ["train", "{tmp}", "{data}", "--out", "{tmp}/m.json"],
            ["eval", "{deep}", "{data}"],
            ["train", "{deep}", "{data}", "--out", "{tmp}/m.json"],
            ["kernel-dump", "{model}", "--pre", "0", "--post", "1", "--max-delta", "0"],
        ],
        ids=["bench-zero-steps", "bench-zero-fan-in", "bench-bad-sizes", "eval-directory-model",
             "train-directory-config", "eval-deeply-nested-model", "train-deeply-nested-config",
             "kernel-dump-zero-max-delta"],
    )
    def test_bad_input_exits_2(self, argv, tmp_path, capsys):
        # nesting too deep for the JSON decoder is malformed input, not a RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        cfg = ModelConfig.dense(2)
        model = tmp_path / "model.json"
        model.write_text(save_checkpoint(Parameters.zeros(cfg), cfg))
        paths = {"tmp": tmp_path, "data": period4_path(), "deep": deep, "model": model}
        code = main([arg.format(**paths) for arg in argv])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_sizes_name_the_flag(self, capsys):
        assert main(["bench", "--sizes", "8,x"]) == 2
        assert "--sizes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes", ["", ",", "0", "8,-3", "1"], ids=["empty", "commas", "zero", "negative", "one"]
    )
    def test_sizes_below_two_name_the_flag(self, sizes, capsys):
        assert main(["bench", "--sizes", sizes]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --sizes")

    @pytest.mark.parametrize("sizes", ["8,0", "8,4"])
    def test_every_size_is_checked_before_timing(self, sizes, monkeypatch, capsys):
        def timed(*args):
            raise AssertionError("a size was timed before every size was checked")

        monkeypatch.setattr(cli, "train", timed)
        assert main(["bench", "--sizes", sizes, "--fan-in", "4"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("rollout", ["generate", "{model}", "--horizon", "3"]),
            ("train", ["bench", "--sizes", "8", "--steps", "3"]),
        ],
        ids=["generate", "bench"],
    )
    def test_out_of_memory_exits_2(self, target, argv, tmp_path, monkeypatch, capsys):
        # an allocation numpy refuses (a huge --horizon or --steps) is bad
        # input; the refusal is simulated, so no huge array is requested
        def refused(*args):
            raise MemoryError("Unable to allocate 1.46 TiB for an array")

        monkeypatch.setattr(cli, target, refused)
        cfg, model = ModelConfig.dense(2), tmp_path / "model.json"
        model.write_text(save_checkpoint(Parameters.zeros(cfg), cfg))
        assert main([arg.format(model=model) for arg in argv]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 1.46 TiB for an array\n"

    @pytest.mark.parametrize("command", ["bench", "validate"])
    def test_negative_seed_names_the_flag(self, command, capsys):
        assert main([command, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: --seed must be an integer >= 0")

    @pytest.mark.parametrize("mode", ["sample", "argmax"])
    def test_negative_seed_exits_2(self, mode, tmp_path, capsys):
        # argmax ignores the seed, but a bad one is still rejected
        cfg = ModelConfig.dense(2)
        model = tmp_path / "m.json"
        model.write_text(save_checkpoint(Parameters.zeros(cfg), cfg))
        code = main(["generate", str(model), "--horizon", "3", "--mode", mode, "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: seed must be an integer >= 0")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            pytest.param("config", "connectivity", [[0, 1, 2], [0, 1, 5]], id="duplicate-pair"),
            pytest.param("config", "connectivity", [[0, 1, 2.9]], id="fractional-delay"),
            pytest.param("config", "n_units", 2.7, id="fractional-n-units"),
            pytest.param("config", "connectivity", [["0", "1", 2]], id="string-indices"),
            pytest.param("config", "temperature", _MISSING, id="missing-temperature"),
            pytest.param("config", "temperature", 10**400, id="huge-temperature"),
            pytest.param("config", "lambdas", [10**400], id="huge-lambda"),
            pytest.param("config", "connectivity", [[0, 0, 10**400]], id="huge-delay"),
            pytest.param("trainer", "learning_rate", None, id="null-learning-rate"),
            pytest.param("trainer", "learning_rate", "abc", id="string-learning-rate"),
            pytest.param("trainer", "learning_rate", True, id="bool-learning-rate"),
            pytest.param("trainer", "learning_rate", 10**400, id="huge-learning-rate"),
            pytest.param("trainer", "epochs", None, id="null-epochs"),
            pytest.param("trainer", "epochs", [3], id="list-epochs"),
            pytest.param("trainer", "epochs", 2.7, id="fractional-epochs"),
            pytest.param("trainer", "shuffle_seed", 1.5, id="fractional-shuffle-seed"),
            pytest.param("trainer", "shuffle_seed", "x", id="string-shuffle-seed"),
            pytest.param("trainer", "learning_rte", 0.5, id="unknown-trainer-key"),
            pytest.param("config", "temprature", 2.0, id="unknown-config-key"),
            pytest.param(None, "trainr", {"epochs": 3}, id="unknown-top-level-key"),
        ],
    )
    def test_bad_run_config_exits_2(self, section, key, value, tmp_path, capsys):
        doc = json.loads(period4_run_path().read_text())
        target = doc if section is None else doc[section]
        if value is _MISSING:
            del target[key]
        else:
            target[key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        code = main(["train", str(path), str(period4_path()), "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert key in err
