"""Tests for the training CLI (a thin shell over RunSpec + repro.api)."""

import json

import pytest

from repro.cli import build_parser, build_runspec, main
from repro.config import RunSpec, SimRankConfig
from repro.training.config import TrainConfig


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.model == "sigma"
        assert args.dataset == "texas"

    def test_training_defaults_sourced_from_trainconfig(self):
        """The numbers live once, on TrainConfig — the parser inherits."""
        args = build_parser().parse_args([])
        reference = TrainConfig()
        assert args.lr == reference.learning_rate
        assert args.weight_decay == reference.weight_decay
        assert args.epochs == reference.max_epochs
        assert args.patience == reference.patience

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "transformer"])

    def test_overrides_parsed(self):
        args = build_parser().parse_args(
            ["--model", "glognn", "--delta", "0.3", "--top-k", "16"])
        assert args.model == "glognn"
        assert args.delta == 0.3
        assert args.top_k == 16

    @pytest.mark.parametrize("flag,value", [
        ("--simrank-backend", "vectorized"), ("--simrank-kernel", "fused"),
        ("--simrank-executor", "thread"), ("--simrank-workers", "2")])
    def test_removed_execution_flags_are_rejected(self, capsys, flag, value):
        """The backend, kernel, executor and worker axes are gone: a
        script still passing their flags gets an argparse error, not a
        silently ignored value."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--model", "sigma", "--dataset", "texas", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--executor", "thread"), ("--workers", "2")])
    def test_serve_rejects_the_removed_execution_flags(self, capsys, flag,
                                                       value):
        """``serve`` has no execution setting; ``--executor`` and
        ``--workers`` are argparse errors before any dataset loads."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "texas", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


class TestBuildRunSpec:
    def test_sigma_flags_fold_into_one_config(self, tmp_path):
        args = build_parser().parse_args([
            "--model", "sigma", "--dataset", "chameleon", "--repeats", "2",
            "--epsilon", "0.05", "--top-k", "16",
            "--simrank-cache-dir", str(tmp_path)])
        spec = build_runspec(args)
        assert isinstance(spec, RunSpec)
        assert spec.model == "sigma" and spec.dataset == "chameleon"
        assert spec.repeats == 2
        assert spec.simrank == SimRankConfig(
            epsilon=0.05, top_k=16, cache_dir=str(tmp_path))
        assert "top_k" not in spec.overrides

    def test_sigma_defaults_are_the_paper_settings(self):
        spec = build_runspec(build_parser().parse_args([]))
        assert spec.simrank.top_k == 32 and spec.simrank.epsilon == 0.1

    def test_baseline_keeps_top_k_as_model_override(self):
        args = build_parser().parse_args(
            ["--model", "pprgo", "--top-k", "16", "--hidden", "32"])
        spec = build_runspec(args)
        assert spec.simrank is None
        assert spec.overrides == {"hidden": 32, "top_k": 16}

    def test_train_config_carries_cli_values(self):
        args = build_parser().parse_args(["--lr", "0.1", "--patience", "7"])
        spec = build_runspec(args)
        assert spec.train.learning_rate == 0.1
        assert spec.train.patience == 7

    @pytest.mark.parametrize("epochs,min_epochs", [
        (1, 1), (5, 5), (10, 10), (20, 10), (300, 10)])
    def test_min_epochs_is_capped_at_the_epoch_budget(self, epochs,
                                                      min_epochs):
        """A run shorter than the trainer's ``min_epochs`` runs as asked;
        from ``--epochs 10`` up the spec keeps the default."""
        args = build_parser().parse_args(["--epochs", str(epochs)])
        train = build_runspec(args).train
        assert train.max_epochs == epochs
        assert train.min_epochs == min_epochs
        assert min_epochs == min(TrainConfig().min_epochs, epochs)


class TestExperimentSubcommand:
    def test_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        output = capsys.readouterr().out
        assert "available experiments" in output
        assert "fig6" in output and "table5" in output

    def test_describe(self, capsys):
        assert main(["experiment", "table3", "--describe"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "table3"
        assert payload["cells"] == 1

    def test_unknown_experiment_exits_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "nope"])
        assert excinfo.value.code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_experiment_end_to_end(self, capsys):
        assert main(["experiment", "table3", "--scale-factor", "0.25"]) == 0
        output = capsys.readouterr().out
        assert "== table3 ==" in output
        assert "SIGMA" in output


class TestModelFlagValidation:
    """A model flag the chosen model cannot take is an argparse error
    (exit 2), never a constructor TypeError traceback."""

    @pytest.mark.parametrize("flag,value", [
        ("--delta", "0.3"), ("--epsilon", "0.05"), ("--top-k", "8")])
    def test_flag_rejected_for_a_model_without_the_parameter(
            self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["--model", "gcn", "--dataset", "texas", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "'gcn'" in err

    def test_model_parameters_reflect_the_constructors(self):
        """glognn takes delta, pprgo takes top_k but no epsilon."""
        from repro.models.registry import model_parameters

        assert "delta" in model_parameters("glognn")
        assert "top_k" in model_parameters("pprgo")
        assert "epsilon" not in model_parameters("pprgo")


class TestMain:
    def test_runs_end_to_end(self, capsys):
        exit_code = main(["--model", "mlp", "--dataset", "texas", "--repeats", "1",
                          "--epochs", "15", "--patience", "10", "--hidden", "16"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "accuracy" in output

    def test_runs_fewer_epochs_than_the_default_minimum(self, capsys):
        exit_code = main(["--model", "mlp", "--dataset", "texas",
                          "--repeats", "1", "--epochs", "5", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "mlp"

    @pytest.mark.parametrize("argv,message", [
        (["--model", "mlp", "--epochs", "0"], "max_epochs must be >= 1"),
        (["--model", "mlp", "--patience", "0"], "patience must be >= 1"),
        (["--model", "mlp", "--lr", "nan"],
         "learning_rate must be a finite number, got nan"),
        (["--model", "mlp", "--scale-factor", "0"],
         "scale_factor must be positive"),
        (["--model", "sigma", "--epsilon", "0"], "epsilon must be positive"),
        (["--model", "mlp", "--hidden", "0"],
         "argument --hidden: must be >= 1, got 0"),
        (["--model", "pprgo", "--top-k", "0"],
         "argument --top-k: must be >= 1, got 0"),
        (["--model", "mlp", "--dataset", "nope"], "unknown dataset 'nope'"),
    ])
    def test_bad_flag_value_is_an_argparse_error(self, capsys, argv,
                                                 message):
        """A value the configs, a model or the dataset registry reject
        exits 2 with one error line, not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--dataset", "texas", "--repeats", "1"] + argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: {message}" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("argv,message", [
        (["--port", "70000"], "port must be in [0, 65535], got 70000"),
        (["--epsilon", "0"], "epsilon must be positive, got 0.0"),
        (["--serve-top-k", "0"],
         "default_top_k must be a positive integer, got 0"),
        (["--max-batch-edges", "0"],
         "max_batch_edges must be a positive integer, got 0"),
        (["--degraded-epsilon-factor", "0.5"],
         "degraded_epsilon_factor must exceed 1.0"),
        (["--time-budget", "inf"],
         "time_budget_seconds must be a finite number, got inf"),
    ])
    def test_bad_serve_flag_value_is_an_argparse_error(
            self, capsys, monkeypatch, argv, message):
        """``serve`` checks its configs before it loads a dataset or binds
        a port: a rejected value exits 2 with one error line."""
        import repro.datasets.registry
        import repro.serve.daemon

        def never(*args, **kwargs):
            pytest.fail("a rejected flag value got past the config check")

        monkeypatch.setattr(repro.datasets.registry, "load_dataset", never)
        monkeypatch.setattr(repro.serve.daemon, "make_daemon", never)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "texas"] + argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: {message}" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("flag", [
        "--no-exact", "--no-cached-rows", "--synchronous-repair",
        "--no-store-repaired"])
    def test_a_deleted_serve_switch_is_an_argparse_error(
            self, capsys, monkeypatch, flag):
        """Every rung runs, every update lands before it answers and a
        cache always gets the repaired snapshot: the switches are gone."""
        import repro.datasets.registry
        import repro.serve.daemon

        def never(*args, **kwargs):
            pytest.fail("a deleted flag got past the parser")

        monkeypatch.setattr(repro.datasets.registry, "load_dataset", never)
        monkeypatch.setattr(repro.serve.daemon, "make_daemon", never)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "texas", flag])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"unrecognized arguments: {flag}" \
            in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("argv,message", [
        (["nope"], "unknown dataset 'nope'"),
        (["texas", "--scale-factor", "0"], "scale factor must be positive"),
    ])
    def test_serve_dataset_error_goes_to_stderr(self, capsys, monkeypatch,
                                                argv, message):
        """A dataset ``serve`` cannot load is an argparse error like the
        run CLI's: exit 2, the message on stderr, nothing on stdout."""
        import repro.serve.daemon

        def never(*args, **kwargs):
            pytest.fail("a dataset that failed to load reached the daemon")

        monkeypatch.setattr(repro.serve.daemon, "make_daemon", never)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"] + argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert message in captured.err.strip().splitlines()[-1]

    def test_json_output(self, capsys):
        exit_code = main(["--model", "sigma", "--dataset", "texas", "--repeats", "1",
                          "--epochs", "10", "--patience", "5", "--hidden", "16",
                          "--top-k", "8", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "sigma"
        assert 0.0 <= payload["accuracy_mean"] <= 100.0
