"""End-to-end tests of the command-line interface."""

import inspect
import json
import struct
import sys
from argparse import Namespace

import numpy as np
import pytest

from plmetric import data, evaluation
from plmetric.cli import _DEFAULTS, UserError, _flatten, _load_run_config, _train_config, main
from plmetric.data import SyntheticSpec
from plmetric.trainer import TrainConfig, Trainer

from test_trainer import _overwrite_entry, _rewrite_manifest


def _gen(tmp_path, name="bench.plmf", **kwargs) -> str:
    path = str(tmp_path / name)
    args = ["gen", "--out", path]
    defaults = {
        "--classes": "3",
        "--ambient-dim": "12",
        "--points-per-class": "20",
        "--seed": "1",
    }
    defaults.update(kwargs)
    for key, value in defaults.items():
        args.extend([key, value])
    assert main(args) == 0
    return path


def _train_args(dataset, out_dir, *sets):
    args = ["train", "--dataset", dataset, "--out-dir", str(out_dir)]
    base = [
        "batch_size=20",
        "n_seeds=4",
        "pool_size=4",
        "manifold_dim=2",
        "hidden_sizes=16",
        "embed_dim=6",
        "n_proxies=8",
        "epochs=2",
        "quality_threshold=60",
    ]
    for item in base + list(sets):
        args.extend(["--set", item])
    return args


def _run_config(*sets, config=None) -> dict:
    return _load_run_config(Namespace(config=config, set=list(sets), dataset=None, out_dir=None))


class TestRunConfig:
    def test_round_trips_through_json(self, tmp_path):
        config = {**_DEFAULTS, "epochs": 7, "hidden_sizes": [64, 32]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True))
        assert _run_config(config=str(path)) == config

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(UserError, match="unknown config keys"):
            _run_config(config=str(path))

    def test_set_overrides_with_types(self):
        config = _run_config("epochs=5", "lr=0.01", "knn_only=true", "hidden_sizes=64,32")
        assert config["epochs"] == 5
        assert config["lr"] == 0.01
        assert config["knn_only"] is True
        assert config["hidden_sizes"] == [64, 32]

    def test_bad_override_is_user_error(self):
        with pytest.raises(UserError, match="expects an integer"):
            _run_config("epochs=soon")
        with pytest.raises(UserError, match="unknown config key"):
            _run_config("learning_rate=0.1")

    def test_train_config_round_trips(self):
        # Every key of the config file by name and off its default, so a
        # renamed TrainConfig field, or a crossed or missing entry in either
        # direction of the mapping, shows.
        run = dict(
            dataset="data.plmf", out_dir="runs", checkpoint_every=5, eval_every=2,
            recall_ks=[1, 3],
        )
        train = dict(
            manifold_dim=2, quality_threshold=80.0, pool_size=7, knn_only=True,
            orth_exponent=3.0, inplane_exponent=0.25, binary_similarity=True,
            batch_size=50, n_seeds=5, augment_sigma=0.1, distance_scale=1.5,
            point_weight=0.5, proxy_weight=2.0, neighborhood_weight=0.25,
            stopgrad_similarity=True, hidden_sizes=[8, 4], embed_dim=6,
            init_gain=2.0, momentum=0.9, lr=1e-3, proxy_lr_scale=10.0,
            n_proxies=12, epochs=3, seed=9,
        )
        config = {**run, **train}
        assert [k for k, v in config.items() if _DEFAULTS[k] == v] == []
        assert sorted(_DEFAULTS) == sorted(config)
        assert {**run, **_flatten(_train_config(config))} == config
        assert _train_config(_DEFAULTS) == TrainConfig()

    def test_recall_default_is_the_library_default(self):
        assert _DEFAULTS["recall_ks"] == list(evaluation.RECALL_KS)
        default = inspect.signature(evaluation.evaluate_embeddings).parameters["recall_ks"].default
        assert default == evaluation.RECALL_KS

    def test_invalid_combination_is_user_error(self):
        with pytest.raises(UserError, match="invalid configuration"):
            _train_config({**_DEFAULTS, "batch_size": 10, "pool_size": 10})

    def test_precedence_defaults_file_sets_flags(self, tmp_path):
        # Defaults < config file < each --set in order < --dataset/--out-dir,
        # as train records the table in config.json.
        dataset = _gen(tmp_path)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "epochs": 3, "seed": 5, "lr": 0.002,
            "dataset": "elsewhere.plmf", "out_dir": "elsewhere",
        }))
        out_dir = tmp_path / "run"
        argv = _train_args(dataset, out_dir, "epochs=1", "seed=6", "seed=7")
        assert main(argv + ["--config", str(path)]) == 0
        recorded = json.loads((out_dir / "config.json").read_text())
        assert recorded == {
            **_DEFAULTS,
            "dataset": dataset, "out_dir": str(out_dir), "lr": 0.002,
            "batch_size": 20, "n_seeds": 4, "pool_size": 4, "manifold_dim": 2,
            "hidden_sizes": [16], "embed_dim": 6, "n_proxies": 8, "quality_threshold": 60.0,
            "epochs": 1, "seed": 7,
        }


class TestGen:
    def test_writes_loadable_binary(self, tmp_path):
        path = _gen(tmp_path)
        ds = data.load_dataset(path)
        assert ds.n_samples == 60 and ds.dim == 12
        assert ds.labels is not None

    def test_each_flag_sets_its_spec_field(self, tmp_path):
        # Every flag by name and off its default, against the library call.
        path = _gen(tmp_path, **{
            "--classes": "2", "--patch-dim": "2", "--ambient-dim": "5",
            "--points-per-class": "7", "--noise": "0.05", "--patch-aspect": "3",
            "--offset-scale": "20", "--seed": "4",
        })
        expected = data.generate_synthetic(SyntheticSpec(
            n_classes=2, patch_dim=2, ambient_dim=5, points_per_class=7,
            noise_sigma=0.05, patch_aspect=3.0, offset_scale=20.0, seed=4,
        ))
        ds = data.load_dataset(path)
        # The binary format stores float32 rows.
        np.testing.assert_array_equal(ds.features, expected.features.astype(np.float32))
        np.testing.assert_array_equal(ds.labels, expected.labels)

    def test_csv_format_flag(self, tmp_path):
        path = _gen(tmp_path, name="bench.csv", **{"--format": "csv"})
        assert open(path).readline().startswith("id,label,")

    def test_bad_parameters_exit_one(self, tmp_path, capsys):
        code = main(["gen", "--out", str(tmp_path / "x"), "--patch-dim", "40"])
        assert code == 1
        assert "patch_dim" in capsys.readouterr().err

    def test_features_beyond_float32_exit_one_and_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.plmf"
        assert main(["gen", "--out", str(out), "--offset-scale", "1e39"]) == 1
        assert "float32" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_trains_and_writes_checkpoint(self, tmp_path, capsys):
        dataset = _gen(tmp_path)
        out_dir = tmp_path / "run"
        assert main(_train_args(dataset, out_dir)) == 0
        captured = capsys.readouterr().out
        assert "epoch=0 step=0" in captured
        assert (out_dir / "checkpoint.plck").exists()
        assert (out_dir / "config.json").exists()

    def test_missing_dataset_is_user_error(self, tmp_path, capsys):
        code = main(["train", "--set", "epochs=1"])
        assert code == 1
        assert "no dataset" in capsys.readouterr().err

    def test_eval_cadence_logs_recall(self, tmp_path, capsys):
        dataset = _gen(tmp_path)
        out_dir = tmp_path / "run"
        assert main(_train_args(dataset, out_dir, "eval_every=1")) == 0
        assert "eval recall@1=" in capsys.readouterr().out

    def test_resume_extends_run(self, tmp_path, capsys):
        dataset = _gen(tmp_path)
        short = tmp_path / "short"
        full = tmp_path / "full"
        assert main(_train_args(dataset, short, "epochs=1")) == 0
        ckpt = str(short / "checkpoint.plck")
        assert main(_train_args(dataset, full, "epochs=2") + ["--resume", ckpt]) == 0
        out = capsys.readouterr().out
        assert "epoch=1" in out

    def test_resume_records_the_checkpoint_config(self, tmp_path):
        dataset = _gen(tmp_path)
        short = tmp_path / "short"
        full = tmp_path / "full"
        assert main(_train_args(dataset, short, "epochs=1")) == 0
        ckpt = str(short / "checkpoint.plck")
        resumed = _train_args(dataset, full, "epochs=2", "seed=7", "embed_dim=8")
        assert main(resumed + ["--resume", ckpt]) == 0
        recorded = json.loads((full / "config.json").read_text())
        assert (recorded["seed"], recorded["embed_dim"], recorded["epochs"]) == (0, 6, 2)


    @pytest.mark.parametrize(
        "raw, named",
        [
            ({"knn_only": "no"}, "knn_only"),
            ({"epochs": True}, "epochs"),
            ({"epochs": "5"}, "epochs"),
            ({"hidden_sizes": 16}, "hidden_sizes"),
            ([1], "is not a table"),
        ],
        ids=["bool-as-string", "int-as-bool", "int-as-string", "list-as-int", "not-a-table"],
    )
    def test_mistyped_config_file_is_a_one_line_user_error(
        self, tmp_path, capsys, monkeypatch, raw, named
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        code = main(["train", "--config", str(path), "--dataset", str(tmp_path / "none.plmf")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and named in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "setting",
        [
            "lr=nan",
            "lr=inf",
            "proxy_lr_scale=-inf",
            "momentum=nan",
            "init_gain=inf",
            "orth_exponent=nan",
            "inplane_exponent=inf",
            "augment_sigma=nan",
            "distance_scale=nan",
            "proxy_weight=inf",
            "quality_threshold=nan",
        ],
    )
    def test_non_finite_setting_is_a_one_line_user_error(self, tmp_path, capsys, setting):
        dataset = _gen(tmp_path)
        code = main(_train_args(dataset, tmp_path / "run", setting))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid configuration") and err.count("\n") == 1
        assert not (tmp_path / "run" / "checkpoint.plck").exists()

    def test_nan_in_config_file_is_a_one_line_user_error(self, tmp_path, capsys):
        # Python's json reads the NaN literal; the config must still refuse it.
        path = tmp_path / "run.json"
        path.write_text('{"lr": NaN}')
        code = main(["train", "--config", str(path), "--dataset", _gen(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid configuration") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["file", "set"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("checkpoint_every", -3),
            ("eval_every", -2),
            ("recall_ks", [0]),
            ("recall_ks", [1, -4]),
            ("recall_ks", []),
        ],
        ids=["checkpoint_every", "eval_every", "recall_ks-zero", "recall_ks-negative", "recall_ks-empty"],
    )
    def test_out_of_range_run_setting_is_a_one_line_user_error(
        self, tmp_path, capsys, key, value, source
    ):
        # Unchecked, train wrote these into config.json, and diagnose failed
        # on the recall_ks only when it read that file.
        dataset = _gen(tmp_path)
        if source == "file":
            path = tmp_path / "run.json"
            path.write_text(json.dumps({key: value}))
            argv = _train_args(dataset, tmp_path / "run") + ["--config", str(path)]
        else:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv = _train_args(dataset, tmp_path / "run", f"{key}={text}")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_unmakeable_out_dir_fails_before_setup(self, tmp_path, capsys, monkeypatch):
        # The output directory is made before the k-NN pools, the initial
        # fit and the proxies are set up, so a bad --out-dir fails at once.
        dataset = _gen(tmp_path)

        def refuse(*args):
            raise AssertionError("Trainer.initialize ran before the output directory was made")

        monkeypatch.setattr(Trainer, "initialize", refuse)
        capsys.readouterr()
        assert main(_train_args(dataset, dataset)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and dataset in err

    @pytest.mark.parametrize("raw", [{"lr": 1}, {"quality_threshold": 60}], ids=["lr", "T"])
    def test_config_file_int_for_float_key_is_accepted(self, tmp_path, raw):
        dataset = _gen(tmp_path)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        out_dir = tmp_path / "run"
        assert main(_train_args(dataset, out_dir, "epochs=1") + ["--config", str(path)]) == 0
        [(key, value)] = raw.items()
        assert json.loads((out_dir / "config.json").read_text())[key] == value


class TestEval:
    def test_report_matches_library_call(self, tmp_path, capsys):
        from plmetric import evaluation, trainer

        dataset_path = _gen(tmp_path)
        out_dir = tmp_path / "run"
        assert main(_train_args(dataset_path, out_dir)) == 0
        capsys.readouterr()
        ckpt = str(out_dir / "checkpoint.plck")
        assert main(["eval", "--checkpoint", ckpt, "--dataset", dataset_path,
                     "--recall-k", "1", "2"]) == 0
        printed = capsys.readouterr().out
        ds = data.load_dataset(dataset_path)
        run = trainer.trainer_from_checkpoint(ckpt, ds)
        report = evaluation.evaluate_embeddings(
            run.embed(ds.features), ds.labels, run.config.manifold,
            run.config.similarity, recall_ks=(1, 2), seed=run.config.seed,
        )
        assert report.to_text() + "\n" == printed

    def test_unlabeled_dataset_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        # Refused as diagnose refuses it: one error line, and the checkpoint
        # is never loaded. It once embedded every row and printed two
        # "skipped" lines first.
        from plmetric import trainer

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        dataset_path = _gen(tmp_path)
        out_dir = tmp_path / "run"
        assert main(_train_args(dataset_path, out_dir)) == 0
        ds = data.load_dataset(dataset_path)
        unlabeled = tmp_path / "plain.plmf"
        data.save_dataset(data.FeatureDataset(ds.features), unlabeled)
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("checkpoint loaded")

        monkeypatch.setattr(trainer, "trainer_from_checkpoint", refuse)
        code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.plck"),
                     "--dataset", str(unlabeled)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: eval requires a labeled dataset\n"

    def test_malformed_manifest_is_a_one_line_user_error(self, tmp_path, capsys, monkeypatch):
        # A valid header whose manifest lacks every required key but one.
        # The BLAS thread cap is set so stderr holds nothing but the error.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        dataset_path = _gen(tmp_path)
        manifest = json.dumps({"version": 1}).encode("utf-8")
        ckpt = tmp_path / "hollow.plck"
        ckpt.write_bytes(b"PLCK" + struct.pack("<HQ", 1, len(manifest)) + manifest)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt), "--dataset", dataset_path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot load checkpoint:")
        assert "manifest is missing" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("k", ["0", "100"])
    def test_recall_k_out_of_range_is_a_one_line_user_error(self, tmp_path, capsys, monkeypatch, k):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        dataset_path = _gen(tmp_path)
        out_dir = tmp_path / "run"
        assert main(_train_args(dataset_path, out_dir, "epochs=1")) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.plck"),
                     "--dataset", dataset_path, "--recall-k", k])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_checkpoint_is_user_error(self, tmp_path, capsys):
        dataset_path = _gen(tmp_path)
        code = main(["eval", "--checkpoint", str(tmp_path / "none.plck"),
                     "--dataset", dataset_path])
        assert code == 1


class TestDiagnose:
    def test_prints_comparison_table(self, tmp_path, capsys):
        dataset_path = _gen(tmp_path)
        code = main(["diagnose", "--dataset", dataset_path,
                     "--set", "manifold_dim=2", "--set", "pool_size=6",
                     "--set", "embed_dim=8", "--set", "hidden_sizes=16"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "label_purity" in captured
        assert "kmeans" in captured

    def test_pool_larger_than_dataset_is_a_one_line_user_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        dataset_path = _gen(tmp_path)
        capsys.readouterr()
        code = main(["diagnose", "--dataset", dataset_path, "--set", "pool_size=80"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "pool_size=80" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, content",
        [
            ("nan.csv", b"id,label,f0\n0,0,nan\n1,1,1.0\n"),
            ("label.csv", b"id,label,f0\n0,-2,0.0\n1,1,1.0\n"),
            ("inf.plmf", data.MAGIC + struct.pack("<HQQB", 1, 1, 1, 0) + np.float32(np.inf).tobytes()),
        ],
        ids=["nan", "negative-label", "inf"],
    )
    def test_invalid_dataset_contents_are_a_one_line_user_error(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["diagnose", "--dataset", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_unlabeled_dataset_rejected(self, tmp_path, capsys):
        ds = data.FeatureDataset(np.random.default_rng(0).standard_normal((30, 6)))
        path = tmp_path / "plain.plmf"
        data.save_dataset(ds, path)
        code = main(["diagnose", "--dataset", str(path)])
        assert code == 1
        assert "labeled" in capsys.readouterr().err


def _load_error(tmp_path, capsys, command, corrupt) -> str:
    # Train one epoch, apply ``corrupt`` to its checkpoint file, then resume
    # it (train) or evaluate it (eval); the one-line error, exit code 1.
    dataset = _gen(tmp_path)
    assert main(_train_args(dataset, tmp_path / "run", "epochs=1")) == 0
    ckpt = tmp_path / "run" / "checkpoint.plck"
    corrupt(ckpt)
    if command == "train":
        argv = _train_args(dataset, tmp_path / "more", "epochs=2") + ["--resume", str(ckpt)]
    else:
        argv = ["eval", "--checkpoint", str(ckpt), "--dataset", dataset]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    prefix = "cannot resume" if command == "train" else "cannot load checkpoint"
    assert err.startswith(f"error: {prefix}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestErrorPaths:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda m: m["config"].update(hidden_sizes=[8]), "tensor trained.0 is of shape"),
            (lambda m: m["config"].update(embed_dim=7), "tensor trained.2 is of shape"),
            (lambda m: m["config"].update(n_proxies=4), "tensor proxies.locations is of shape"),
            (lambda m: m["config"]["manifold"].update(dim=3), "tensor proxies.frames is of shape"),
            (lambda m: m["tensors"][4].update(shape=[16, 12]), "tensor averaged.0 is of shape"),
            (lambda m: m["tensors"].append({"name": "extra", "shape": [0]}), "unexpected tensors"),
            (lambda m: m["tensors"][0].update(name="w"), "tensor trained.0 is missing"),
            (lambda m: m.update(epoch="0"), "epoch '0' is not a count"),
            (lambda m: m.update(adam_encoder_steps=-3), "adam_encoder_steps -3 is not a count"),
            (lambda m: m.update(rng_sampler=5), "bad rng_sampler state"),
            (lambda m: m.update(history="abc"), "history is not a list"),
            (
                lambda m: m["config"].update(n_proxies=10.5),
                "bad config: config.n_proxies expects an integer, got 10.5",
            ),
            (lambda m: m["config"].update(epochs=1.5), "config.epochs expects an integer, got 1.5"),
            (lambda m: m["config"].update(seed=True), "config.seed expects an integer, got True"),
        ],
        ids=[
            "hidden_sizes", "embed_dim", "n_proxies", "manifold_dim", "transposed",
            "extra", "renamed", "epoch", "adam_steps", "rng", "history",
            "n_proxies-float", "epochs-float", "seed-bool",
        ],
    )
    def test_malformed_checkpoint_is_a_one_line_user_error(
        self, tmp_path, capsys, monkeypatch, command, edit, named
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        err = _load_error(tmp_path, capsys, command, lambda path: _rewrite_manifest(path, edit))
        assert named in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_finite_checkpoint_tensor_is_a_one_line_user_error(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # Unchecked, eval failed on the NaN as a dataset error and resume
        # exited 2 with a traceback.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

        def poison(path):
            for name in ("trained.0", "averaged.0"):
                _overwrite_entry(path, name, np.nan)

        err = _load_error(tmp_path, capsys, command, poison)
        assert "tensor trained.0 has non-finite entries" in err

    @pytest.mark.parametrize(
        "case",
        [
            lambda tmp, ds: (["gen", "--out", str(tmp / "missing" / "x.plmf")], tmp / "missing"),
            lambda tmp, ds: (["eval", "--checkpoint", str(tmp), "--dataset", ds], tmp),
            lambda tmp, ds: (["diagnose", "--dataset", str(tmp)], tmp),
            lambda tmp, ds: (_train_args(ds, ds), ds),
        ],
        ids=["gen-out-in-missing-dir", "eval-checkpoint-is-dir", "diagnose-dataset-is-dir",
             "train-out-dir-is-file"],
    )
    def test_unreadable_or_unwritable_file_is_a_one_line_user_error(
        self, tmp_path, capsys, monkeypatch, case
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        argv, named = case(tmp_path, _gen(tmp_path))
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(named) in err

    def test_usage_error_exits_one(self, capsys):
        assert main(["train", "--bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        assert main(["transmogrify"]) == 1

    def test_threads_must_be_positive(self, tmp_path, capsys):
        code = main(["--threads", "0", "gen", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_threads_without_threadpoolctl_warns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(["--threads", "2", "gen", "--out", str(tmp_path / "x")]) == 0
        err = capsys.readouterr().err
        assert "--threads 2 not applied" in err
        assert "OPENBLAS_NUM_THREADS=2" in err
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert main(["--threads", "2", "gen", "--out", str(tmp_path / "y")]) == 0
        assert capsys.readouterr().err == ""
