"""End-to-end tests of the command-line interface."""

import json
import struct
import sys

import numpy as np
import pytest

from plmetric import data
from plmetric.cli import RunConfig, UserError, main
from plmetric.data import SyntheticSpec
from plmetric.trainer import TrainConfig


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


class TestRunConfig:
    def test_round_trips_through_json(self, tmp_path):
        config = RunConfig(epochs=7, hidden_sizes=[64, 32])
        path = tmp_path / "cfg.json"
        path.write_text(config.to_json())
        back = RunConfig.from_file(path)
        assert back == config

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(UserError, match="unknown config keys"):
            RunConfig.from_file(path)

    def test_set_overrides_with_types(self):
        config = RunConfig()
        config.apply_overrides(["epochs=5", "lr=0.01", "knn_only=true", "hidden_sizes=64,32"])
        assert config.epochs == 5
        assert config.lr == 0.01
        assert config.knn_only is True
        assert config.hidden_sizes == [64, 32]

    def test_bad_override_is_user_error(self):
        config = RunConfig()
        with pytest.raises(UserError, match="expects an integer"):
            config.apply_overrides(["epochs=soon"])
        with pytest.raises(UserError, match="unknown config key"):
            config.apply_overrides(["learning_rate=0.1"])

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
        config = RunConfig(**run, **train)
        defaults = RunConfig()
        assert [k for k, v in {**run, **train}.items() if getattr(defaults, k) == v] == []
        assert sorted(json.loads(config.to_json())) == sorted([*run, *train])
        assert RunConfig(**run).with_train_config(config.train_config()) == config
        assert RunConfig().train_config() == TrainConfig()

    def test_invalid_combination_is_user_error(self):
        config = RunConfig(batch_size=10, pool_size=10)
        with pytest.raises(UserError, match="invalid configuration"):
            config.train_config()


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

    def test_unlabeled_dataset_skips_and_fails(self, tmp_path, capsys):
        dataset_path = _gen(tmp_path)
        out_dir = tmp_path / "run"
        assert main(_train_args(dataset_path, out_dir)) == 0
        ds = data.load_dataset(dataset_path)
        unlabeled = tmp_path / "plain.plmf"
        data.save_dataset(data.FeatureDataset(ds.features), unlabeled)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.plck"),
                     "--dataset", str(unlabeled)])
        captured = capsys.readouterr()
        assert code == 1
        assert "skipped" in captured.out
        assert "recall requires labels" in captured.err

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

    def test_unlabeled_dataset_rejected(self, tmp_path, capsys):
        ds = data.FeatureDataset(np.random.default_rng(0).standard_normal((30, 6)))
        path = tmp_path / "plain.plmf"
        data.save_dataset(ds, path)
        code = main(["diagnose", "--dataset", str(path)])
        assert code == 1
        assert "labeled" in capsys.readouterr().err


class TestErrorPaths:
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
