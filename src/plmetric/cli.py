"""Command-line interface: gen, train, eval, diagnose.

Exit codes: 0 success, 1 user error (bad arguments, unreadable files,
validation failures), 2 internal error. All subcommands honor a global
``--threads`` flag; with ``--threads 1`` (the default) runs are bit
reproducible for a fixed root seed. The cap is applied through
``threadpoolctl``; without it the CLI warns on stderr and leaves BLAS as the
environment set it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from . import data, embedder, evaluation, trainer
from .data import DatasetFormatError, SyntheticSpec
from .trainer import CONFIG_SECTIONS as _SECTIONS, TrainConfig, Trainer


class UserError(Exception):
    """Invalid input from the operator; reported without a traceback."""


@dataclass
class RunConfig:
    """Flat, file-friendly view of every training and evaluation knob."""

    manifold_dim: int = 3
    quality_threshold: float = 90.0
    pool_size: int = 10
    knn_only: bool = False
    orth_exponent: float = 4.0
    inplane_exponent: float = 0.5
    binary_similarity: bool = False
    batch_size: int = 100
    n_seeds: int = 10
    augment_sigma: float = 0.0
    distance_scale: float = 2.0
    point_weight: float = 1.0
    proxy_weight: float = 1.0
    neighborhood_weight: float = 1.0
    stopgrad_similarity: bool = False
    hidden_sizes: list = field(default_factory=lambda: [256])
    embed_dim: int = 32
    init_gain: float = 1.0
    momentum: float = 0.999
    lr: float = 5e-4
    proxy_lr_scale: float = 100.0
    n_proxies: int = 100
    epochs: int = 200
    seed: int = 0
    dataset: str | None = None
    out_dir: str | None = None
    checkpoint_every: int = 0
    eval_every: int = 0
    recall_ks: list = field(default_factory=lambda: [1, 2, 4, 8])

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise UserError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UserError(f"config {path} is not valid JSON: {exc}") from None
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise UserError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**raw)

    def apply_overrides(self, overrides: list[str]) -> None:
        """Apply repeated ``--set key=value`` flags with field-typed parsing."""
        fields = {f.name: f for f in dataclasses.fields(self)}
        for item in overrides:
            if "=" not in item:
                raise UserError(f"--set expects key=value, got {item!r}")
            key, _, text = item.partition("=")
            key = key.strip()
            if key not in fields:
                raise UserError(f"unknown config key {key!r}")
            setattr(self, key, _parse_value(key, text.strip(), getattr(self, key)))

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    def train_config(self) -> TrainConfig:
        nested: dict = {name: {} for name in _SECTIONS}
        for key, (section, name) in _TRAIN_FIELDS.items():
            (nested if section is None else nested[section])[name] = getattr(self, key)
        try:
            return trainer.config_from_dict(nested)
        except ValueError as exc:
            raise UserError(f"invalid configuration: {exc}") from None

    def with_train_config(self, config: TrainConfig) -> "RunConfig":
        """A copy whose training fields are read from ``config``."""
        values = {}
        for key, (section, name) in _TRAIN_FIELDS.items():
            value = getattr(config if section is None else getattr(config, section), name)
            values[key] = list(value) if key == "hidden_sizes" else value
        return dataclasses.replace(self, **values)


# Where each training field of RunConfig lives in TrainConfig: (section, name),
# section None for TrainConfig's own fields. The flat name is the field's own
# but for the two below. RunConfig.train_config and with_train_config read it.
_FLAT_NAMES = {("manifold", "dim"): "manifold_dim", ("similarity", "binary"): "binary_similarity"}
_TRAIN_FIELDS = {
    _FLAT_NAMES.get((section, f.name), f.name): (section, f.name)
    for section, cls in [(None, TrainConfig), *_SECTIONS.items()]
    for f in dataclasses.fields(cls)
    if f.name not in _SECTIONS
}


def _parse_value(key: str, text: str, current):
    if isinstance(current, bool):
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise UserError(f"{key} expects a boolean, got {text!r}")
    if isinstance(current, int) and not isinstance(current, bool):
        try:
            return int(text)
        except ValueError:
            raise UserError(f"{key} expects an integer, got {text!r}") from None
    if isinstance(current, float):
        try:
            return float(text)
        except ValueError:
            raise UserError(f"{key} expects a number, got {text!r}") from None
    if isinstance(current, list):
        if not text:
            return []
        try:
            return [int(v) for v in text.split(",")]
        except ValueError:
            raise UserError(f"{key} expects comma-separated integers, got {text!r}") from None
    return text


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; those are user errors.
    def error(self, message):
        raise UserError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="plmetric", description=__doc__)
    parser.add_argument("--threads", type=int, default=1, help="intra-step thread cap")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic linear-patch dataset")
    gen.add_argument("--classes", type=int, default=5)
    gen.add_argument("--patch-dim", type=int, default=3)
    gen.add_argument("--ambient-dim", type=int, default=32)
    gen.add_argument("--points-per-class", type=int, default=100)
    gen.add_argument("--noise", type=float, default=0.01)
    gen.add_argument("--patch-aspect", type=float, default=6.0)
    gen.add_argument("--offset-scale", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=("binary", "csv"), default=None)
    gen.add_argument("--out", required=True)

    train = sub.add_parser("train", help="train a model from a config")
    train.add_argument("--config", help="JSON run configuration")
    train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    train.add_argument("--dataset", help="overrides the config dataset path")
    train.add_argument("--out-dir", help="overrides the config output directory")
    train.add_argument("--resume", help="checkpoint to continue from")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--recall-k", type=int, nargs="+", default=[1, 2, 4, 8])

    diag = sub.add_parser(
        "diagnose", help="compare untrained supervision quality against k-means"
    )
    diag.add_argument("--dataset", required=True)
    diag.add_argument("--config", help="JSON run configuration")
    diag.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    return parser


def _limit_threads(threads: int) -> None:
    if threads < 1:
        raise UserError("--threads must be at least 1")
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        if os.environ.get("OPENBLAS_NUM_THREADS") != str(threads):
            print(
                f"warning: BLAS thread cap --threads {threads} not applied: "
                f"threadpoolctl is not installed; set OPENBLAS_NUM_THREADS={threads} instead",
                file=sys.stderr,
            )
        return
    threadpool_limits(limits=threads)


def _load_dataset(path: str) -> data.FeatureDataset:
    try:
        return data.load_dataset(path)
    except FileNotFoundError:
        raise UserError(f"dataset not found: {path}") from None
    except DatasetFormatError as exc:
        raise UserError(str(exc)) from None


def _load_run_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    config.apply_overrides(args.set)
    if getattr(args, "dataset", None):
        config.dataset = args.dataset
    if getattr(args, "out_dir", None):
        config.out_dir = args.out_dir
    return config


def _log_step(metrics) -> None:
    print(
        f"epoch={metrics.epoch} step={metrics.step} "
        f"point={metrics.point:.6f} proxy={metrics.proxy:.6f} "
        f"neighborhood={metrics.neighborhood:.6f} total={metrics.total:.6f}"
    )


def cmd_gen(args) -> int:
    try:
        spec = SyntheticSpec(
            n_classes=args.classes,
            patch_dim=args.patch_dim,
            ambient_dim=args.ambient_dim,
            points_per_class=args.points_per_class,
            noise_sigma=args.noise,
            patch_aspect=args.patch_aspect,
            offset_scale=args.offset_scale,
            seed=args.seed,
        )
        dataset = data.generate_synthetic(spec)
    except ValueError as exc:
        raise UserError(str(exc)) from None
    data.save_dataset(dataset, args.out, fmt=args.format)
    print(f"wrote {dataset.n_samples} x {dataset.dim} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _load_run_config(args)
    if config.dataset is None:
        raise UserError("no dataset given (config `dataset` key or --dataset flag)")
    dataset = _load_dataset(config.dataset)
    train_config = config.train_config()
    if args.resume:
        try:
            run = trainer.trainer_from_checkpoint(args.resume, dataset)
        except (trainer.CheckpointFormatError, FileNotFoundError, ValueError) as exc:
            raise UserError(f"cannot resume: {exc}") from None
        # Stored state wins on resume; only the target epoch count moves.
        run.config = dataclasses.replace(run.config, epochs=train_config.epochs)
    else:
        try:
            run = Trainer.initialize(dataset, train_config)
        except ValueError as exc:
            raise UserError(str(exc)) from None
    out_dir = Path(config.out_dir) if config.out_dir else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    # The run's own config: on resume the checkpoint's, not the requested one.
    config = config.with_train_config(run.config)
    (out_dir / "config.json").write_text(config.to_json() + "\n")

    def on_epoch_end(state: Trainer) -> None:
        if config.eval_every > 0 and dataset.labels is not None:
            if state.epoch % config.eval_every == 0 or state.epoch == state.config.epochs:
                embeds = state.embed(dataset.features)
                recall = evaluation.recall_at_k(embeds, dataset.labels, [1])
                record = {"kind": "eval", "epoch": state.epoch, "recall@1": recall[1]}
                state.history.append(record)
                print(f"epoch={state.epoch} eval recall@1={recall[1]:.4f}")
        if config.checkpoint_every > 0 and state.epoch % config.checkpoint_every == 0:
            trainer.save_checkpoint(state, out_dir / f"checkpoint_epoch{state.epoch}.plck")

    run.run(log_fn=_log_step, on_epoch_end=on_epoch_end)
    final = out_dir / "checkpoint.plck"
    trainer.save_checkpoint(run, final)
    print(f"saved checkpoint to {final}")
    return 0


def cmd_eval(args) -> int:
    dataset = _load_dataset(args.dataset)
    try:
        run = trainer.trainer_from_checkpoint(args.checkpoint, dataset)
    except (trainer.CheckpointFormatError, FileNotFoundError, ValueError) as exc:
        raise UserError(f"cannot load checkpoint: {exc}") from None
    embeds = run.embed(dataset.features)
    if dataset.labels is None:
        print("neighborhood_purity: skipped (dataset has no labels)")
        print("similarity_correlation: skipped (dataset has no labels)")
        print("error: recall requires labels", file=sys.stderr)
        return 1
    report = evaluation.evaluate_embeddings(
        embeds,
        dataset.labels,
        run.config.manifold,
        run.config.similarity,
        recall_ks=args.recall_k,
        seed=run.config.seed,
    )
    print(report.to_text())
    return 0


def cmd_diagnose(args) -> int:
    config = _load_run_config(args)
    dataset = _load_dataset(args.dataset)
    if dataset.labels is None:
        raise UserError("diagnose requires a labeled dataset")
    train_config = config.train_config()
    layer_sizes = (dataset.dim, *train_config.hidden_sizes, train_config.embed_dim)
    frozen = embedder.MLPParams.initialize(layer_sizes, config.seed, gain=train_config.init_gain)
    embeds = embedder.forward(frozen, dataset.features)
    report = evaluation.evaluate_embeddings(
        embeds,
        dataset.labels,
        train_config.manifold,
        train_config.similarity,
        recall_ks=config.recall_ks,
        seed=config.seed,
    )
    print(f"{'metric':<26}{'ours':>12}{'kmeans':>12}")
    print(f"{'label_purity':<26}{report.neighborhood_purity:>12.4f}{report.kmeans_purity:>12.4f}")
    print(
        f"{'label_correlation':<26}"
        f"{report.similarity_correlation:>12.4f}{report.kmeans_correlation:>12.4f}"
    )
    for k in sorted(report.recall_at):
        print(f"{f'recall@{k}':<26}{report.recall_at[k]:>12.4f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _limit_threads(args.threads)
        handler = {
            "gen": cmd_gen,
            "train": cmd_train,
            "eval": cmd_eval,
            "diagnose": cmd_diagnose,
        }[args.command]
        return handler(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
