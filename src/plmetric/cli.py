"""Command-line interface: gen, train, eval, diagnose.

Exit codes: 0 success, 1 user error (bad arguments, unreadable files,
validation failures), 2 internal error. All subcommands honor a global
``--threads`` flag; with ``--threads 1`` (the default) runs are bit
reproducible for a fixed root seed. The cap is applied through
``threadpoolctl``; without it the CLI warns on stderr and leaves BLAS as the
environment set it.

``train`` and ``diagnose`` read a flat JSON run configuration (RunConfig):
TrainConfig's field names, with ``manifold_dim`` and ``binary_similarity``
for ``manifold.dim`` and ``similarity.binary``, plus five run settings. Each
value, from the file or parsed from ``--set key=value``, must have the JSON
type of its key's default.
"""

from __future__ import annotations

import argparse
import copy
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


# Where each training key of RunConfig lives in TrainConfig: (section, name),
# section None for TrainConfig's own fields. The key is the field's own name
# but for the two below; these keys are the config file's format.
_FLAT_NAMES = {("manifold", "dim"): "manifold_dim", ("similarity", "binary"): "binary_similarity"}
_TRAIN_FIELDS = {
    _FLAT_NAMES.get((section, f.name), f.name): (section, f.name)
    for section, cls in [(None, TrainConfig), *_SECTIONS.items()]
    for f in dataclasses.fields(cls)
    if f.name not in _SECTIONS
}


def _flatten(config: TrainConfig) -> dict:
    """``config``'s values under their flat keys, tuples as lists."""
    values = {}
    for key, (section, name) in _TRAIN_FIELDS.items():
        value = getattr(config if section is None else getattr(config, section), name)
        values[key] = list(value) if isinstance(value, tuple) else value
    return values


@dataclass
class _RunSettings:
    """The CLI's own settings; RunConfig adds TrainConfig's fields to them."""

    dataset: str | None = None
    out_dir: str | None = None
    checkpoint_every: int = 0
    eval_every: int = 0
    recall_ks: list = field(default_factory=lambda: [1, 2, 4, 8])

    @classmethod
    def from_file(cls, path: str | Path) -> RunConfig:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise UserError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UserError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise UserError(f"config {path} is not a table")
        unknown = set(raw) - set(_DEFAULTS)
        if unknown:
            raise UserError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**{key: _checked(key, value) for key, value in raw.items()})

    def apply_overrides(self, overrides: list[str]) -> None:
        """Apply repeated ``--set key=value`` flags, parsed by the key's type."""
        for item in overrides:
            if "=" not in item:
                raise UserError(f"--set expects key=value, got {item!r}")
            key, _, text = item.partition("=")
            key = key.strip()
            if key not in _DEFAULTS:
                raise UserError(f"unknown config key {key!r}")
            setattr(self, key, _checked(key, _parse_text(_DEFAULTS[key], text.strip())))

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

    def with_train_config(self, config: TrainConfig) -> RunConfig:
        """A copy whose training fields are read from ``config``."""
        return dataclasses.replace(self, **_flatten(config))


# The flat run configuration: the CLI's own settings plus every training key,
# whose default, and so its value type, is TrainConfig's.
RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [
        (key, type(value), field(default_factory=lambda value=value: copy.copy(value)))
        for key, value in _flatten(TrainConfig()).items()
    ],
    bases=(_RunSettings,),
    namespace={"__module__": __name__},
)
_DEFAULTS = dataclasses.asdict(RunConfig())


def _checked(key: str, value):
    """``value`` when it has the JSON type of ``key``'s default; floats take ints."""
    default = _DEFAULTS[key]
    if isinstance(default, bool):
        kind, ok = "a boolean", isinstance(value, bool)
    elif isinstance(default, int):
        kind, ok = "an integer", type(value) is int
    elif isinstance(default, float):
        kind, ok = "a number", type(value) in (int, float)
    elif isinstance(default, list):
        kind, ok = "a list of integers", type(value) is list and all(type(v) is int for v in value)
    else:
        kind, ok = "a string or null", value is None or isinstance(value, str)
    if not ok:
        raise UserError(f"{key} expects {kind}, got {value!r}")
    return value


def _parse_text(default, text: str):
    """A ``--set`` value typed like ``default``; text that does not parse stays text."""
    if isinstance(default, bool):
        words = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
        return words.get(text.lower(), text)
    try:
        if isinstance(default, list):
            return [int(v) for v in text.split(",")] if text else []
        if isinstance(default, (int, float)):
            return type(default)(text)
    except ValueError:
        pass
    return text


# gen's flags are SyntheticSpec's fields, dashed, with the spec's defaults; two
# take shorter names.
_GEN_FLAGS = {"n_classes": "classes", "noise_sigma": "noise"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; those are user errors.
    def error(self, message):
        raise UserError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="plmetric", description=__doc__)
    parser.add_argument("--threads", type=int, default=1, help="intra-step thread cap")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic linear-patch dataset")
    for f in dataclasses.fields(SyntheticSpec):
        flag = _GEN_FLAGS.get(f.name, f.name).replace("_", "-")
        kind = float if f.default is None else type(f.default)
        gen.add_argument(f"--{flag}", dest=f.name, type=kind, default=f.default)
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
    ev.add_argument("--recall-k", type=int, nargs="+", default=_DEFAULTS["recall_ks"])

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
        fields = dataclasses.fields(SyntheticSpec)
        spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields})
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


def _evaluate(embeds, labels, config: TrainConfig, recall_ks) -> evaluation.EvalReport:
    # A K or pool size larger than the dataset allows is the operator's mistake.
    try:
        return evaluation.evaluate_embeddings(
            embeds, labels, config.manifold, config.similarity, recall_ks, config.seed
        )
    except ValueError as exc:
        raise UserError(str(exc)) from None


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
    report = _evaluate(embeds, dataset.labels, run.config, args.recall_k)
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
    report = _evaluate(embeds, dataset.labels, train_config, config.recall_ks)
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
