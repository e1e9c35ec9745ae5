"""Training loop: losses, batch sampling, parameter updates, checkpoints.

Each step embeds the batch twice. The momentum twin produces the embeddings
that neighborhoods, similarities, and proxies are measured against; the
trained network produces the embeddings whose pairwise distances are pulled
toward the similarity targets. Gradients are routed strictly: the encoder
learns only from the point and proxy distance losses, the proxies learn only
from the proxy and neighborhood losses.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import embedder, linalg, manifold, similarity
from .data import FeatureDataset
from .embedder import AdamState, EmbedderPair
from .manifold import ManifoldConfig, ProxySet
from .similarity import SimilarityConfig

CHECKPOINT_MAGIC = b"PLCK"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file cannot be parsed."""


@dataclass(frozen=True)
class SamplerConfig:
    """Seed-and-neighbors batch construction.

    A batch is ``n_seeds`` random distinct seed points, each bringing its
    ``batch_size / n_seeds - 1`` nearest neighbors under the current epoch's
    momentum embeddings, so local structure is always present in a batch.
    """

    batch_size: int = 100
    n_seeds: int = 10
    augment_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.n_seeds < 1:
            raise ValueError("batch_size and n_seeds must be positive")
        if self.batch_size % self.n_seeds != 0:
            raise ValueError("batch_size must be divisible by n_seeds")
        if not 0.0 <= self.augment_sigma < math.inf:
            raise ValueError("augment_sigma must be finite and non-negative")

    @property
    def group_size(self) -> int:
        return self.batch_size // self.n_seeds


@dataclass(frozen=True)
class LossConfig:
    """Loss weights and the target distance scale.

    ``distance_scale`` stretches dissimilarity into embedding distance: a
    pair with similarity s is pulled toward distance distance_scale * (1-s).
    ``stopgrad_similarity`` treats similarities as constants even for the
    proxy parameters (ablation).
    """

    distance_scale: float = 2.0
    point_weight: float = 1.0
    proxy_weight: float = 1.0
    neighborhood_weight: float = 1.0
    stopgrad_similarity: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.distance_scale < math.inf:
            raise ValueError("distance_scale must be finite and positive")
        for name in ("point_weight", "proxy_weight", "neighborhood_weight"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class TrainConfig:
    """Everything needed to reproduce a run from a root seed."""

    manifold: ManifoldConfig = field(default_factory=ManifoldConfig)
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    hidden_sizes: tuple[int, ...] = (256,)
    embed_dim: int = 32
    init_gain: float = 1.0
    momentum: float = 0.999
    lr: float = 5e-4
    proxy_lr_scale: float = 100.0
    n_proxies: int = 100
    epochs: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        # A stored config's type rule, so that every run saves and loads.
        _check_types(TrainConfig, vars(self))
        for name, cls in CONFIG_SECTIONS.items():
            _check_types(cls, vars(getattr(self, name)), f".{name}")
        if self.embed_dim < 1 or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("network sizes must be positive")
        if self.embed_dim <= self.manifold.dim:
            raise ValueError("embed_dim must exceed the neighborhood dimension")
        if not (0.0 < self.lr < math.inf and 0.0 < self.proxy_lr_scale < math.inf):
            raise ValueError("learning rates must be finite and positive")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must lie in [0, 1]")
        if self.n_proxies < 1:
            raise ValueError("n_proxies must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0.0 < self.init_gain < math.inf:
            raise ValueError("init_gain must be finite and positive")
        if self.sampler.batch_size <= self.manifold.pool_size:
            raise ValueError("batch_size must exceed the neighborhood pool_size")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))


# The nested config class of each TrainConfig section; checkpoints read it.
# The CLI's flat run config takes its training keys, defaults and value types
# from these classes and TrainConfig's own fields, so renaming a field renames
# a config-file key.
CONFIG_SECTIONS = {
    f.name: f.default_factory
    for f in dataclasses.fields(TrainConfig)
    if dataclasses.is_dataclass(f.default_factory)
}


@dataclass(frozen=True)
class StepMetrics:
    """Loss breakdown for one optimization step."""

    epoch: int
    step: int
    point: float
    proxy: float
    neighborhood: float
    total: float

    def as_record(self) -> dict:
        return {"kind": "step", **asdict(self)}


def _check_terms(name: str, terms: np.ndarray, first_row: int = 0) -> None:
    # first_row: the table row of terms[0] when terms is a block of rows.
    if not np.all(np.isfinite(terms)):
        row, *rest = (int(v) for v in np.argwhere(~np.isfinite(terms))[0])
        raise FloatingPointError(f"non-finite {name} loss term at index {(row + first_row, *rest)}")


def point_loss(
    embeddings: np.ndarray,
    similarities: np.ndarray,
    config: LossConfig,
    with_grads: bool = True,
) -> tuple[float, np.ndarray | None]:
    """Mean squared gap between target and actual pairwise distances.

    For every ordered pair i != j the target distance is
    distance_scale * (1 - s_ij); the residual against |e_i - e_j| is squared
    and averaged. Returns the loss and its gradient w.r.t. the embeddings
    (None when ``with_grads`` is off). Similarities are taken as constants.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    s = np.asarray(similarities, dtype=np.float64)
    n = e.shape[0]
    if s.shape != (n, n):
        raise ValueError(f"similarity matrix shape {s.shape} does not match {n} embeddings")
    if n < 2:
        raise ValueError("point loss needs at least two embeddings")
    diff_sq = np.sum(e**2, axis=1)[:, None] + np.sum(e**2, axis=1)[None, :] - 2.0 * e @ e.T
    dist = np.sqrt(np.maximum(diff_sq, 0.0))
    np.fill_diagonal(dist, 0.0)
    resid = config.distance_scale * (1.0 - s) - dist
    np.fill_diagonal(resid, 0.0)
    _check_terms("point", resid)
    count = n * (n - 1)
    value = float(np.sum(resid**2) / count)
    if not with_grads:
        return value, None
    # d value / d dist, symmetrized over the two ordered copies of each pair.
    d_dist = -2.0 * resid / count
    np.fill_diagonal(d_dist, 0.0)
    coef = d_dist + d_dist.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dist > 0.0, coef / np.where(dist > 0.0, dist, 1.0), 0.0)
    grad = ratio.sum(axis=1)[:, None] * e - ratio @ e
    return value, grad


def proxy_loss(
    embeddings: np.ndarray,
    proxies: ProxySet,
    proxy_sims: np.ndarray,
    config: LossConfig,
    with_grads: bool = True,
) -> tuple[float, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Point-to-proxy analog of the point loss.

    Every (point, proxy) pair contributes the squared gap between the target
    distance distance_scale * (1 - s_ij) and |e_i - rho_j|, with s the (n, P)
    values of a similarity.proxy_pass. Returns the loss, its gradients w.r.t.
    the embeddings and, through the distances, the proxy locations, and its
    weights dL/ds (n, P): the pass's pullback turns those into the proxy
    gradients that flow through the similarities themselves.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    locations = proxies.locations
    s = np.asarray(proxy_sims, dtype=np.float64)
    n, n_prox = s.shape
    if e.shape[0] != n or locations.shape[0] != n_prox:
        raise ValueError("similarity table does not match embeddings/proxies")
    dist = np.sqrt(np.maximum(linalg.squared_distances(e, locations), 0.0))
    resid = config.distance_scale * (1.0 - s) - dist
    _check_terms("proxy", resid)
    count = n * n_prox
    value = float(np.sum(resid**2) / count)
    if not with_grads:
        return value, None, None, None
    d_dist = -2.0 * resid / count
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dist > 0.0, d_dist / np.where(dist > 0.0, dist, 1.0), 0.0)
    grad_e = ratio.sum(axis=1)[:, None] * e - ratio @ locations
    grad_loc = ratio.sum(axis=0)[:, None] * locations - ratio.T @ e
    d_sim = -2.0 * config.distance_scale * resid / count
    return value, grad_e, grad_loc, d_sim


def neighborhood_loss(
    point_bases: np.ndarray,
    proxies: ProxySet,
    proxy_sims: np.ndarray,
    config: LossConfig,
    with_grads: bool = True,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Alignment loss between proxy frames and nearby point planes.

    For point i, proxy j, and frame row k, the cosine of the angle between
    frame vector psi_jk and the point's plane is |P_i psi_jk| (psi_jk is unit
    norm). The loss pushes that cosine toward the point-proxy similarity s
    (n, P), so frames of proxies near a point rotate into the point's local
    plane. Returns the loss, its frame gradient through the cosines, and its
    weights dL/ds for the pullback of a similarity.proxy_pass. A non-finite
    term is reported by its (point, proxy, frame row) index. ``config`` is
    unused.

    The projections run for a block of points at a time
    (``similarity.stack_blocks``); the loss and the frame gradient then add
    the points one at a time, in order, so the sums keep the bits of a loop
    over points.
    """
    bases = np.asarray(point_bases, dtype=np.float64)
    s = np.asarray(proxy_sims, dtype=np.float64)
    n, plane_dim, dim = bases.shape
    n_prox = proxies.n_proxies
    if s.shape != (n, n_prox):
        raise ValueError("similarity table does not match embeddings/proxies")
    frames_flat = proxies.frames.reshape(n_prox * plane_dim, dim)
    count = n * n_prox * plane_dim
    value = 0.0
    grad_frames = np.zeros_like(proxies.frames)
    d_sim = np.zeros((n, n_prox))
    for blk in similarity.stack_blocks(n, n_prox * plane_dim * dim):
        coords = np.matmul(frames_flat, np.swapaxes(bases[blk], -1, -2))
        cosines = np.linalg.norm(coords, axis=-1).reshape(-1, n_prox, plane_dim)
        resid = s[blk, :, None] - cosines
        _check_terms("neighborhood", resid, blk.start)
        for term in np.sum((resid**2).reshape(len(resid), -1), axis=1):
            value += float(term)
        if not with_grads:
            continue
        d_cos = -2.0 * resid / count
        d_sim[blk] = np.sum(2.0 * resid / count, axis=-1)
        # d cos / d psi = P_i psi / cos, with the zero-cosine subgradient 0.
        scale = (d_cos * similarity._inv_or_zero(cosines)).reshape(-1, n_prox * plane_dim, 1)
        pulls = scale * np.matmul(coords, bases[blk])
        for pull in pulls.reshape(-1, n_prox, plane_dim, dim):
            grad_frames += pull
    value /= count
    if not with_grads:
        return value, None, None
    return value, grad_frames, d_sim


def sample_batch(
    neighbor_pools: np.ndarray, config: SamplerConfig, rng: np.random.Generator
) -> np.ndarray:
    """Draw one batch of indices: distinct seeds plus their neighbor groups."""
    n = neighbor_pools.shape[0]
    if n < config.n_seeds:
        raise ValueError(f"cannot draw {config.n_seeds} distinct seeds from {n} points")
    group = config.group_size
    if group > 1 and neighbor_pools.shape[1] < group - 1:
        raise ValueError("neighbor pools are narrower than the group size")
    seeds = rng.choice(n, size=config.n_seeds, replace=False)
    groups = np.concatenate([seeds[:, None], neighbor_pools[seeds, : group - 1]], axis=1)
    return groups.ravel().astype(np.int64)


@dataclass
class LossBreakdown:
    point: float
    proxy: float
    neighborhood: float
    total: float


class Trainer:
    """Owns all mutable training state and advances it epoch by epoch."""

    def __init__(
        self,
        dataset: FeatureDataset,
        config: TrainConfig,
        pair: EmbedderPair,
        proxies: ProxySet,
        rng_sampler: np.random.Generator,
        rng_augment: np.random.Generator,
        epoch: int = 0,
        global_step: int = 0,
        history: list | None = None,
    ):
        if dataset.n_samples < config.sampler.batch_size:
            raise ValueError("dataset is smaller than one batch")
        self.dataset = dataset
        self.config = config
        self.pair = pair
        self.proxies = proxies
        self.adam_encoder = AdamState.for_tensors(pair.trained.tensors(), config.lr)
        self.adam_proxies = AdamState.for_tensors(
            [proxies.locations, proxies.frames], config.lr * config.proxy_lr_scale
        )
        self.rng_sampler = rng_sampler
        self.rng_augment = rng_augment
        self.epoch = epoch
        self.global_step = global_step
        self.history = history if history is not None else []

    @classmethod
    def initialize(cls, dataset: FeatureDataset, config: TrainConfig) -> "Trainer":
        """Build fresh state from the root seed.

        The root seed is split into independent streams for weight init,
        proxy placement, batch sampling, and augmentation noise, so toggling
        one consumer never shifts another.
        """
        root = np.random.SeedSequence(config.seed)
        init_seq, proxy_seq, sampler_seq, augment_seq = root.spawn(4)
        layer_sizes = (dataset.dim, *config.hidden_sizes, config.embed_dim)
        pair = EmbedderPair.initialize(
            layer_sizes, init_seq, momentum=config.momentum, gain=config.init_gain
        )
        start_embeds = embedder.forward(pair.averaged, dataset.features)
        proxies = manifold.init_proxies(start_embeds, config.manifold, config.n_proxies, proxy_seq)
        return cls(
            dataset,
            config,
            pair,
            proxies,
            np.random.default_rng(sampler_seq),
            np.random.default_rng(augment_seq),
        )

    # -- one optimization step -------------------------------------------

    def loss_values(self, x_batch: np.ndarray) -> LossBreakdown:
        """Loss evaluation at the current state: step_gradients' losses."""
        return self.step_gradients(x_batch)[0]

    def step_gradients(self, x_batch: np.ndarray):
        """Losses plus analytic gradients, without touching any state.

        Returns (losses, encoder_grads, grad_locations, grad_frames) where
        encoder_grads aligns with ``pair.trained.tensors()``.
        """
        cfg = self.config
        anchor_embeds = embedder.forward(self.pair.averaged, x_batch)
        neighborhoods = manifold.Neighborhoods.of(
            manifold.fit_all_neighborhoods(anchor_embeds, cfg.manifold)
        )
        bases = neighborhoods.bases
        point_sims = similarity.pairwise_similarity_matrix(
            anchor_embeds, neighborhoods, cfg.similarity
        )
        # One pass splits every plane once; its pullback, when the losses
        # reach the proxies through the similarities, reuses the splits.
        proxy_pass = similarity.proxy_pass(anchor_embeds, bases, self.proxies, cfg.similarity)
        proxy_sims = proxy_pass.values
        trained_embeds, cache = embedder.forward_cached(self.pair.trained, x_batch)
        l_point, g_point = point_loss(trained_embeds, point_sims, cfg.loss)
        l_proxy, g_proxy_e, g_loc_p, d_sim_p = proxy_loss(
            trained_embeds, self.proxies, proxy_sims, cfg.loss
        )
        l_nbhd, g_frames_n, d_sim_n = neighborhood_loss(bases, self.proxies, proxy_sims, cfg.loss)
        w = cfg.loss
        losses = LossBreakdown(
            l_point,
            l_proxy,
            l_nbhd,
            w.point_weight * l_point + w.proxy_weight * l_proxy + w.neighborhood_weight * l_nbhd,
        )
        # Routing: the encoder feels only the two distance losses, the proxy
        # parameters only the proxy and neighborhood losses.
        grad_embeds = w.point_weight * g_point + w.proxy_weight * g_proxy_e
        encoder_grads = embedder.backward(self.pair.trained, cache, grad_embeds)
        g_frames_p = np.zeros_like(self.proxies.frames)
        g_loc_n = np.zeros_like(self.proxies.locations)
        if not w.stopgrad_similarity:
            # Both losses also reach the proxies through the similarities.
            pulled_loc, pulled_frames = proxy_pass.pullback(np.stack([d_sim_p, d_sim_n]))
            g_loc_p = g_loc_p + pulled_loc[0]
            g_frames_p, g_loc_n = pulled_frames[0], pulled_loc[1]
            g_frames_n = g_frames_n + pulled_frames[1]
        grad_loc = w.proxy_weight * g_loc_p + w.neighborhood_weight * g_loc_n
        grad_frames = w.proxy_weight * g_frames_p + w.neighborhood_weight * g_frames_n
        return losses, encoder_grads, grad_loc, grad_frames

    def _augment(self, x_batch: np.ndarray) -> np.ndarray:
        sigma = self.config.sampler.augment_sigma
        if sigma == 0.0:
            return x_batch
        # Two independently perturbed views replace each clean row.
        doubled = np.repeat(x_batch, 2, axis=0)
        return doubled + sigma * self.rng_augment.standard_normal(doubled.shape)

    def train_step(self, batch_indices: np.ndarray, step_in_epoch: int = 0) -> StepMetrics:
        """One full update: gradients, Adam, proxy maintenance, EMA."""
        x_batch = self._augment(self.dataset.features[batch_indices])
        losses, encoder_grads, grad_loc, grad_frames = self.step_gradients(x_batch)
        embedder.adam_step(self.adam_encoder, self.pair.trained.tensors(), encoder_grads)
        embedder.adam_step(
            self.adam_proxies,
            [self.proxies.locations, self.proxies.frames],
            [grad_loc, grad_frames],
        )
        self.proxies.renormalize_locations()
        self.proxies.reorthonormalize_frames()
        self.pair.ema_update()
        self.global_step += 1
        return StepMetrics(
            self.epoch, step_in_epoch, losses.point, losses.proxy, losses.neighborhood, losses.total
        )

    # -- epoch loop --------------------------------------------------------

    def run_epoch(self, log_fn=None) -> list[StepMetrics]:
        """One pass over the data: refresh pools, then ceil(n / B) steps."""
        cfg = self.config
        pool_embeds = embedder.forward(self.pair.averaged, self.dataset.features)
        group = cfg.sampler.group_size
        if group > 1:
            pools = manifold.neighbor_lists(pool_embeds, group - 1)
        else:
            pools = np.zeros((self.dataset.n_samples, 0), dtype=np.int64)
        n_steps = -(-self.dataset.n_samples // cfg.sampler.batch_size)
        metrics = []
        for step in range(n_steps):
            batch = sample_batch(pools, cfg.sampler, self.rng_sampler)
            m = self.train_step(batch, step)
            metrics.append(m)
            self.history.append(m.as_record())
            if log_fn is not None:
                log_fn(m)
        self.epoch += 1
        return metrics

    def run(self, log_fn=None, on_epoch_end=None) -> None:
        """Advance to ``config.epochs``; hooks fire after every epoch."""
        while self.epoch < self.config.epochs:
            self.run_epoch(log_fn)
            if on_epoch_end is not None:
                on_epoch_end(self)

    def embed(self, features: np.ndarray) -> np.ndarray:
        """Embed arbitrary features with the trained network."""
        return embedder.forward(self.pair.trained, np.asarray(features, dtype=np.float64))


# -- checkpoint serialization ---------------------------------------------


def mismatched_type(default, value) -> str | None:
    """None when ``value`` has ``default``'s JSON type, else that type's name.

    A number takes an integer or a float (numpy's float64 among them), an
    integer is not a boolean, a list or tuple takes a list or tuple of
    integers, and anything else a string or None.
    """
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "a boolean"
    if isinstance(default, int):
        return None if type(value) is int else "an integer"
    if isinstance(default, float):
        return None if type(value) is int or isinstance(value, float) else "a number"
    if isinstance(default, (list, tuple)):
        ok = type(value) in (list, tuple) and all(type(v) is int for v in value)
        return None if ok else "a list of integers"
    return None if value is None or isinstance(value, str) else "a string or null"


def _check_types(cls, values: dict, where: str = "") -> None:
    """Raise ValueError for the first field of config class ``cls`` whose
    value in ``values`` has not its default's JSON type (mismatched_type)."""
    for f in dataclasses.fields(cls):
        # The sections have no plain default: they are tables, checked apart.
        kind = f.default is not dataclasses.MISSING and mismatched_type(f.default, values[f.name])
        if kind:
            raise ValueError(f"config{where}.{f.name} expects {kind}, got {values[f.name]!r}")


def config_from_dict(raw: dict) -> TrainConfig:
    """Build a TrainConfig from its ``asdict`` form, one table per section.

    Raises ValueError when a table lacks a field, holds one that the config
    does not have or holds a value whose JSON type is not its default's
    (``mismatched_type``), besides what the configs' own checks raise.
    """

    def build(cls, values, where=""):
        if not isinstance(values, dict):
            raise ValueError(f"config{where} is not a table")
        names = {f.name for f in dataclasses.fields(cls)}
        if set(values) != names:
            raise ValueError(
                f"config{where}: unknown fields {sorted(set(values) - names)}, "
                f"missing fields {sorted(names - set(values))}"
            )
        _check_types(cls, values, where)
        if cls is TrainConfig:
            nested = {s: build(sub, values[s], f".{s}") for s, sub in CONFIG_SECTIONS.items()}
            values = {**values, **nested}
        return cls(**values)

    return build(TrainConfig, raw)


def _tensor_entries(trainer: Trainer) -> list[tuple[str, np.ndarray]]:
    # Every saved tensor with its name, in file order.
    proxies = {"locations": trainer.proxies.locations, "frames": trainer.proxies.frames}
    groups = [
        ("trained", enumerate(trainer.pair.trained.tensors())),
        ("averaged", enumerate(trainer.pair.averaged.tensors())),
        ("adam_encoder.m", enumerate(trainer.adam_encoder.m)),
        ("adam_encoder.v", enumerate(trainer.adam_encoder.v)),
        ("proxies", proxies.items()),
        ("adam_proxies.m", enumerate(trainer.adam_proxies.m)),
        ("adam_proxies.v", enumerate(trainer.adam_proxies.v)),
    ]
    return [(f"{prefix}.{key}", tensor) for prefix, items in groups for key, tensor in items]


def save_checkpoint(trainer: Trainer, path: str | Path) -> None:
    """Serialize the full training state, bit-exactly, to one file.

    Layout: magic, u16 version, u64 manifest length, JSON manifest, then the
    raw float64 little-endian tensor payloads in manifest order, one per
    ``_tensor_entries`` name. The bytes go to a sibling temporary file that
    is renamed over ``path`` once complete, so a failed save leaves the file
    already at ``path`` intact and removes its temporary file.
    """
    entries = _tensor_entries(trainer)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "epoch": trainer.epoch,
        "global_step": trainer.global_step,
        "config": asdict(trainer.config),
        "adam_encoder_steps": trainer.adam_encoder.step_count,
        "adam_proxies_steps": trainer.adam_proxies.step_count,
        "rng_sampler": trainer.rng_sampler.bit_generator.state,
        "rng_augment": trainer.rng_augment.bit_generator.state,
        "history": trainer.history,
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in entries],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    partial = Path(f"{path}.{os.getpid()}.part")
    try:
        with open(partial, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<HQ", CHECKPOINT_VERSION, len(blob)))
            fh.write(blob)
            for _, tensor in entries:
                fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


# The keys save_checkpoint writes; a manifest lacking one is malformed.
_MANIFEST_KEYS = (
    "version", "epoch", "global_step", "config", "adam_encoder_steps",
    "adam_proxies_steps", "rng_sampler", "rng_augment", "history", "tensors",
)


def load_checkpoint(path: str | Path) -> tuple[dict, dict]:
    """Read a checkpoint into (manifest, {tensor name: float64 array}).

    Raises CheckpointFormatError for a file that is not a well-formed
    checkpoint: bad header, truncated or trailing bytes, a manifest missing
    a required key, a counter that is not a non-negative int, a history
    that is not a list, an RNG state that numpy rejects, a tensor entry
    without a name or a list of non-negative int dimensions, a name stored
    twice, a tensor with a NaN or infinite entry, or a config that
    config_from_dict rejects. Tensor names and shapes are checked against
    the config by trainer_from_checkpoint.
    """
    blob = Path(path).read_bytes()
    header = 4 + struct.calcsize("<HQ")
    if len(blob) < header or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint file")
    version, manifest_len = struct.unpack_from("<HQ", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
    if len(blob) < header + manifest_len:
        raise CheckpointFormatError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(blob[header : header + manifest_len].decode("utf-8"))
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: unreadable manifest ({exc})") from None
    if not isinstance(manifest, dict):
        raise CheckpointFormatError(f"{path}: manifest is not a table")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise CheckpointFormatError(f"{path}: manifest is missing {', '.join(missing)}")
    for key in ("epoch", "global_step", "adam_encoder_steps", "adam_proxies_steps"):
        if type(manifest[key]) is not int or manifest[key] < 0:
            raise CheckpointFormatError(f"{path}: {key} {manifest[key]!r} is not a count")
    if not isinstance(manifest["history"], list):
        raise CheckpointFormatError(f"{path}: history is not a list")
    for key in ("rng_sampler", "rng_augment"):
        try:
            _restore_rng(manifest[key])
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise CheckpointFormatError(f"{path}: bad {key} state ({exc})") from None
    try:
        config_from_dict(manifest["config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad config: {exc}") from None
    if not isinstance(manifest["tensors"], list):
        raise CheckpointFormatError(f"{path}: manifest tensors is not a list")
    offset = header + manifest_len
    tensors = {}
    for entry in manifest["tensors"]:
        # {"name": str, "shape": [non-negative ints]}, as save_checkpoint writes.
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if (
            not isinstance(shape, list)
            or not all(type(v) is int and v >= 0 for v in shape)
            or not isinstance(entry.get("name"), str)
        ):
            raise CheckpointFormatError(f"{path}: bad tensor entry {entry!r}")
        if entry["name"] in tensors:
            raise CheckpointFormatError(f"{path}: tensor {entry['name']} is stored twice")
        shape = tuple(shape)
        size = math.prod(shape)
        nbytes = size * 8
        if len(blob) < offset + nbytes:
            raise CheckpointFormatError(f"{path}: truncated tensor {entry['name']}")
        tensor = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(shape)
        if not np.isfinite(tensor).all():
            raise CheckpointFormatError(f"{path}: tensor {entry['name']} has non-finite entries")
        tensors[entry["name"]] = tensor.astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointFormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return manifest, tensors


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def trainer_from_checkpoint(path: str | Path, dataset: FeatureDataset) -> Trainer:
    """Rebuild a Trainer mid-run; resuming continues the exact step stream.

    The stored config shapes a blank run: zero networks of (dataset.dim,
    *hidden_sizes, embed_dim), zero proxies of (n_proxies, embed_dim) and
    (n_proxies, manifold.dim, embed_dim), and Adam states to match. Each
    stored tensor is copied into the array that ``_tensor_entries``, the
    list save_checkpoint writes, names for it. CheckpointFormatError names a
    tensor that is missing, unexpected or of another shape; it is raised for
    proxies off their invariants too. An input dim other than the dataset's
    raises ValueError.
    """
    manifest, tensors = load_checkpoint(path)
    config = config_from_dict(manifest["config"])
    # Zero gain draws every weight from U(0, 0): two zero networks.
    sizes = (dataset.dim, *config.hidden_sizes, config.embed_dim)
    pair = EmbedderPair.initialize(sizes, 0, momentum=config.momentum, gain=0.0)
    p, d = config.n_proxies, config.embed_dim
    proxies = ProxySet(np.zeros((p, d)), np.zeros((p, config.manifold.dim, d)))
    run = Trainer(
        dataset, config, pair, proxies,
        _restore_rng(manifest["rng_sampler"]), _restore_rng(manifest["rng_augment"]),
        manifest["epoch"], manifest["global_step"], manifest["history"],
    )
    run.adam_encoder.step_count = manifest["adam_encoder_steps"]
    run.adam_proxies.step_count = manifest["adam_proxies_steps"]
    entries = _tensor_entries(run)
    w0 = tensors.get(next(name for name, t in entries if t is pair.trained.weights[0]))
    if w0 is not None and w0.ndim == 2 and w0.shape[0] != dataset.dim:
        raise ValueError(f"checkpoint expects input dim {w0.shape[0]}, dataset has {dataset.dim}")
    for name, target in entries:
        stored = tensors.pop(name, None)
        if stored is None or stored.shape != target.shape:
            found = "missing" if stored is None else f"of shape {list(stored.shape)}"
            raise CheckpointFormatError(
                f"{path}: tensor {name} is {found}, the config implies {list(target.shape)}"
            )
        target[...] = stored
    if tensors:
        raise CheckpointFormatError(f"{path}: unexpected tensors {sorted(tensors)}")
    try:
        run.proxies.validate()
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: invalid proxies ({exc})") from None
    return run
