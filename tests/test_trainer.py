"""Tests for losses, batch sampling, the training step, and checkpoints."""

import dataclasses
import json
import re
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from plmetric import embedder, evaluation, linalg, manifold, similarity, trainer
from plmetric.data import FeatureDataset, SyntheticSpec, generate_synthetic
from plmetric.manifold import ManifoldConfig, ProxySet
from plmetric.similarity import SimilarityConfig
from plmetric.trainer import (
    LossConfig,
    SamplerConfig,
    TrainConfig,
    Trainer,
    load_checkpoint,
    neighborhood_loss,
    point_loss,
    proxy_loss,
    sample_batch,
    save_checkpoint,
    trainer_from_checkpoint,
)

from oracles import central_difference_gradient, relative_gradient_error, same_bits
from test_similarity import stacked_scene

FIXTURE = Path(__file__).parent / "fixtures" / "tiny_epoch1.plck"


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _loss_scene(seed=0, n=8, d=6, plane_dim=2, n_proxies=3):
    """Momentum embeddings, trained embeddings, neighborhoods, proxies."""
    rng = np.random.default_rng(seed)
    anchor = _unit_rows(rng, n, d)
    trained = _unit_rows(rng, n, d)
    cfg = ManifoldConfig(dim=plane_dim, quality_threshold=50.0, pool_size=plane_dim + 2)
    nbhds = manifold.fit_all_neighborhoods(anchor, cfg)
    bases = nbhds.bases
    proxies = manifold.init_proxies(anchor, cfg, n_proxies, seed=seed + 1)
    proxies.locations[:] = _unit_rows(rng, n_proxies, d)
    return anchor, trained, nbhds, bases, proxies


class TestPointLoss:
    def test_zero_when_distances_match_targets(self):
        # Two points at distance exactly distance_scale * (1 - s).
        s = 0.5
        cfg = LossConfig(distance_scale=2.0)
        e = np.array([[0.0, 0.0], [1.0, 0.0]])
        sims = np.array([[1.0, s], [s, 1.0]])
        value, grad = point_loss(e, sims, cfg)
        assert value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_known_two_point_value(self):
        # Distance 1, similarity 0 -> residual delta - 1 per ordered pair.
        cfg = LossConfig(distance_scale=2.0)
        e = np.array([[0.0, 0.0], [1.0, 0.0]])
        sims = np.array([[1.0, 0.0], [0.0, 1.0]])
        value, _ = point_loss(e, sims, cfg)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        anchor, trained, nbhds, _, _ = _loss_scene(seed=2)
        sims = similarity.pairwise_similarity_matrix(anchor, nbhds, SimilarityConfig())
        cfg = LossConfig()
        _, grad = point_loss(trained, sims, cfg)
        numeric = central_difference_gradient(
            lambda e: point_loss(e, sims, cfg)[0], trained.copy()
        )
        assert relative_gradient_error(grad, numeric) < 1e-6

    def test_coincident_points_have_zero_distance_subgradient(self):
        cfg = LossConfig()
        e = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sims = np.full((3, 3), 0.5)
        value, grad = point_loss(e, sims, cfg)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))

    def test_non_finite_similarity_is_reported(self):
        e = np.array([[0.0, 0.0], [1.0, 0.0]])
        sims = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(FloatingPointError, match=r"point loss term at index \(0, 1\)"):
            point_loss(e, sims, LossConfig())


def _pulled(anchor, bases, proxies, sim_cfg, loss_out):
    # A loss's proxy gradients through its similarity weights (last slot).
    proxy_pass = similarity.proxy_pass(anchor, bases, proxies, sim_cfg)
    grad_loc, grad_frames = proxy_pass.pullback(loss_out[-1][None])
    return grad_loc[0], grad_frames[0]


class TestProxyLoss:
    def test_gradients_match_finite_differences(self):
        # The loss's own gradients composed with the pullback of its
        # similarity weights, against differences of the whole loss.
        anchor, trained, nbhds, bases, proxies = _loss_scene(seed=3)
        sim_cfg = SimilarityConfig()
        loss_cfg = LossConfig()
        psim = similarity.proxy_similarity_batch(anchor, bases, proxies, sim_cfg)
        out = proxy_loss(trained, proxies, psim, loss_cfg)
        pulled_loc, grad_frames = _pulled(anchor, bases, proxies, sim_cfg, out)
        grad_e, grad_loc = out[1], out[2] + pulled_loc

        def loss_of_embeds(e):
            return proxy_loss(e, proxies, psim, loss_cfg)[0]

        numeric_e = central_difference_gradient(loss_of_embeds, trained.copy())
        assert relative_gradient_error(grad_e, numeric_e) < 1e-6

        def loss_of_locations(loc):
            mod = ProxySet(loc.copy(), proxies.frames.copy())
            psim_mod = similarity.proxy_similarity_batch(anchor, bases, mod, sim_cfg)
            return proxy_loss(trained, mod, psim_mod, loss_cfg, with_grads=False)[0]

        numeric_loc = central_difference_gradient(loss_of_locations, proxies.locations.copy())
        assert relative_gradient_error(grad_loc, numeric_loc) < 1e-5

        def loss_of_frames(frames):
            mod = ProxySet(proxies.locations.copy(), frames.copy())
            psim_mod = similarity.proxy_similarity_batch(anchor, bases, mod, sim_cfg)
            return proxy_loss(trained, mod, psim_mod, loss_cfg, with_grads=False)[0]

        numeric_frames = central_difference_gradient(loss_of_frames, proxies.frames.copy())
        assert relative_gradient_error(grad_frames, numeric_frames) < 1e-5

    def test_stopgrad_kills_similarity_route(self, monkeypatch):
        # With the neighbourhood loss off, the frames feel the proxy loss
        # only through the similarities: without stopgrad they get a
        # gradient; with it they get none, and the step's one pass runs no
        # pullback.
        dataset = generate_synthetic(SyntheticSpec(n_classes=3, points_per_class=20, seed=4))
        batch = dataset.features[:30]
        built, pulled = [], []
        original_pass = similarity.proxy_pass

        def counted_pass(*args):
            built.append(len(args[0]))
            proxy_pass = original_pass(*args)

            class Counted:
                values = proxy_pass.values

                def pullback(self, weights):
                    pulled.append(weights.shape)
                    return proxy_pass.pullback(weights)

            return Counted()

        monkeypatch.setattr(similarity, "proxy_pass", counted_pass)

        def frame_grads(stopgrad):
            loss = LossConfig(neighborhood_weight=0.0, stopgrad_similarity=stopgrad)
            config = TrainConfig(
                sampler=SamplerConfig(batch_size=30, n_seeds=3),
                manifold=ManifoldConfig(dim=2, pool_size=4),
                hidden_sizes=(8,), embed_dim=4, n_proxies=5, loss=loss, seed=4,
            )
            return Trainer.initialize(dataset, config).step_gradients(batch)[3]

        assert np.any(frame_grads(False) != 0.0)
        assert built == [30] and pulled == [(2, 30, 5)]
        built.clear()
        pulled.clear()
        assert np.all(frame_grads(True) == 0.0)
        assert built == [30] and pulled == []


class TestNeighborhoodLoss:
    def test_zero_when_frames_lie_in_planes_and_sims_are_one(self):
        # A proxy whose frame equals the point's plane and sims pinned at 1.
        anchor, trained, nbhds, bases, proxies = _loss_scene(seed=6, n_proxies=1)
        proxies.frames[0] = bases[0]
        value, _, _ = neighborhood_loss(bases[:1], proxies, np.ones((1, 1)), LossConfig())
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        # The frame gradient through the cosines plus the pullback of the
        # similarity weights, against differences of the whole loss.
        anchor, trained, nbhds, bases, proxies = _loss_scene(seed=7)
        sim_cfg = SimilarityConfig()
        loss_cfg = LossConfig()
        psim = similarity.proxy_similarity_batch(anchor, bases, proxies, sim_cfg)
        out = neighborhood_loss(bases, proxies, psim, loss_cfg)
        grad_loc, pulled_frames = _pulled(anchor, bases, proxies, sim_cfg, out)
        grad_frames = out[1] + pulled_frames

        def loss_of_frames(frames):
            mod = ProxySet(proxies.locations.copy(), frames.copy())
            psim_mod = similarity.proxy_similarity_batch(anchor, bases, mod, sim_cfg)
            return neighborhood_loss(bases, mod, psim_mod, loss_cfg, with_grads=False)[0]

        numeric_frames = central_difference_gradient(loss_of_frames, proxies.frames.copy())
        assert relative_gradient_error(grad_frames, numeric_frames) < 1e-5

        def loss_of_locations(loc):
            mod = ProxySet(loc.copy(), proxies.frames.copy())
            psim_mod = similarity.proxy_similarity_batch(anchor, bases, mod, sim_cfg)
            return neighborhood_loss(bases, mod, psim_mod, loss_cfg, with_grads=False)[0]

        numeric_loc = central_difference_gradient(loss_of_locations, proxies.locations.copy())
        assert relative_gradient_error(grad_loc, numeric_loc) < 1e-5

    @pytest.mark.parametrize("cells", [1, similarity.STACK_CELLS])
    def test_non_finite_term_names_point_proxy_and_row(self, monkeypatch, cells):
        # One point per block (cells = 1) and a single block report the same
        # index: point 4, proxy 3, frame row 0.
        anchor, _, _, bases, proxies = _loss_scene(seed=8, n_proxies=5)
        psim = similarity.proxy_similarity_batch(anchor, bases, proxies, SimilarityConfig())
        psim[4, 3] = np.nan
        monkeypatch.setattr(similarity, "STACK_CELLS", cells)
        with pytest.raises(FloatingPointError, match=r"neighborhood loss term at index \(4, 3, 0\)"):
            neighborhood_loss(bases, proxies, psim, LossConfig())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_point_loop_bitwise(self, data):
        # Against the loop over points it replaced (tests/oracles.py): the
        # loss value, the frame gradient and the similarity weights, signs
        # of zeros included.
        embeddings, bases, proxies, cells = stacked_scene(data)
        binary = data.draw(st.booleans(), label="binary")
        with_grads = data.draw(st.booleans(), label="grads")
        psim = similarity.proxy_similarity_batch(
            embeddings, bases, proxies, SimilarityConfig(binary=binary)
        )
        config = LossConfig()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "STACK_CELLS", cells)
            got = neighborhood_loss(bases, proxies, psim, config, with_grads)
        ref = oracles.neighborhood_loss_loop(bases, proxies, psim, config, with_grads)
        assert same_bits(got[0], ref[0])
        assert same_bits(got[1], ref[1])
        assert same_bits(got[2], ref[2])


class TestSamplerConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            SamplerConfig(batch_size=10, n_seeds=3)

    def test_group_size(self):
        assert SamplerConfig(batch_size=100, n_seeds=10).group_size == 10


class TestTrainConfig:
    @pytest.mark.parametrize("sizes", [(64.7,), (16, 8.0), (True,)])
    def test_hidden_sizes_must_be_integers(self, sizes):
        # Refused, not truncated: (64.7,) once became (64,).
        with pytest.raises(ValueError, match="config.hidden_sizes expects a list of integers"):
            TrainConfig(hidden_sizes=sizes)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_proxies": 10.5}, "config.n_proxies expects an integer, got 10.5"),
            ({"epochs": 1.5}, "config.epochs expects an integer, got 1.5"),
            ({"seed": True}, "config.seed expects an integer, got True"),
            ({"seed": np.int64(3)}, "config.seed expects an integer"),
            (
                {"sampler": SamplerConfig(batch_size=100.0)},
                "config.sampler.batch_size expects an integer, got 100.0",
            ),
        ],
        ids=["float-proxies", "float-epochs", "bool-seed", "numpy-seed", "float-section-field"],
    )
    def test_mistyped_values_refused_when_made(self, overrides, message):
        # Each was accepted, and then either made a checkpoint that
        # load_checkpoint refuses or could not be saved at all.
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**overrides)

    def test_numpy_float_saves_and_loads(self, tmp_path):
        # A float64 is a float: kept, since it saves and loads as one.
        ds, cfg = _tiny_dataset(), _tiny_config(lr=np.float64(1e-3))
        path = tmp_path / "run.plck"
        save_checkpoint(Trainer.initialize(ds, cfg), path)
        assert trainer_from_checkpoint(path, ds).config == cfg


class TestSampleBatch:
    def test_batch_is_seeds_plus_neighbor_groups(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((30, 4))
        pools = manifold.neighbor_lists(pts, 4)
        cfg = SamplerConfig(batch_size=15, n_seeds=3)
        batch = sample_batch(pools, cfg, np.random.default_rng(1))
        assert batch.shape == (15,)
        for g in range(3):
            seed = batch[g * 5]
            np.testing.assert_array_equal(batch[g * 5 + 1 : (g + 1) * 5], pools[seed])

    def test_single_seed_covers_whole_dataset(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((8, 3))
        pools = manifold.neighbor_lists(pts, 7)
        cfg = SamplerConfig(batch_size=8, n_seeds=1)
        batch = sample_batch(pools, cfg, np.random.default_rng(3))
        assert sorted(batch.tolist()) == list(range(8))
        seed = batch[0]
        dists = np.linalg.norm(pts - pts[seed], axis=1)
        assert np.all(np.diff(dists[batch[1:]]) >= 0.0)

    def test_deterministic_under_rng_state(self):
        pools = manifold.neighbor_lists(np.random.default_rng(4).standard_normal((20, 3)), 4)
        cfg = SamplerConfig(batch_size=10, n_seeds=2)
        a = sample_batch(pools, cfg, np.random.default_rng(7))
        b = sample_batch(pools, cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("batch_size, n_seeds", [(15, 3), (12, 12), (20, 4), (8, 1)])
    def test_equals_seed_by_seed_construction(self, batch_size, n_seeds):
        # Same draws and same indices as appending each seed and its
        # group - 1 nearest neighbours in turn.
        pools = manifold.neighbor_lists(np.random.default_rng(5).standard_normal((30, 3)), 7)
        cfg = SamplerConfig(batch_size=batch_size, n_seeds=n_seeds)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        batch = sample_batch(pools, cfg, rng)
        expected = []
        for seed in ref_rng.choice(30, size=n_seeds, replace=False):
            expected += [int(seed)] + [int(v) for v in pools[seed, : cfg.group_size - 1]]
        assert batch.dtype == np.int64
        np.testing.assert_array_equal(batch, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_too_few_points_raises(self):
        pools = np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="distinct seeds"):
            sample_batch(pools, SamplerConfig(batch_size=20, n_seeds=4), np.random.default_rng(0))


def _tiny_config(**overrides) -> TrainConfig:
    base = dict(
        manifold=ManifoldConfig(dim=2, quality_threshold=60.0, pool_size=4),
        similarity=SimilarityConfig(),
        sampler=SamplerConfig(batch_size=20, n_seeds=4),
        loss=LossConfig(),
        hidden_sizes=(16,),
        embed_dim=6,
        lr=1e-3,
        proxy_lr_scale=10.0,
        n_proxies=6,
        epochs=2,
        seed=11,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _tiny_dataset(seed=0, n=40, d=8) -> FeatureDataset:
    rng = np.random.default_rng(seed)
    return FeatureDataset(rng.standard_normal((n, d)))


class TestTrainer:
    def test_initialize_is_deterministic(self):
        ds = _tiny_dataset()
        cfg = _tiny_config()
        a = Trainer.initialize(ds, cfg)
        b = Trainer.initialize(ds, cfg)
        for ta, tb in zip(a.pair.trained.tensors(), b.pair.trained.tensors()):
            assert np.array_equal(ta, tb)
        assert np.array_equal(a.proxies.locations, b.proxies.locations)

    def test_run_epoch_produces_finite_metrics_and_state(self):
        ds = _tiny_dataset()
        t = Trainer.initialize(ds, _tiny_config())
        metrics = t.run_epoch()
        assert len(metrics) == 2  # ceil(40 / 20)
        for m in metrics:
            assert np.isfinite(m.total)
            assert m.total >= 0.0
        t.proxies.validate()
        assert t.epoch == 1 and t.global_step == 2

    def test_step_updates_trained_but_ema_lags(self):
        ds = _tiny_dataset()
        t = Trainer.initialize(ds, _tiny_config(momentum=0.999))
        before_trained = [x.copy() for x in t.pair.trained.tensors()]
        before_avg = [x.copy() for x in t.pair.averaged.tensors()]
        t.run_epoch()
        moved = sum(
            float(np.max(np.abs(a - b))) for a, b in zip(t.pair.trained.tensors(), before_trained)
        )
        lagged = sum(
            float(np.max(np.abs(a - b))) for a, b in zip(t.pair.averaged.tensors(), before_avg)
        )
        assert moved > 0.0
        assert 0.0 < lagged < moved

    def test_identical_step_streams_for_same_seed(self):
        ds = _tiny_dataset()
        a = Trainer.initialize(ds, _tiny_config())
        b = Trainer.initialize(ds, _tiny_config())
        ma = [m.total for m in a.run_epoch()]
        mb = [m.total for m in b.run_epoch()]
        assert ma == mb

    def test_gradient_routing_is_exact(self):
        # The encoder must not feel the neighborhood loss, the frames must
        # not feel the point loss; compare raw gradients bit for bit.
        ds = _tiny_dataset(seed=3)
        base = _tiny_config()
        with_nbhd = Trainer.initialize(ds, base)
        without_nbhd = Trainer.initialize(ds, _tiny_config(loss=LossConfig(neighborhood_weight=0.0)))
        without_point = Trainer.initialize(ds, _tiny_config(loss=LossConfig(point_weight=0.0)))
        batch = ds.features[:20]
        _, enc_a, _, _ = with_nbhd.step_gradients(batch)
        _, enc_b, _, _ = without_nbhd.step_gradients(batch)
        for ga, gb in zip(enc_a, enc_b):
            assert np.array_equal(ga, gb)
        _, _, _, frames_a = with_nbhd.step_gradients(batch)
        _, _, _, frames_b = without_point.step_gradients(batch)
        assert np.array_equal(frames_a, frames_b)

    @pytest.mark.parametrize(
        "loss", [LossConfig(), LossConfig(stopgrad_similarity=True)], ids=["full", "stopgrad"]
    )
    def test_loss_values_are_the_step_losses(self, loss):
        # loss_values is the step's own route: the same losses bit for bit
        # as step_gradients, and as the loss functions run values-only on
        # the momentum fit, the pass's values and the trained embeddings.
        ds = _tiny_dataset(seed=5)
        run = Trainer.initialize(ds, _tiny_config(loss=loss))
        run.run_epoch()
        batch = ds.features[:20]
        assert run.loss_values(batch) == run.step_gradients(batch)[0]
        cfg = run.config
        anchor = embedder.forward(run.pair.averaged, batch)
        nbhds = manifold.fit_all_neighborhoods(anchor, cfg.manifold)
        psim = similarity.proxy_similarity_batch(anchor, nbhds.bases, run.proxies, cfg.similarity)
        trained = run.embed(batch)
        point = point_loss(
            trained, similarity.pairwise_similarity_matrix(anchor, nbhds, cfg.similarity), loss, False
        )[0]
        proxy = proxy_loss(trained, run.proxies, psim, loss, False)[0]
        nbhd = neighborhood_loss(nbhds.bases, run.proxies, psim, loss, False)[0]
        got = run.loss_values(batch)
        assert (got.point, got.proxy, got.neighborhood) == (point, proxy, nbhd)

    def test_augmentation_doubles_effective_batch(self):
        ds = _tiny_dataset(seed=4)
        cfg = _tiny_config(sampler=SamplerConfig(batch_size=20, n_seeds=4, augment_sigma=0.05))
        t = Trainer.initialize(ds, cfg)
        augmented = t._augment(ds.features[:10])
        assert augmented.shape == (20, ds.dim)
        assert not np.array_equal(augmented[0], augmented[1])

    def test_training_reduces_point_loss_on_easy_data(self):
        # Two tight clusters: after a few epochs the loss should drop.
        rng = np.random.default_rng(9)
        blob_a = rng.normal(0.0, 0.05, size=(20, 8)) + 2.0
        blob_b = rng.normal(0.0, 0.05, size=(20, 8)) - 2.0
        ds = FeatureDataset(np.vstack([blob_a, blob_b]))
        cfg = _tiny_config(lr=5e-3, epochs=8)
        t = Trainer.initialize(ds, cfg)
        first = t.run_epoch()
        for _ in range(6):
            last = t.run_epoch()
        assert np.mean([m.total for m in last]) < np.mean([m.total for m in first])

    def test_batch_smaller_than_dataset_required(self):
        ds = _tiny_dataset(n=10)
        with pytest.raises(ValueError, match="smaller than one batch"):
            Trainer.initialize(ds, _tiny_config())


def _acceptance_recipe(seed: int) -> TrainConfig:
    # The recipe of the acceptance criteria 6 and 7, with its default batch.
    return TrainConfig(
        manifold=ManifoldConfig(pool_size=20),
        hidden_sizes=(64,) * 6,
        embed_dim=4,
        init_gain=12.0,
        lr=1e-2,
        momentum=0.99,
        seed=seed,
    )


@pytest.mark.parametrize(
    "recipe", [_acceptance_recipe, lambda seed: TrainConfig(seed=seed)], ids=["acceptance", "default"]
)
def test_stacked_routes_keep_training_bits(tmp_path, monkeypatch, recipe):
    # Four steps on 150 points, once as the library runs them and once with
    # the loops the stacked routes and the padded scan replaced
    # (tests/oracles.py) patched in, the proxy pass's pullback as einsums
    # over the loop's full partial tables: weights, proxies, Adam moments,
    # RNG states and history byte for byte.
    dataset = generate_synthetic(SyntheticSpec(n_classes=3, points_per_class=50, seed=2))

    def train(path):
        run = Trainer.initialize(dataset, recipe(5))
        for _ in range(2):
            run.run_epoch()
        save_checkpoint(run, path)
        return run.history

    stacked = train(tmp_path / "stacked.plck")
    monkeypatch.setattr(similarity, "pairwise_similarity_matrix", oracles.pairwise_similarity_loop)
    monkeypatch.setattr(similarity, "proxy_pass", oracles.proxy_pass_loop)
    monkeypatch.setattr(trainer, "neighborhood_loss", oracles.neighborhood_loss_loop)
    monkeypatch.setattr(manifold, "_scan_pools", oracles.scan_pools_loop)
    looped = train(tmp_path / "looped.plck")
    assert len(stacked) == 4 and stacked == looped
    assert (tmp_path / "stacked.plck").read_bytes() == (tmp_path / "looped.plck").read_bytes()


@pytest.mark.parametrize(
    "recipe", [_acceptance_recipe, lambda seed: TrainConfig(seed=seed)], ids=["acceptance", "default"]
)
def test_hot_path_builds_no_per_anchor_objects(monkeypatch, recipe):
    # A training step and an evaluation read the stacked neighbourhood
    # record: they construct no LinearNeighborhood or OrthonormalBasis and
    # take no row view of the record.
    dataset = generate_synthetic(SyntheticSpec(n_classes=3, points_per_class=50, seed=2))
    run = Trainer.initialize(dataset, recipe(5))
    pools = manifold.neighbor_lists(embedder.forward(run.pair.averaged, dataset.features), 9)
    batch = sample_batch(pools, run.config.sampler, run.rng_sampler)
    built = []

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            built.append(cls.__name__)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(manifold.LinearNeighborhood, "__init__")
    counted(linalg.OrthonormalBasis, "__init__")
    counted(manifold.Neighborhoods, "__getitem__")
    run.train_step(batch)
    cfg = run.config
    evaluation.evaluate_embeddings(
        run.embed(dataset.features), dataset.labels, cfg.manifold, cfg.similarity
    )
    assert built == []
    # The counters see what they are meant to see.
    record = manifold.fit_all_neighborhoods(run.embed(dataset.features), cfg.manifold)
    row = record[0]
    dataclasses.replace(row, member_indices=row.member_indices)
    linalg.pca_top_m(dataset.features[:5], 2)
    assert built == [
        "Neighborhoods", "OrthonormalBasis", "LinearNeighborhood", "LinearNeighborhood", "OrthonormalBasis"
    ]


@pytest.mark.parametrize(
    "recipe", [_acceptance_recipe, lambda seed: TrainConfig(seed=seed)], ids=["bench", "default"]
)
def test_step_splits_each_plane_block_once(monkeypatch, recipe):
    # One step_gradients at the benchmark's step shapes (batch 100, 100
    # proxies, 3-d planes in 4 or 32 dims) splits each block of proxy
    # planes and each block of point planes once, for the similarity
    # values and the pullback together, plus each block of the pair
    # matrix. Splits inside the neighbourhood fit (its exact accept
    # route) are not counted.
    dataset = generate_synthetic(SyntheticSpec(n_classes=3, points_per_class=50, seed=2))
    run = Trainer.initialize(dataset, recipe(5))
    pools = manifold.neighbor_lists(embedder.forward(run.pair.averaged, dataset.features), 9)
    batch = sample_batch(pools, run.config.sampler, run.rng_sampler)
    original_split, original_fit = linalg.plane_split, manifold.fit_all_neighborhoods
    fitting, split_planes = [], []

    def fit(*args, **kwargs):
        fitting.append(True)
        try:
            return original_fit(*args, **kwargs)
        finally:
            fitting.pop()

    def split(diffs, frames):
        if not fitting:
            split_planes.append(len(frames))
        return original_split(diffs, frames)

    monkeypatch.setattr(manifold, "fit_all_neighborhoods", fit)
    monkeypatch.setattr(linalg, "plane_split", split)
    run.step_gradients(dataset.features[batch])
    n, (n_prox, plane_dim, dim) = len(batch), run.proxies.frames.shape
    blocks = (
        similarity.stack_blocks(n_prox, n * plane_dim * dim)
        + similarity.stack_blocks(n, n_prox * dim)
        + similarity.stack_blocks(n, n * dim)
    )
    assert n == n_prox == 100 and dim in (4, 32)
    assert sorted(split_planes) == sorted(blk.stop - blk.start for blk in blocks)


@pytest.mark.parametrize(
    "recipe, n_train",
    [(_acceptance_recipe, 300), (lambda seed: TrainConfig(seed=seed), 500)],
    ids=["bench", "default"],
)
def test_training_starts_no_thread(monkeypatch, recipe, n_train):
    # At the benchmark's training shapes (the acceptance recipe on 300
    # points, the TrainConfig defaults on 500), set-up, an epoch of steps
    # and an evaluation of 300 points all run on the calling thread,
    # however many cores there are.
    monkeypatch.setattr(manifold, "WORKERS", 8)

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    dataset = generate_synthetic(SyntheticSpec(n_classes=n_train // 100, seed=3))
    run = Trainer.initialize(dataset, recipe(5))
    assert len(run.run_epoch()) == n_train // run.config.sampler.batch_size
    cfg = run.config
    evaluation.evaluate_embeddings(
        run.embed(dataset.features[:300]), dataset.labels[:300], cfg.manifold, cfg.similarity
    )


@pytest.mark.parametrize("n_train", [600, 2400])
def test_setup_proxies_equal_the_full_fit(n_train):
    # Set-up fits only the anchors farthest-point sampling chooses; each
    # proxy is the one the full fit of every point gave, byte for byte.
    # 600 points take the k-NN's split blocks; 2,400 (above 2 * SCAN_SHARE)
    # also split the full fit's scan into shares, the chosen anchors' not.
    assert 600 * 600 > manifold.NEIGHBOR_BLOCK_CELLS and 2400 >= 2 * manifold.SCAN_SHARE
    dataset = generate_synthetic(SyntheticSpec(n_classes=6, points_per_class=n_train // 6, seed=3))
    config = TrainConfig(seed=5)
    run = Trainer.initialize(dataset, config)
    start = embedder.forward(run.pair.averaged, dataset.features)
    proxy_seq = np.random.SeedSequence(config.seed).spawn(4)[1]
    full = manifold.fit_all_neighborhoods(start, config.manifold)
    want = oracles.init_proxies(start, full, config.n_proxies, proxy_seq)
    assert run.proxies.frames.tobytes() == want.frames.tobytes()
    assert run.proxies.locations.tobytes() == want.locations.tobytes()
    assert run.proxies.frames.flags.writeable and run.proxies.locations.flags.writeable


def test_setup_proxies_on_duplicated_grid_rows():
    # Integer grid rows, each present twice, give farthest-point sampling
    # exact distance ties, which its argmax breaks to the lowest index, and
    # once every distinct row is chosen the remaining picks are at distance
    # 0; 640 points take the k-NN's split blocks.
    rng = np.random.default_rng(11)
    grid = rng.integers(-2, 3, size=(320, 4)).astype(np.float64)
    points = np.repeat(grid, 2, axis=0)[rng.permutation(640)]
    assert 640 * 640 > manifold.NEIGHBOR_BLOCK_CELLS
    config = ManifoldConfig(pool_size=12)
    full = manifold.fit_all_neighborhoods(points, config)
    for n_proxies, seed in [(1, 0), (64, 3), (400, 7)]:
        got = manifold.init_proxies(points, config, n_proxies, seed)
        want = oracles.init_proxies(points, full, n_proxies, seed)
        assert same_bits(got.locations, want.locations) and same_bits(got.frames, want.frames)


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = _tiny_dataset(seed=5)
        t = Trainer.initialize(ds, _tiny_config())
        t.run_epoch()
        first = tmp_path / "a.plck"
        second = tmp_path / "b.plck"
        save_checkpoint(t, first)
        resumed = trainer_from_checkpoint(first, ds)
        save_checkpoint(resumed, second)
        assert first.read_bytes() == second.read_bytes()

    def test_resume_continues_exact_step_stream(self, tmp_path):
        ds = _tiny_dataset(seed=6)
        cfg = _tiny_config(epochs=4)
        straight = Trainer.initialize(ds, cfg)
        straight_metrics = []
        for _ in range(4):
            straight_metrics.extend(straight.run_epoch())

        paused = Trainer.initialize(ds, cfg)
        for _ in range(2):
            paused.run_epoch()
        path = tmp_path / "pause.plck"
        save_checkpoint(paused, path)
        resumed = trainer_from_checkpoint(path, ds)
        resumed_metrics = []
        for _ in range(2):
            resumed_metrics.extend(resumed.run_epoch())
        tail = straight_metrics[len(straight_metrics) - len(resumed_metrics):]
        for a, b in zip(tail, resumed_metrics):
            assert a.total == b.total and a.point == b.point

    def test_manifest_survives_and_validates(self, tmp_path):
        ds = _tiny_dataset(seed=7)
        t = Trainer.initialize(ds, _tiny_config())
        path = tmp_path / "c.plck"
        save_checkpoint(t, path)
        manifest, tensors = load_checkpoint(path)
        assert manifest["epoch"] == 0
        assert manifest["config"]["seed"] == 11
        assert "proxies.locations" in tensors

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.plck"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(trainer.CheckpointFormatError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        ds = _tiny_dataset(seed=8)
        t = Trainer.initialize(ds, _tiny_config())
        path = tmp_path / "d.plck"
        save_checkpoint(t, path)
        other = _tiny_dataset(seed=8, d=5)
        with pytest.raises(ValueError, match="input dim"):
            trainer_from_checkpoint(path, other)

    def test_stored_file_resumes_and_resaves_byte_for_byte(self, tmp_path):
        # The fixture pins the file format across refactors: the state of
        # Trainer.initialize(_tiny_dataset(seed=12), _tiny_config()) after one
        # epoch, as save_checkpoint wrote it at commit 3ee25ef.
        ds = _tiny_dataset(seed=12)
        resumed = trainer_from_checkpoint(FIXTURE, ds)
        again = tmp_path / "again.plck"
        save_checkpoint(resumed, again)
        assert again.read_bytes() == FIXTURE.read_bytes()
        resumed.run_epoch()
        straight = Trainer.initialize(ds, _tiny_config())
        for _ in range(2):
            straight.run_epoch()
        save_checkpoint(resumed, tmp_path / "resumed.plck")
        save_checkpoint(straight, tmp_path / "straight.plck")
        assert (tmp_path / "resumed.plck").read_bytes() == (tmp_path / "straight.plck").read_bytes()

    def test_config_with_every_field_off_default_round_trips(self, tmp_path):
        cfg = TrainConfig(
            manifold=ManifoldConfig(dim=2, quality_threshold=75.0, pool_size=5, knn_only=True),
            similarity=SimilarityConfig(orth_exponent=3.0, inplane_exponent=0.25, binary=True),
            sampler=SamplerConfig(batch_size=20, n_seeds=5, augment_sigma=0.01),
            loss=LossConfig(
                distance_scale=1.5,
                point_weight=0.5,
                proxy_weight=0.25,
                neighborhood_weight=2.0,
                stopgrad_similarity=True,
            ),
            hidden_sizes=(12, 8),
            embed_dim=5,
            init_gain=2.0,
            momentum=0.9,
            lr=2e-3,
            proxy_lr_scale=7.0,
            n_proxies=5,
            epochs=3,
            seed=17,
        )
        defaults = TrainConfig()
        for name in ("manifold", "similarity", "sampler", "loss"):
            for key, value in vars(getattr(cfg, name)).items():
                assert value != getattr(getattr(defaults, name), key), (name, key)
        for key, value in vars(cfg).items():
            assert value != getattr(defaults, key), key
        ds = _tiny_dataset(seed=9)
        path = tmp_path / "off.plck"
        save_checkpoint(Trainer.initialize(ds, cfg), path)
        assert trainer_from_checkpoint(path, ds).config == cfg


def _rewrite_manifest(path, edit) -> None:
    # Apply ``edit`` to the manifest of a valid checkpoint file in place,
    # keeping the header layout and the tensor payload.
    blob = path.read_bytes()
    header = 4 + struct.calcsize("<HQ")
    version, length = struct.unpack_from("<HQ", blob, 4)
    manifest = json.loads(blob[header : header + length])
    edit(manifest)
    text = json.dumps(manifest).encode("utf-8")
    path.write_bytes(blob[:4] + struct.pack("<HQ", version, len(text)) + text + blob[header + length :])


def _overwrite_entry(path, name, value) -> None:
    # Write ``value`` over the first entry of tensor ``name`` in a valid
    # checkpoint file, in place.
    blob = bytearray(path.read_bytes())
    header = 4 + struct.calcsize("<HQ")
    _, length = struct.unpack_from("<HQ", blob, 4)
    offset = header + length
    for entry in json.loads(blob[header:offset])["tensors"]:
        if entry["name"] == name:
            struct.pack_into("<d", blob, offset, value)
            path.write_bytes(bytes(blob))
            return
        offset += 8 * int(np.prod(entry["shape"]))
    raise KeyError(name)


def _set_shape(manifest, shape):
    manifest["tensors"][0]["shape"] = shape


def _tensor_entry(manifest, name):
    return next(entry for entry in manifest["tensors"] if entry["name"] == name)


# Manifest edits that leave a file load_checkpoint reads, but whose tensors
# no longer match what the stored config (_tiny_config) implies.
LAYOUT_EDITS = [
    (
        lambda m: m["config"].update(hidden_sizes=[8]),
        r"tensor trained\.0 is of shape \[8, 16\], the config implies \[8, 8\]",
    ),
    (lambda m: m["config"].update(embed_dim=7), r"tensor trained\.2 is of shape \[16, 6\]"),
    (
        lambda m: m["config"].update(n_proxies=4),
        r"tensor proxies\.locations is of shape \[6, 6\], the config implies \[4, 6\]",
    ),
    (
        lambda m: m["config"]["manifold"].update(dim=3),
        r"tensor proxies\.frames is of shape \[6, 2, 6\], the config implies \[6, 3, 6\]",
    ),
    (
        lambda m: _tensor_entry(m, "adam_encoder.m.0").update(shape=[16, 8]),
        r"tensor adam_encoder\.m\.0 is of shape \[16, 8\], the config implies \[8, 16\]",
    ),
    (
        lambda m: m["tensors"].append({"name": "extra", "shape": [0]}),
        r"unexpected tensors \['extra'\]",
    ),
    (lambda m: m["tensors"][0].update(name="trained.first"), r"tensor trained\.0 is missing"),
]


class TestMalformedCheckpoints:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.pop("tensors"), "missing tensors"),
            (lambda m: m.pop("config"), "missing config"),
            (lambda m: m.pop("epoch"), "missing epoch"),
            (lambda m: m.clear() or m.update(version=1), "missing epoch, global_step, config"),
            (lambda m: _set_shape(m, [-1, 3]), "bad tensor entry"),
            (lambda m: _set_shape(m, [2.0, 3]), "bad tensor entry"),
            (lambda m: _set_shape(m, "2x3"), "bad tensor entry"),
            (lambda m: m["tensors"][0].pop("name"), "bad tensor entry"),
            (lambda m: m["tensors"].__setitem__(0, 7), "bad tensor entry"),
            (lambda m: m.update(tensors={}), "tensors is not a list"),
            (lambda m: m["config"].update(learning_rate=0.1), "unknown fields \\['learning_rate'\\]"),
            (lambda m: m["config"]["loss"].update(gamma=2), "bad config: config.loss: unknown fields"),
            (lambda m: m["config"]["manifold"].pop("dim"), "missing fields \\['dim'\\]"),
            (lambda m: m["config"].update(sampler=[20, 4]), "config.sampler is not a table"),
            (lambda m: m["config"].update(lr=float("nan")), "bad config: learning rates"),
            (lambda m: m["config"].update(momentum=float("nan")), "bad config: momentum"),
            (
                lambda m: m["config"].update(n_proxies=10.5),
                "bad config: config.n_proxies expects an integer, got 10.5",
            ),
            (lambda m: m["config"].update(epochs=1.5), "config.epochs expects an integer, got 1.5"),
            (lambda m: m["config"].update(seed=True), "config.seed expects an integer, got True"),
            (
                lambda m: m["config"].update(hidden_sizes=[64.7]),
                r"config.hidden_sizes expects a list of integers, got \[64.7\]",
            ),
            (lambda m: m["config"].update(lr="0.1"), "config.lr expects a number"),
            (
                lambda m: m["config"]["manifold"].update(knn_only="no"),
                "config.manifold.knn_only expects a boolean",
            ),
            (
                lambda m: m["config"]["loss"].update(distance_scale=float("inf")),
                "bad config: distance_scale",
            ),
            (lambda m: m.update(epoch="0"), "epoch '0' is not a count"),
            (lambda m: m.update(adam_encoder_steps=-3), "adam_encoder_steps -3 is not a count"),
            (lambda m: m.update(adam_proxies_steps=2.5), "adam_proxies_steps 2.5 is not a count"),
            (lambda m: m.update(global_step=True), "global_step True is not a count"),
            (lambda m: m.update(rng_sampler=5), "bad rng_sampler state"),
            (lambda m: m["rng_augment"].update(bit_generator="MT19937"), "bad rng_augment state"),
            (lambda m: m["rng_sampler"]["state"].update(inc=-1), "bad rng_sampler state"),
            (lambda m: m["rng_augment"].pop("has_uint32"), "bad rng_augment state"),
            (lambda m: m.update(history="abc"), "history is not a list"),
            (lambda m: m["tensors"][1].update(name="trained.0"), "trained.0 is stored twice"),
        ],
    )
    def test_rejected_with_format_error(self, tmp_path, edit, message):
        ds = _tiny_dataset(seed=10)
        path = tmp_path / "bad.plck"
        save_checkpoint(Trainer.initialize(ds, _tiny_config()), path)
        _rewrite_manifest(path, edit)
        with pytest.raises(trainer.CheckpointFormatError, match=message):
            load_checkpoint(path)
        with pytest.raises(trainer.CheckpointFormatError, match=message):
            trainer_from_checkpoint(path, ds)

    @pytest.mark.parametrize("name", ["trained.0", "proxies.frames"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, name, value):
        ds = _tiny_dataset(seed=10)
        path = tmp_path / "bad.plck"
        save_checkpoint(Trainer.initialize(ds, _tiny_config()), path)
        _overwrite_entry(path, name, value)
        message = f"tensor {name} has non-finite entries"
        with pytest.raises(trainer.CheckpointFormatError, match=message):
            load_checkpoint(path)
        with pytest.raises(trainer.CheckpointFormatError, match=message):
            trainer_from_checkpoint(path, ds)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda p: p.frames[0].__imul__(3.0), "not unit length"),
            (lambda p: p.frames[1, 1].__setitem__(slice(None), p.frames[1, 0]), "not orthogonal"),
            (lambda p: p.locations[2].__imul__(1.5), "not unit norm"),
        ],
    )
    def test_invalid_proxies_rejected(self, tmp_path, corrupt, message):
        ds = _tiny_dataset(seed=10)
        path = tmp_path / "bad.plck"
        run = Trainer.initialize(ds, _tiny_config())
        corrupt(run.proxies)
        save_checkpoint(run, path)
        with pytest.raises(trainer.CheckpointFormatError, match=f"invalid proxies.*{message}"):
            trainer_from_checkpoint(path, ds)

    @pytest.mark.parametrize("edit, message", LAYOUT_EDITS)
    def test_tensors_must_match_the_stored_config(self, tmp_path, edit, message):
        # load_checkpoint reads the file as it is; the layout that the
        # stored config implies is checked when the run is rebuilt.
        ds = _tiny_dataset(seed=10)
        path = tmp_path / "bad.plck"
        save_checkpoint(Trainer.initialize(ds, _tiny_config()), path)
        _rewrite_manifest(path, edit)
        load_checkpoint(path)
        with pytest.raises(trainer.CheckpointFormatError, match=message):
            trainer_from_checkpoint(path, ds)

    @pytest.mark.parametrize("failure", [OSError("No space left on device"), KeyboardInterrupt()])
    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch, failure):
        class Unwritable:
            shape = (3,)

            def __array__(self, *args, **kwargs):
                raise failure

        ds = _tiny_dataset(seed=10)
        run = Trainer.initialize(ds, _tiny_config())
        path = tmp_path / "keep.plck"
        save_checkpoint(run, path)
        before = path.read_bytes()
        run.run_epoch()
        # The header, the manifest and every tensor of the run are written
        # before the appended entry fails.
        entries = trainer._tensor_entries(run)
        monkeypatch.setattr(
            trainer, "_tensor_entries", lambda t: entries + [("late", Unwritable())]
        )
        with pytest.raises(type(failure)):
            save_checkpoint(run, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["keep.plck"]

    def test_rewritten_but_intact_manifest_still_loads(self, tmp_path):
        ds = _tiny_dataset(seed=10)
        path = tmp_path / "same.plck"
        run = Trainer.initialize(ds, _tiny_config())
        save_checkpoint(run, path)
        _rewrite_manifest(path, lambda m: None)
        assert trainer_from_checkpoint(path, ds).config == run.config
