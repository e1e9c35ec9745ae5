"""Tests for decay curves, symmetric similarities, and the proxy pass."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from plmetric import linalg, manifold, similarity
from plmetric.manifold import ManifoldConfig, Neighborhoods, ProxySet
from plmetric.similarity import SimilarityConfig

from oracles import (
    central_difference_gradient,
    directed_similarity,
    relative_gradient_error,
    same_bits,
    symmetric_similarity,
)


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _drawn_record(rng, bases):
    """A record holding point j's plane bases[j] and, after j itself, the
    other points among three drawn at random, sorted."""
    n = len(bases)
    rows = [np.r_[j, np.setdiff1d(rng.integers(0, n, size=3), j)] for j in range(n)]
    sizes = np.array([len(row) for row in rows])
    members = np.full((n, sizes.max()), -1)
    for j, row in enumerate(rows):
        members[j, : len(row)] = row
    return Neighborhoods(members, sizes, bases)


def _embedded_scene(seed=0, n=20, d=6, plane_dim=2, n_proxies=4):
    """Embeddings with fitted neighborhoods and a drifted proxy set."""
    rng = np.random.default_rng(seed)
    pts = _unit_rows(rng, n, d)
    cfg = ManifoldConfig(dim=plane_dim, quality_threshold=50.0, pool_size=plane_dim + 3)
    nbhds = manifold.fit_all_neighborhoods(pts, cfg)
    proxies = manifold.init_proxies(pts, cfg, n_proxies, seed=seed + 1)
    # Nudge the proxies off the data so distances are generic.
    proxies.locations[:] = _unit_rows(rng, n_proxies, d)
    proxies.reorthonormalize_frames()
    return pts, nbhds, proxies


class TestDecayCurves:
    def test_known_values(self):
        assert similarity.orthogonal_decay(2.0, 4.0) == pytest.approx(0.0625, abs=1e-12)
        assert similarity.inplane_decay(1.0, 0.5) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_distance_gives_one(self):
        assert similarity.orthogonal_decay(0.0, 4.0) == 1.0
        assert similarity.inplane_decay(0.0, 0.5) == 1.0

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 10.0, 50)
        a = similarity.orthogonal_decay(xs, 4.0)
        b = similarity.inplane_decay(xs, 0.5)
        assert np.all(np.diff(a) < 0.0)
        assert np.all(np.diff(b) < 0.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            similarity.orthogonal_decay(-0.1, 4.0)
        with pytest.raises(ValueError, match="non-negative"):
            similarity.inplane_decay(-0.1, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, [0.5, np.nan]], ids=["scalar", "in-array"])
    def test_nan_distance_rejected(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            similarity.orthogonal_decay(bad, 4.0)
        with pytest.raises(ValueError, match="non-negative"):
            similarity.inplane_decay(bad, 0.5)

    def test_infinite_distance_decays_to_zero(self):
        assert similarity.orthogonal_decay(np.inf, 4.0) == 0.0
        assert similarity.inplane_decay(np.inf, 0.5) == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.0, 0.5, 2.0])
        out = similarity.orthogonal_decay(xs, 3.0)
        for x, v in zip(xs, out):
            assert v == similarity.orthogonal_decay(float(x), 3.0)


class TestSimilarityConfig:
    def test_defaults(self):
        cfg = SimilarityConfig()
        assert cfg.orth_exponent == 4.0 and cfg.inplane_exponent == 0.5 and not cfg.binary

    def test_inverted_exponents_warn(self):
        with pytest.warns(UserWarning, match="orth_exponent"):
            SimilarityConfig(orth_exponent=0.5, inplane_exponent=4.0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SimilarityConfig(orth_exponent=-1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("binary", 1, "binary expects a boolean, got 1"),
            ("orth_exponent", "4", "orth_exponent expects a number, got '4'"),
            ("inplane_exponent", True, "inplane_exponent expects a number, got True"),
        ],
    )
    def test_mistyped_fields_refused_when_made(self, field, value, message):
        # binary=1 once ran as binary; a string exponent raised a bare TypeError.
        with pytest.raises(ValueError, match=re.escape(message)):
            SimilarityConfig(**{field: value})

    def test_numpy_numbers_accepted(self):
        cfg = SimilarityConfig(
            orth_exponent=np.float64(4.0), inplane_exponent=np.int64(1), binary=np.False_
        )
        assert not cfg.binary


class TestPointSimilarity:
    def test_identical_points_have_similarity_one(self):
        pts, nbhds, _ = _embedded_scene(seed=2)
        mat = similarity.pairwise_similarity_matrix(pts, nbhds, SimilarityConfig())
        for i in (0, 5, 11):
            assert mat[i, i] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_is_exact(self):
        pts, nbhds, _ = _embedded_scene(seed=3, n=30)
        mat = similarity.pairwise_similarity_matrix(pts, nbhds, SimilarityConfig())
        rng = np.random.default_rng(0)
        for _ in range(100):
            i, j = rng.integers(30, size=2)
            assert abs(mat[i, j] - mat[j, i]) <= 1e-12

    def test_values_in_unit_interval(self):
        pts, nbhds, _ = _embedded_scene(seed=4, n=25)
        mat = similarity.pairwise_similarity_matrix(pts, nbhds, SimilarityConfig())
        assert np.all(mat >= 0.0) and np.all(mat <= 1.0 + 1e-12)

    def test_matrix_agrees_with_scalar_route(self):
        pts, nbhds, _ = _embedded_scene(seed=5, n=15)
        cfg = SimilarityConfig()
        mat = similarity.pairwise_similarity_matrix(pts, nbhds, cfg)
        binary = SimilarityConfig(binary=True)
        mat_binary = similarity.pairwise_similarity_matrix(pts, nbhds, binary)
        for i in range(15):
            for j in range(15):
                expected = symmetric_similarity(i, j, pts, nbhds, cfg)
                assert mat[i, j] == pytest.approx(expected, abs=1e-12)
                assert mat_binary[i, j] == symmetric_similarity(i, j, pts, nbhds, binary)

    def test_pair_route_matches_matrix(self, monkeypatch):
        # Chunks of 7 pairs: several full ones, a short last one, and pairs
        # with i == j among them.
        pts, nbhds, _ = _embedded_scene(seed=8, n=40)
        monkeypatch.setattr(similarity, "PAIR_CHUNK", 7)
        first, second = np.random.default_rng(1).integers(40, size=(2, 500))
        cfg = SimilarityConfig()
        mat = similarity.pairwise_similarity_matrix(pts, nbhds, cfg)
        got = similarity.pair_similarities(pts, nbhds, cfg, first, second)
        np.testing.assert_allclose(got, mat[first, second], rtol=0.0, atol=1e-12)
        binary = SimilarityConfig(binary=True)
        mat = similarity.pairwise_similarity_matrix(pts, nbhds, binary)
        got = similarity.pair_similarities(pts, nbhds, binary, first, second)
        np.testing.assert_array_equal(got, mat[first, second])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_pair_route_matches_scalar_oracle(self, data):
        # Chunks of 7 pairs, full ones and a short last one. Pairs with
        # i == j, and the last row against the first, which the scene may
        # have duplicated (diff = 0). Planes drawn, planes holding every
        # point (the first m axes, points with no other coordinate: o = 0
        # exactly), or full rank (m = d: o = 0 for every pair).
        embeddings, bases, _, _ = stacked_scene(data)
        n, m, dim = bases.shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="pair seed"))
        planes = data.draw(st.sampled_from(["drawn", "holding the points", "full rank"]), label="planes")
        if planes == "holding the points":
            bases = np.broadcast_to(np.eye(dim)[:m], bases.shape).copy()
            embeddings[:, m:] = 0.0
        elif planes == "full rank":
            bases = linalg.reorthonormalize(rng.standard_normal((n, dim, dim)))[0]
        first, second = rng.integers(n, size=(2, data.draw(st.integers(1, 40), label="pairs")))
        first, second = np.r_[first, np.arange(n), 0], np.r_[second, np.arange(n), n - 1]
        nbhds = _drawn_record(rng, bases)
        for config in (SimilarityConfig(), SimilarityConfig(binary=True)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(similarity, "PAIR_CHUNK", 7)
                got = similarity.pair_similarities(embeddings, nbhds, config, first, second)
            ref = np.array(
                [symmetric_similarity(i, j, embeddings, nbhds, config) for i, j in zip(first, second)]
            )
            if config.binary:
                assert same_bits(got, ref)
            else:
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_pair_route_threads_equal_one_thread(self, data):
        # Chunks spread over 1, 2 and 3 threads give the bits of one
        # serial pass, in decay and binary mode, i == j pairs included.
        pts, nbhds, _ = _embedded_scene(seed=data.draw(st.integers(0, 50), label="scene"), n=30)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="pair seed"))
        first, second = rng.integers(30, size=(2, data.draw(st.integers(0, 120), label="pairs")))
        first, second = np.r_[first, np.arange(30)], np.r_[second, np.arange(30)]
        chunk = data.draw(st.integers(1, 40), label="chunk")
        for config in (SimilarityConfig(), SimilarityConfig(binary=True)):
            with mock.patch.object(manifold, "WORKERS", 1):
                serial = similarity.pair_similarities(pts, nbhds, config, first, second)
            for workers in (1, 2, 3):
                with mock.patch.object(manifold, "WORKERS", workers), mock.patch.object(
                    similarity, "PAIR_CHUNK", chunk
                ):
                    got = similarity.pair_similarities(pts, nbhds, config, first, second)
                assert same_bits(got, serial), (workers, config)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ([0, -1], [3, 5], "lie in"),
            ([0, 1], [3, 20], "lie in"),
            ([-20, 1], [3, 5], "lie in"),
            ([0, 1, 2], [3, 5], "equal length"),
            ([[0, 1]], [[3, 5]], "1-d"),
        ],
    )
    @pytest.mark.parametrize("binary", [False, True])
    def test_pair_route_rejects_bad_indices(self, first, second, message, binary):
        # Index -1 would wrap to the last point, and in binary mode match
        # the -1 member padding (pair (-1, 5) scored 0.5).
        pts, nbhds, _ = _embedded_scene(seed=9, n=20)
        with pytest.raises(ValueError, match=message):
            similarity.pair_similarities(
                pts, nbhds, SimilarityConfig(binary=binary), np.array(first), np.array(second)
            )

    @pytest.mark.parametrize("binary", [False, True])
    def test_pair_route_rejects_float_indices(self, binary):
        # Once truncated without a word: pairs [0.9, 2.5], [1.2, 3.99]
        # returned exactly the values of [0, 2], [1, 3].
        pts, nbhds, _ = _embedded_scene(seed=9, n=20)
        cfg = SimilarityConfig(binary=binary)
        with pytest.raises(ValueError, match="pair indices must be integer indices"):
            similarity.pair_similarities(pts, nbhds, cfg, np.array([0.9, 2.5]), np.array([1.2, 3.99]))
        with pytest.raises(ValueError, match="pair indices must be integer indices"):
            similarity.pair_similarities(pts, nbhds, cfg, [0, 2], [True, False])

    def test_pair_route_takes_no_pairs(self):
        pts, nbhds, _ = _embedded_scene(seed=9, n=20)
        got = similarity.pair_similarities(pts, nbhds, SimilarityConfig(), [], [])
        assert got.shape == (0,)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("reader", ["matrix", "pairs"])
    def test_members_past_the_point_set_rejected(self, reader, binary):
        # A 12-point record with member 40 in row 3: the binary matrix
        # raised a bare IndexError and the binary pair route scored
        # [0., 0.] without a word.
        pts, nbhds, _ = _embedded_scene(seed=9, n=12)
        members = nbhds.members.copy()
        members[3, 1] = 40
        bad = Neighborhoods(members, nbhds.sizes, nbhds.bases)
        cfg = SimilarityConfig(binary=binary)
        calls = {
            "matrix": lambda: similarity.pairwise_similarity_matrix(pts, bad, cfg),
            "pairs": lambda: similarity.pair_similarities(pts, bad, cfg, [3, 0], [0, 3]),
        }
        with pytest.raises(ValueError, match=re.escape("neighborhood members must lie in [0, 12)")):
            calls[reader]()

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("reader", ["matrix", "pairs"])
    def test_non_finite_points_rejected(self, reader, binary):
        # A record fitted on finite points still fits the points in count,
        # so the points themselves are checked: a NaN row once gave NaN
        # similarities without a word.
        pts, nbhds, _ = _embedded_scene(seed=9, n=12)
        pts = pts.copy()
        pts[5] = np.nan
        cfg = SimilarityConfig(binary=binary)
        calls = {
            "matrix": lambda: similarity.pairwise_similarity_matrix(pts, nbhds, cfg),
            "pairs": lambda: similarity.pair_similarities(pts, nbhds, cfg, [5, 0], [0, 3]),
        }
        with pytest.raises(ValueError, match="points contain non-finite entries"):
            calls[reader]()

    def test_binary_mode_uses_membership(self):
        pts, nbhds, _ = _embedded_scene(seed=6, n=15)
        cfg = SimilarityConfig(binary=True)
        mat = similarity.pairwise_similarity_matrix(pts, nbhds, cfg)
        assert set(np.unique(mat)).issubset({0.0, 0.5, 1.0})
        for i in range(15):
            for j in range(15):
                fwd = float(i in nbhds.members[j, : nbhds.sizes[j]])
                rev = float(j in nbhds.members[i, : nbhds.sizes[i]])
                assert mat[i, j] == (fwd + rev) / 2.0

    def test_far_points_have_low_similarity(self):
        # A point far off every plane should score well below a close one.
        pts, nbhds, _ = _embedded_scene(seed=7, n=20)
        cfg = SimilarityConfig()
        i = 0
        near = nbhds.members[i, 1]
        dists = np.linalg.norm(pts - pts[i], axis=1)
        far = int(np.argmax(dists))
        mat = similarity.pairwise_similarity_matrix(pts, nbhds, cfg)
        assert mat[i, near] > mat[i, far]


class TestProxySimilarities:
    def test_values_match_directed_route(self):
        pts, nbhds, proxies = _embedded_scene(seed=8)
        cfg = SimilarityConfig()
        out = similarity.proxy_similarity_batch(pts, nbhds.bases, proxies, cfg)
        assert out.shape == (len(pts), proxies.n_proxies)
        for i in range(len(pts)):
            for j in range(proxies.n_proxies):
                fwd = directed_similarity(pts[i], proxies.locations[j], proxies.frames[j], cfg)
                rev = directed_similarity(proxies.locations[j], pts[i], nbhds.bases[i], cfg)
                assert out[i, j] == pytest.approx((fwd + rev) / 2.0, abs=1e-12)

    @staticmethod
    def _one_hot_pullback(pts, bases, proxies, cfg, cells):
        # Weight table (i, j) picks s_ij alone, so its pullback is the
        # partial of s_ij w.r.t. proxy j's location and frame.
        weights = np.zeros((len(cells), len(pts), proxies.n_proxies))
        for t, cell in enumerate(cells):
            weights[(t, *cell)] = 1.0
        return similarity.proxy_pass(pts, bases, proxies, cfg).pullback(weights)

    def test_location_partials_match_finite_differences(self):
        pts, nbhds, proxies = _embedded_scene(seed=9, n=6, n_proxies=3)
        cfg = SimilarityConfig()
        cells = [(i, j) for i in (0, 3) for j in range(3)]
        grad_loc, _ = self._one_hot_pullback(pts, nbhds.bases, proxies, cfg, cells)
        for (i, j), analytic in zip(cells, grad_loc):
            def value(loc, i=i, j=j):
                mod = ProxySet(proxies.locations.copy(), proxies.frames.copy())
                mod.locations[j] = loc
                return float(similarity.proxy_similarity_batch(pts, nbhds.bases, mod, cfg)[i, j])

            numeric = central_difference_gradient(value, proxies.locations[j].copy())
            assert relative_gradient_error(analytic[j], numeric) < 1e-6

    def test_frame_partials_match_finite_differences(self):
        pts, nbhds, proxies = _embedded_scene(seed=10, n=6, n_proxies=3)
        cfg = SimilarityConfig()
        cells = [(i, j) for i in (1, 4) for j in range(3)]
        _, grad_frames = self._one_hot_pullback(pts, nbhds.bases, proxies, cfg, cells)
        for (i, j), analytic in zip(cells, grad_frames):
            def value(frame, i=i, j=j):
                mod = ProxySet(proxies.locations.copy(), proxies.frames.copy())
                mod.frames[j] = frame
                return float(similarity.proxy_similarity_batch(pts, nbhds.bases, mod, cfg)[i, j])

            numeric = central_difference_gradient(value, proxies.frames[j].copy())
            assert relative_gradient_error(analytic[j], numeric) < 1e-6

    def test_coincident_point_and_proxy_give_finite_gradients(self):
        # Subgradient-zero convention at zero distances.
        pts, nbhds, proxies = _embedded_scene(seed=11, n=6, n_proxies=3)
        proxies.locations[0] = pts[0]
        cfg = SimilarityConfig()
        proxy_pass = similarity.proxy_pass(pts, nbhds.bases, proxies, cfg)
        out = proxy_pass.values
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        weights = np.ones((1, *out.shape))
        grad_loc, grad_frames = proxy_pass.pullback(weights)
        assert np.all(np.isfinite(grad_loc))
        assert np.all(np.isfinite(grad_frames))

    def test_binary_mode_marks_nearest_proxy(self):
        pts, nbhds, proxies = _embedded_scene(seed=12)
        cfg = SimilarityConfig(binary=True)
        proxy_pass = similarity.proxy_pass(pts, nbhds.bases, proxies, cfg)
        out = proxy_pass.values
        np.testing.assert_array_equal(out.sum(axis=1), np.ones(len(pts)))
        nearest = similarity.nearest_proxy_indices(pts, proxies.locations)
        np.testing.assert_array_equal(np.argmax(out, axis=1), nearest)
        weights = np.ones((2, *out.shape))
        grad_loc, grad_frames = proxy_pass.pullback(weights)
        assert np.all(grad_loc == 0.0)
        assert np.all(grad_frames == 0.0)

    def test_shape_mismatch_rejected(self):
        pts, nbhds, proxies = _embedded_scene(seed=13)
        bases = nbhds.bases[:, :1, :]
        with pytest.raises(ValueError, match="point_bases"):
            similarity.proxy_similarity_batch(pts, bases, proxies, SimilarityConfig())
        with pytest.raises(ValueError, match="point_bases"):
            similarity.proxy_pass(pts, bases, proxies, SimilarityConfig())
        full = similarity.proxy_pass(pts, nbhds.bases, proxies, SimilarityConfig())
        with pytest.raises(ValueError, match="weights"):
            full.pullback(np.ones((20, 4)))
        with pytest.raises(ValueError, match="weights"):
            full.pullback(np.ones((1, 20, 3)))

    def test_pullback_memory_stays_below_one_frame_table(self):
        # At n = P = 100, m = 3, d = 32 one (n, P, m, d) table of frame
        # partials is 7.3 MiB. A pass that keeps its splits, (n, P, d)
        # reverse partials and (P, n, m) forward coordinates, plus both
        # losses' pullback peaks at 4.6 MiB; the limit is 5 MiB.
        rng = np.random.default_rng(0)
        n, n_prox, plane_dim, dim = 100, 100, 3, 32
        pts = _unit_rows(rng, n, dim)
        bases = linalg.reorthonormalize(rng.standard_normal((n, plane_dim, dim)))[0]
        frames = linalg.reorthonormalize(rng.standard_normal((n_prox, plane_dim, dim)))[0]
        proxies = ProxySet(_unit_rows(rng, n_prox, dim), frames)
        weights = rng.standard_normal((2, n, n_prox))
        cfg = SimilarityConfig()
        tracemalloc.start()
        try:
            similarity.proxy_pass(pts, bases, proxies, cfg).pullback(weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20 < n * n_prox * plane_dim * dim * 8


def stacked_scene(data):
    """Embeddings, point frames and proxies drawn for the stacked routes.

    Plane dims 1-4 with ambient dims from m + 1 to 32, generic or grid
    coordinates (exact zeros and ties), generic or axis-aligned frames
    (points exactly in a plane, frame rows orthogonal to a plane), a
    duplicated row and a point sitting on a proxy. Also draws the cell
    budget, low enough on most draws that several blocks run.
    """
    m = data.draw(st.integers(1, 4), label="plane dim")
    dim = data.draw(st.integers(m + 1, 32), label="dim")
    n = data.draw(st.integers(1, 24), label="points")
    n_prox = data.draw(st.integers(1, 24), label="proxies")
    grid = data.draw(st.booleans(), label="grid coordinates")
    axis_frames = data.draw(st.booleans(), label="axis frames")
    cells = data.draw(st.one_of(st.integers(1, 3000), st.just(similarity.STACK_CELLS)), label="cells")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def rows(k):
        if grid:
            return rng.integers(-2, 3, size=(k, dim)).astype(np.float64)
        return rng.standard_normal((k, dim))

    def frames(k):
        if axis_frames:
            return np.stack([np.eye(dim)[rng.permutation(dim)[:m]] for _ in range(k)])
        return linalg.reorthonormalize(rng.standard_normal((k, m, dim)))[0]

    embeddings, locations = rows(n), rows(n_prox)
    if data.draw(st.booleans(), label="duplicate row"):
        embeddings[-1] = embeddings[0]
    if data.draw(st.booleans(), label="point on a proxy"):
        locations[-1] = embeddings[n // 2]
    return embeddings, frames(n), ProxySet(locations, frames(n_prox)), cells


class TestStackedRoutesMatchLoops:
    # The stacked routes against the loops they replaced (tests/oracles.py),
    # bit for bit, signs of zeros included.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_proxy_similarities(self, data):
        # The values of the pass and of the values wrapper.
        embeddings, bases, proxies, cells = stacked_scene(data)
        config = SimilarityConfig(binary=data.draw(st.booleans(), label="binary"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "STACK_CELLS", cells)
            got = similarity.proxy_pass(embeddings, bases, proxies, config).values
            wrapped = similarity.proxy_similarity_batch(embeddings, bases, proxies, config)
        ref = oracles.proxy_similarity_loop(embeddings, bases, proxies, config)[0]
        assert same_bits(got, ref)
        assert same_bits(wrapped, ref)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_proxy_pullback(self, data):
        # Against each weight table contracted with the loop's full partial
        # tables. Weights hold exact zeros (of both signs) and negative
        # values; point frames may also be fitted to rank-deficient sets
        # (their planes completed with axes) or to sets with a duplicated row.
        embeddings, bases, proxies, cells = stacked_scene(data)
        n, m, dim = bases.shape
        config = SimilarityConfig(binary=data.draw(st.booleans(), label="binary"))
        cells = data.draw(st.sampled_from([1, cells, similarity.STACK_CELLS]), label="cells")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="weight seed"))
        fitted = data.draw(
            st.sampled_from(["drawn", "rank-deficient", "duplicates"]), label="point frames"
        )
        if fitted != "drawn":
            rank = rng.integers(0, m) if fitted == "rank-deficient" else m + 1
            sets = rng.standard_normal((n, m + 2, rank)) @ rng.standard_normal((rank, dim))
            if fitted == "duplicates":
                sets[:, 1] = sets[:, 0]
            bases = np.stack([linalg.pca_top_m(rows, m)[0].vectors for rows in sets])
        k = data.draw(st.integers(1, 2), label="tables")
        weights = rng.standard_normal((k, n, proxies.n_proxies))
        weights[rng.random(weights.shape) < 0.3] = 0.0
        weights[rng.random(weights.shape) < 0.1] = -0.0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "STACK_CELLS", cells)
            proxy_pass = similarity.proxy_pass(embeddings, bases, proxies, config)
            got = proxy_pass.pullback(weights)
        values = oracles.proxy_similarity_loop(embeddings, bases, proxies, config)[0]
        ref = oracles.proxy_pullback_tables(embeddings, bases, proxies, config, weights)
        assert same_bits(proxy_pass.values, values)
        assert same_bits(got[0], ref[0])
        assert same_bits(got[1], ref[1])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_pairwise_similarity_matrix(self, data):
        embeddings, bases, _, cells = stacked_scene(data)
        config = SimilarityConfig(binary=data.draw(st.booleans(), label="binary"))
        n = len(embeddings)
        rng = np.random.default_rng(n)
        nbhds = _drawn_record(rng, bases)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "STACK_CELLS", cells)
            got = similarity.pairwise_similarity_matrix(embeddings, nbhds, config)
        assert same_bits(got, oracles.pairwise_similarity_loop(embeddings, nbhds, config))

    def test_blocks_cover_every_item_once(self, monkeypatch):
        monkeypatch.setattr(similarity, "STACK_CELLS", 10)
        assert similarity.stack_blocks(7, 3) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert similarity.stack_blocks(2, 50) == [slice(0, 1), slice(1, 2)]
        assert similarity.stack_blocks(0, 3) == []
