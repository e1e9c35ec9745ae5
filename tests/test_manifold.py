"""Tests for neighborhood fitting, k-NN pools, and proxy initialization."""

import dataclasses
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmetric import linalg, manifold
from plmetric.manifold import LinearNeighborhood, ManifoldConfig, Neighborhoods, ProxySet

import oracles
from oracles import greedy_plane_scan, reconstruction_qualities, same_bits

# Trial sets whose worst member lands this close to the threshold are decided
# by rounding; two eigensolvers may legitimately disagree there.
QUALITY_MARGIN = 1e-6


def make_planted_fixture(seed: int, n_plane: int = 8, n_off: int = 4, dim: int = 8):
    """A planted 2-plane instance: anchor plus on-plane and off-plane points.

    Returns (points, anchor_index, neighbor_order) with the neighbor order
    sorted by true distance from the anchor, mixing both kinds of points.
    """
    rng = np.random.default_rng(seed)
    frames, _ = linalg.reorthonormalize(rng.standard_normal((1, 2, dim)))
    frame = frames[0]
    base = rng.standard_normal(dim)
    coords = rng.uniform(-1.0, 1.0, size=(n_plane, 2))
    on_plane = base + coords @ frame
    off_coords = rng.uniform(-1.0, 1.0, size=(n_off, 2))
    heights = rng.uniform(0.5, 2.0, size=n_off)
    normal_dirs = rng.standard_normal((n_off, dim))
    normal_dirs -= (normal_dirs @ frame.T) @ frame
    normal_dirs /= np.linalg.norm(normal_dirs, axis=1, keepdims=True)
    off_plane = base + off_coords @ frame + heights[:, None] * normal_dirs
    points = np.vstack([on_plane, off_plane])
    anchor = 0
    dists = np.linalg.norm(points - points[anchor], axis=1)
    order = [int(i) for i in np.argsort(dists, kind="stable") if i != anchor]
    return points, anchor, order


class TestManifoldConfig:
    def test_defaults(self):
        cfg = ManifoldConfig()
        assert cfg.dim == 3 and cfg.quality_threshold == 90.0 and cfg.pool_size == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="dim"):
            ManifoldConfig(dim=1)
        with pytest.raises(ValueError, match="quality_threshold"):
            ManifoldConfig(quality_threshold=0.0)
        with pytest.raises(ValueError, match="pool_size"):
            ManifoldConfig(dim=3, pool_size=2)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("dim", 2.5, "dim expects an integer, got 2.5"),
            ("pool_size", True, "pool_size expects an integer, got True"),
            ("quality_threshold", "90", "quality_threshold expects a number, got '90'"),
            ("quality_threshold", False, "quality_threshold expects a number, got False"),
            ("knn_only", 1, "knn_only expects a boolean, got 1"),
        ],
    )
    def test_mistyped_fields_refused_when_made(self, field, value, message):
        # dim=2.5 was accepted and then raised a bare TypeError in the scan;
        # quality_threshold="90" raised a bare TypeError from its range check.
        with pytest.raises(ValueError, match=re.escape(message)):
            ManifoldConfig(**{field: value})

    def test_numpy_numbers_accepted(self):
        cfg = ManifoldConfig(
            dim=np.int64(2), quality_threshold=np.float32(80.0), pool_size=np.int32(4), knn_only=np.True_
        )
        points = np.random.default_rng(0).standard_normal((10, 3))
        assert len(manifold.fit_all_neighborhoods(points, cfg)) == 10


class TestReconstructionQuality:
    def test_on_plane_points_score_one(self):
        pts = np.array([[1.0, 2.0, 0.0], [-3.0, 0.5, 0.0]])
        q = manifold.reconstruction_quality(pts, np.eye(3)[:2], np.zeros(3))
        np.testing.assert_allclose(q, 1.0, atol=1e-12)

    def test_centroid_point_scores_one_by_convention(self):
        q = manifold.reconstruction_quality(np.zeros((1, 3)), np.eye(3)[:2], np.zeros(3))
        assert q[0] == 1.0

    def test_orthogonal_point_scores_zero(self):
        q = manifold.reconstruction_quality(np.array([[0.0, 0.0, 7.0]]), np.eye(3)[:2], np.zeros(3))
        assert q[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            pts = rng.standard_normal((9, 5))
            vectors, centroid = oracles.pca_vectors(pts, 2)
            ours = manifold.reconstruction_quality(pts, vectors, centroid)
            np.testing.assert_allclose(ours, reconstruction_qualities(pts, 2), atol=1e-8)


class TestFitNeighborhood:
    def _plane_with_outlier(self):
        # Four points on the xy-plane around the origin anchor plus one far
        # off-plane point, pre-sorted by distance from the anchor.
        points = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [-1.0, 0.0, 0.0],
                [0.0, -1.0, 0.0],
                [0.5, 0.5, 5.0],
            ]
        )
        return points, 0, [1, 2, 3, 4, 5]

    def test_off_plane_point_is_rejected(self):
        points, anchor, order = self._plane_with_outlier()
        cfg = ManifoldConfig(dim=2, quality_threshold=90.0, pool_size=5)
        nbhd = manifold.fit_neighborhood(points, anchor, order, cfg)
        np.testing.assert_array_equal(nbhd.member_indices, [0, 1, 2, 3, 4])
        # The fitted plane is the xy-plane itself.
        vectors = nbhd.basis.vectors
        np.testing.assert_allclose(vectors.T @ vectors, np.diag([1.0, 1.0, 0.0]), atol=1e-9)

    def test_knn_only_accepts_everything(self):
        points, anchor, order = self._plane_with_outlier()
        cfg = ManifoldConfig(dim=2, quality_threshold=90.0, pool_size=5, knn_only=True)
        nbhd = manifold.fit_neighborhood(points, anchor, order, cfg)
        np.testing.assert_array_equal(nbhd.member_indices, [0, 1, 2, 3, 4, 5])

    def test_matches_greedy_oracle_on_planted_fixtures(self):
        cfg = ManifoldConfig(dim=2, quality_threshold=90.0, pool_size=11)
        for seed in range(8):
            points, anchor, order = make_planted_fixture(seed)
            nbhd = manifold.fit_neighborhood(points, anchor, order, cfg)
            expected = greedy_plane_scan(points, anchor, order, 2, 90.0)
            np.testing.assert_array_equal(nbhd.member_indices, expected)

    def test_members_satisfy_quality_threshold(self):
        cfg = ManifoldConfig(dim=2, quality_threshold=90.0, pool_size=11)
        for seed in range(8):
            points, anchor, order = make_planted_fixture(seed + 100)
            nbhd = manifold.fit_neighborhood(points, anchor, order, cfg)
            members = points[nbhd.member_indices]
            quality = manifold.reconstruction_quality(
                members, nbhd.basis.vectors, members.mean(axis=0)
            )
            assert np.all(quality >= 0.9 - 1e-12)

    def test_seed_set_is_kept_even_if_filled_with_outliers(self):
        # The anchor and first dim-1 neighbors are never subject to the test.
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        cfg = ManifoldConfig(dim=2, quality_threshold=99.0, pool_size=3)
        nbhd = manifold.fit_neighborhood(points, 0, [1, 2, 3], cfg)
        assert 1 in nbhd.member_indices

    def test_pool_smaller_than_dim_raises(self):
        cfg = ManifoldConfig(dim=3, pool_size=3)
        with pytest.raises(ValueError, match="neighbor candidates"):
            manifold.fit_neighborhood(np.eye(4), 0, [1, 2], cfg)

    def test_anchor_in_pool_raises(self):
        cfg = ManifoldConfig(dim=2, pool_size=2)
        with pytest.raises(ValueError, match="anchor"):
            manifold.fit_neighborhood(np.eye(3), 0, [0, 1], cfg)

    @pytest.mark.parametrize(
        "anchor, entry", [(0, 12), (0, -5), (12, 3), (-1, 3)],
        ids=["candidate-n", "candidate-negative", "anchor-n", "anchor-negative"],
    )
    def test_index_outside_the_points_raises(self, anchor, entry):
        # fit_all_neighborhoods' rule for given pools. Unchecked, a
        # candidate n read the accept test's padding row, a negative index
        # wrapped around, and anchor n raised a bare IndexError.
        pts = np.random.default_rng(2).standard_normal((12, 3))
        cfg = ManifoldConfig(dim=2, pool_size=4)
        with pytest.raises(ValueError, match=r"in \[0, 12\)"):
            manifold.fit_neighborhood(pts, anchor, [1, 2, 4, entry], cfg)

    @pytest.mark.parametrize(
        "anchor, shift", [(0, 0.5), (0.5, 0.0)], ids=["float-candidates", "float-anchor"]
    )
    def test_non_integer_index_raises(self, anchor, shift):
        # Once truncated to an integer without a word.
        pts = np.random.default_rng(2).standard_normal((12, 3))
        order = manifold.neighbor_lists(pts, 4)[0]
        cfg = ManifoldConfig(dim=2, pool_size=4)
        with pytest.raises(ValueError, match="must be integer indices"):
            manifold.fit_neighborhood(pts, anchor, order + shift, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_raise(self, bad):
        pts = np.random.default_rng(2).standard_normal((12, 3))
        order = manifold.neighbor_lists(pts, 4)[0]
        pts[order[1], 0] = bad
        cfg = ManifoldConfig(dim=2, pool_size=4)
        with pytest.raises(ValueError, match="points contain non-finite entries"):
            manifold.fit_neighborhood(pts, 0, order, cfg)


class TestNeighborLists:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((30, 4))
        lists = manifold.neighbor_lists(pts, 5)
        for i in range(30):
            dists = np.linalg.norm(pts - pts[i], axis=1)
            dists[i] = np.inf
            expected = np.argsort(dists, kind="stable")[:5]
            np.testing.assert_array_equal(lists[i], expected)

    def test_ties_break_to_lower_index(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        lists = manifold.neighbor_lists(pts, 3)
        np.testing.assert_array_equal(lists[0], [1, 2, 3])

    def test_range_validation(self):
        with pytest.raises(ValueError, match="n_neighbors"):
            manifold.neighbor_lists(np.eye(3), 3)

    @pytest.mark.parametrize("count", [2.0, True, np.float64(2.0)])
    def test_non_integer_count_raises(self, count):
        # 2.0 once raised a bare TypeError from the output's allocation.
        with pytest.raises(ValueError, match="n_neighbors must be an integer"):
            manifold.neighbor_lists(np.eye(4), count)

    def test_numpy_integer_count_accepted(self):
        pts = np.random.default_rng(2).standard_normal((12, 3))
        want = manifold.neighbor_lists(pts, 3)
        for count in (np.int64(3), np.int32(3), np.uint8(3)):
            assert same_bits(manifold.neighbor_lists(pts, count), want)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_full_sort(self, data):
        # Random points, integer grids (exact ties) and duplicated rows, in
        # one block or in many (down to two rows per block). One block runs
        # the full sort's own product and must give its bits; across blocks
        # a row's product may round differently, which grid points cannot.
        n = data.draw(st.integers(2, 70))
        d = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, n - 1))
        pts, kind = _knn_points(data, n, d)
        limit = data.draw(
            st.sampled_from([manifold.NEIGHBOR_BLOCK_CELLS, n * n, n * n - 1, 3 * n, 1])
        )
        cells = data.draw(
            st.sampled_from([manifold.NEIGHBOR_SPLIT_CELLS, n * n, 3 * n, 2 * n + 1, 1])
        )
        longer = data.draw(st.integers(k, n - 1))
        with mock.patch.multiple(manifold, NEIGHBOR_BLOCK_CELLS=limit, NEIGHBOR_SPLIT_CELLS=cells):
            got = manifold.neighbor_lists(pts, k)
            # A shorter list is the prefix of a longer one, which evaluation
            # relies on to share one k-NN between recall and the fit's pools.
            np.testing.assert_array_equal(manifold.neighbor_lists(pts, longer)[:, :k], got)
        ref = oracles.neighbor_lists(pts, k)
        one_block = limit >= n * n or max(2, cells // n) >= n - 1
        if one_block or kind == "grid":
            np.testing.assert_array_equal(got, ref)
            return
        assert np.all(got != np.arange(n)[:, None])
        assert all(np.unique(row).size == k for row in got)
        dist = np.sum((pts[:, None, :] - pts[got]) ** 2, axis=2)
        want = np.sum((pts[:, None, :] - pts[ref]) ** 2, axis=2)
        scale = float(np.max(np.sum(pts**2, axis=1)))
        np.testing.assert_allclose(dist, want, rtol=0.0, atol=1e-12 * scale)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_same_bits_on_any_worker_count(self, data):
        # Above the one-block limit the query blocks run on helper threads;
        # the split depends on n alone, so every worker count gives the
        # one-worker lists to the bit.
        n = data.draw(st.integers(3, 70))
        pts, _ = _knn_points(data, n, data.draw(st.integers(1, 5)))
        k = data.draw(st.integers(1, n - 1))
        cells = data.draw(st.sampled_from([1, 2 * n, 3 * n, 2 * n + 1, 5 * n - 1]))
        with mock.patch.multiple(
            manifold, NEIGHBOR_BLOCK_CELLS=n * n - 1, NEIGHBOR_SPLIT_CELLS=cells, WORKERS=1
        ):
            serial = manifold.neighbor_lists(pts, k)
            for workers in (2, 3):
                with mock.patch.object(manifold, "WORKERS", workers):
                    assert same_bits(manifold.neighbor_lists(pts, k), serial), workers

    @pytest.mark.parametrize(
        "n, cells, rows",
        [
            (7, 21, [3, 4]),  # a one-row tail joins the block before it
            (9, 27, [3, 3, 3]),
            (10, 30, [3, 3, 4]),
            (11, 33, [3, 3, 3, 2]),
            (5, 1, [2, 3]),  # never fewer than two rows, however few cells
            (6, 1, [2, 2, 2]),
            (6, 36, [6]),
        ],
    )
    def test_blocks_cover_the_rows_and_never_hold_one(self, monkeypatch, n, cells, rows):
        # Integer points, so every block's product is exact.
        pts = np.random.default_rng(n).integers(-3, 4, size=(n, 3)).astype(np.float64)
        seen = []
        run_blocks = manifold._run_blocks

        def recorded(fn, blocks):
            blocks = list(blocks)
            seen.extend(blocks)
            run_blocks(fn, blocks)

        monkeypatch.setattr(manifold, "_run_blocks", recorded)
        for workers in (1, 3):
            seen.clear()
            with mock.patch.multiple(
                manifold, NEIGHBOR_BLOCK_CELLS=1, NEIGHBOR_SPLIT_CELLS=cells, WORKERS=workers
            ):
                got = manifold.neighbor_lists(pts, 2)
            assert [start for start, _ in seen] == [0, *(stop for _, stop in seen[:-1])]
            assert seen[-1][1] == n
            assert [stop - start for start, stop in seen] == rows
            np.testing.assert_array_equal(got, oracles.neighbor_lists(pts, 2))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_rows_are_the_full_calls_rows(self, data):
        # With rows, only the blocks holding a requested row run, each whole
        # and split as the full call splits it, so every list is the full
        # call's row to the bit: ties, duplicated points, repeated and
        # unsorted rows included. Small n takes one block, or many with
        # both limits patched down; n above 512 (not a multiple of 8) takes
        # the real one-block limit with a small split.
        n = data.draw(st.one_of(st.integers(2, 70), st.sampled_from([513, 517, 603])))
        pts, _ = _knn_points(data, n, data.draw(st.integers(1, 5)))
        k = data.draw(st.integers(1, min(n - 1, 12)))
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * min(n, 40)))
        if n > 512:
            patch = {"NEIGHBOR_SPLIT_CELLS": data.draw(st.sampled_from([1, 3 * n, 5 * n - 1, 40 * n]))}
        else:
            patch = data.draw(
                st.sampled_from(
                    [{"NEIGHBOR_BLOCK_CELLS": manifold.NEIGHBOR_BLOCK_CELLS},
                     {"NEIGHBOR_BLOCK_CELLS": 1, "NEIGHBOR_SPLIT_CELLS": 1},
                     {"NEIGHBOR_BLOCK_CELLS": 1, "NEIGHBOR_SPLIT_CELLS": 3 * n}]
                )
            )
        with mock.patch.multiple(manifold, **patch):
            full = manifold.neighbor_lists(pts, k)
            got = manifold.neighbor_lists(pts, k, rows=np.array(rows, dtype=np.int64))
            as_list = manifold.neighbor_lists(pts, k, rows=rows)
        assert got.shape == (len(rows), k) and got.dtype == np.int64
        assert same_bits(got, full[rows]) and same_bits(as_list, got)

    def test_rows_run_only_their_blocks(self, monkeypatch):
        # n = 10 in blocks of 3, 3, 4 rows: rows 9, 1 and 8 need the first
        # and last blocks only.
        pts = np.random.default_rng(10).integers(-3, 4, size=(10, 3)).astype(np.float64)
        seen = []
        run_blocks = manifold._run_blocks

        def recorded(fn, blocks):
            blocks = list(blocks)
            seen.extend(blocks)
            run_blocks(fn, blocks)

        monkeypatch.setattr(manifold, "_run_blocks", recorded)
        with mock.patch.multiple(manifold, NEIGHBOR_BLOCK_CELLS=1, NEIGHBOR_SPLIT_CELLS=30):
            got = manifold.neighbor_lists(pts, 2, rows=[9, 1, 8])
            assert seen == [(0, 3), (6, 10)]
            seen.clear()
            assert manifold.neighbor_lists(pts, 2, rows=[]).shape == (0, 2)
            assert seen == []
        np.testing.assert_array_equal(got, oracles.neighbor_lists(pts, 2)[[9, 1, 8]])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([0.0, 2.0], "rows must be integer indices"),
            ([True, False], "rows must be integer indices"),
            ([0, 12], r"rows must lie in \[0, 12\)"),
            ([-1, 3], r"rows must lie in \[0, 12\)"),
            ([[0, 1]], "rows must be a 1-d array of indices"),
            (3, "rows must be a 1-d array of indices"),
        ],
    )
    def test_rows_checked(self, rows, message):
        pts = np.random.default_rng(2).standard_normal((12, 3))
        with pytest.raises(ValueError, match=message):
            manifold.neighbor_lists(pts, 4, rows=rows)

    def test_one_block_calls_start_no_thread(self, monkeypatch):
        # Up to n * n = NEIGHBOR_BLOCK_CELLS (n = 512), the benchmark's
        # training k-NN among them, the call is one block on the caller;
        # one point more and helpers start.
        monkeypatch.setattr(manifold, "WORKERS", 4)
        n = 512
        assert n * n == manifold.NEIGHBOR_BLOCK_CELLS
        pts = np.random.default_rng(7).standard_normal((n + 1, 4))
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        manifold.neighbor_lists(pts[:n], 10)
        assert started == []
        manifold.neighbor_lists(pts, 10)
        assert len(started) == 3

    def test_memory_on_two_workers_at_the_eval_shape(self, monkeypatch):
        # 2400 points, the benchmark's evaluation size: two blocks of at
        # most NEIGHBOR_SPLIT_CELLS distances in flight (2.5 MB measured),
        # where one 2**18-cell block alone peaked at 6.7 MB.
        monkeypatch.setattr(manifold, "WORKERS", 2)
        n = 2400
        labels = np.repeat(np.arange(6), n // 6)
        rng = np.random.default_rng(0)
        pts = 3.0 * rng.standard_normal((6, 4))[labels] + rng.standard_normal((n, 4))
        tracemalloc.start()
        try:
            manifold.neighbor_lists(pts, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _knn_points(data, n, d):
    # Random points at three scales, integer grids (exact ties) or random
    # points with duplicated rows, and which of the three they are.
    kind = data.draw(st.sampled_from(["random", "grid", "duplicates"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        pts = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        pts = rng.standard_normal((n, d)) * data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        if kind == "duplicates":
            pts[rng.integers(n, size=n // 2)] = pts[rng.integers(n, size=n // 2)]
    return pts, kind


class TestFitAllNeighborhoods:
    def test_every_point_gets_a_neighborhood(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((25, 6))
        cfg = ManifoldConfig(dim=2, quality_threshold=50.0, pool_size=6)
        nbhds = manifold.fit_all_neighborhoods(pts, cfg)
        assert len(nbhds) == 25
        assert all(nb.anchor_index == i for i, nb in enumerate(nbhds))

    def test_too_few_points_raises(self):
        cfg = ManifoldConfig(dim=2, pool_size=10)
        with pytest.raises(ValueError, match="pool_size"):
            manifold.fit_all_neighborhoods(np.eye(5), cfg)

    def test_pools_of_another_width_rejected(self):
        pts = np.random.default_rng(2).standard_normal((12, 3))
        cfg = ManifoldConfig(dim=2, pool_size=4)
        with pytest.raises(ValueError, match="pools shape"):
            manifold.fit_all_neighborhoods(pts, cfg, pools=manifold.neighbor_lists(pts, 5))

    @pytest.mark.parametrize(
        "row, entry, message",
        [
            (0, 0, "pools must not hold their own anchor"),
            (3, -1, r"pools must lie in \[0, 12\)"),
            (5, 12, r"pools must lie in \[0, 12\)"),
        ],
        ids=["self", "negative", "n"],
    )
    def test_pools_with_bad_indices_rejected(self, row, entry, message):
        # fit_neighborhood's rule: no anchor in its own pool, every index
        # in [0, n). Unchecked, an anchor became its own duplicate member
        # and a negative index wrapped around.
        pts = np.random.default_rng(2).standard_normal((12, 3))
        cfg = ManifoldConfig(dim=2, pool_size=4)
        pools = manifold.neighbor_lists(pts, cfg.pool_size)
        pools[row, -1] = entry
        with pytest.raises(ValueError, match=message):
            manifold.fit_all_neighborhoods(pts, cfg, pools=pools)

    def test_pools_as_a_list(self):
        # Once a bare TypeError from comparing a list with an int.
        pts = np.random.default_rng(2).standard_normal((12, 3))
        cfg = ManifoldConfig(dim=2, pool_size=4)
        pools = manifold.neighbor_lists(pts, cfg.pool_size)
        got = manifold.fit_all_neighborhoods(pts, cfg, pools=pools.tolist())
        want = manifold.fit_all_neighborhoods(pts, cfg, pools=pools)
        assert same_bits(got.members, want.members) and same_bits(got.bases, want.bases)

    def test_float_pools_rejected(self):
        # Once truncated to integers without a word.
        pts = np.random.default_rng(2).standard_normal((12, 3))
        cfg = ManifoldConfig(dim=2, pool_size=4)
        pools = manifold.neighbor_lists(pts, cfg.pool_size) + 0.5
        with pytest.raises(ValueError, match="pools must be integer indices"):
            manifold.fit_all_neighborhoods(pts, cfg, pools=pools)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_with_given_pools_raise(self, bad):
        # With pools given no k-NN runs, so the fit itself must reject the
        # point before the accept test meets it.
        pts = np.random.default_rng(2).standard_normal((12, 3))
        cfg = ManifoldConfig(dim=2, pool_size=4)
        pools = manifold.neighbor_lists(pts, cfg.pool_size)
        pts[5, 2] = bad
        with pytest.raises(ValueError, match="points contain non-finite entries"):
            manifold.fit_all_neighborhoods(pts, cfg, pools=pools)

    def test_plane_dim_above_the_embedding_dim_raises(self):
        # Unchecked, a 3-plane in 2 dims failed deep in linalg's axis
        # completion; a plane as wide as the embedding still fits.
        pts = np.random.default_rng(2).standard_normal((12, 2))
        order = manifold.neighbor_lists(pts, 4)[0]
        cfg = ManifoldConfig(dim=3, pool_size=4)
        with pytest.raises(ValueError, match="plane dim=3 exceeds the embedding dimension 2"):
            manifold.fit_all_neighborhoods(pts, cfg)
        with pytest.raises(ValueError, match="plane dim=3 exceeds the embedding dimension 2"):
            manifold.fit_neighborhood(pts, 0, order, cfg)
        cfg = ManifoldConfig(dim=2, pool_size=4)
        assert manifold.fit_neighborhood(pts, 0, order, cfg).basis.vectors.shape == (2, 2)
        assert manifold.fit_all_neighborhoods(pts, cfg).bases.shape == (12, 2, 2)

    @pytest.mark.parametrize(
        "case", ["non-finite", "plane-dim", "index-n", "index-negative", "anchor-in-pool"]
    )
    @pytest.mark.parametrize(
        "fit",
        [
            lambda pts, pools, cfg: manifold.fit_neighborhood(pts, 5, pools[5], cfg),
            lambda pts, pools, cfg: manifold.fit_all_neighborhoods(pts, cfg, pools=pools),
        ],
        ids=["fit_neighborhood", "fit_all_neighborhoods"],
    )
    def test_both_fits_share_one_rule(self, fit, case):
        # One body checks both fits' input, so the same bad input gets the
        # same words from each.
        pts = np.random.default_rng(2).standard_normal((12, 2))
        cfg = ManifoldConfig(dim=2, pool_size=4)
        pools = manifold.neighbor_lists(pts, cfg.pool_size)
        message = "pools must lie in [0, 12)"
        if case == "non-finite":
            pts[pools[5, 1], 0] = np.nan
            message = "points contain non-finite entries"
        elif case == "plane-dim":
            cfg = ManifoldConfig(dim=3, pool_size=4)
            message = "plane dim=3 exceeds the embedding dimension 2"
        elif case == "anchor-in-pool":
            pools[5, -1] = 5
            message = "pools must not hold their own anchor"
        else:
            pools[5, -1] = {"index-n": 12, "index-negative": -1}[case]
        with pytest.raises(ValueError) as err:
            fit(pts, pools, cfg)
        assert str(err.value) == message

    def test_anchors_fit_the_full_fits_rows(self):
        # Row t of an anchored fit is row anchors[t] of the full fit, to the
        # bit, for repeated and unsorted anchors and with or without pools;
        # past 2 * SCAN_SHARE the full fit's scan runs in shares.
        rng = np.random.default_rng(31)
        n = 2 * manifold.SCAN_SHARE + 37
        pts = rng.standard_normal((n, 5))
        cfg = ManifoldConfig(dim=3, quality_threshold=80.0, pool_size=8)
        full = manifold.fit_all_neighborhoods(pts, cfg)
        anchors = [n - 1, 3, 3, 411, 0, 250]
        pools = manifold.neighbor_lists(pts, cfg.pool_size)[anchors]
        for got in (
            manifold.fit_all_neighborhoods(pts, cfg, anchors=anchors),
            manifold.fit_all_neighborhoods(pts, cfg, anchors=np.array(anchors), pools=pools),
        ):
            width = got.members.shape[1]
            assert same_bits(got.sizes, full.sizes[anchors])
            assert same_bits(got.members, full.members[anchors][:, :width])
            assert np.all(full.members[anchors][:, width:] == -1)
            assert same_bits(got.bases, full.bases[anchors])

    @pytest.mark.parametrize(
        "anchors, pool_rows, message",
        [
            ([0.0, 3.0], None, "anchors must be integer indices"),
            ([0, 12], None, r"anchors must lie in \[0, 12\)"),
            ([], None, "anchors must be a non-empty 1-d array"),
            ([[0, 1]], [0], "anchors must be a non-empty 1-d array"),
            ([0, 1], [0], r"pools shape \(1, 4\) is not \(2, 4\)"),
        ],
    )
    def test_anchors_checked(self, anchors, pool_rows, message):
        pts = np.random.default_rng(2).standard_normal((12, 3))
        cfg = ManifoldConfig(dim=2, pool_size=4)
        pools = None if pool_rows is None else manifold.neighbor_lists(pts, 4, rows=pool_rows)
        with pytest.raises(ValueError, match=message):
            manifold.fit_all_neighborhoods(pts, cfg, anchors=anchors, pools=pools)

    def test_one_accept_call_per_pool_position(self):
        # Trial sets of several sizes at each position still take one call.
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((40, 4))
        cfg = ManifoldConfig(dim=3, quality_threshold=80.0, pool_size=12)
        with mock.patch.object(
            manifold, "_batched_accepts", wraps=manifold._batched_accepts
        ) as accepts:
            nbhds = manifold.fit_all_neighborhoods(pts, cfg)
        assert len({nb.size for nb in nbhds}) > 2
        assert accepts.call_count == cfg.pool_size - cfg.dim + 1
        assert all(call.args[1].shape[0] == 40 for call in accepts.call_args_list)

    def test_matches_per_anchor_scans_bitwise(self):
        # The lockstep scan must make the same accept choices as running
        # fit_neighborhood point by point, down to the last bit.
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(8, 40))
            d = int(rng.integers(4, 9))
            dim = int(rng.integers(2, min(4, d - 1) + 1))
            cfg = ManifoldConfig(
                dim=dim,
                quality_threshold=float(rng.uniform(50, 97)),
                pool_size=int(rng.integers(dim, n)),
            )
            pts = rng.standard_normal((n, d))
            pools = manifold.neighbor_lists(pts, cfg.pool_size)
            batched = manifold.fit_all_neighborhoods(pts, cfg)
            # Pools handed in as the prefix of a longer list fit the same.
            given = manifold.fit_all_neighborhoods(
                pts, cfg, pools=manifold.neighbor_lists(pts, n - 1)[:, : cfg.pool_size]
            )
            for field in ("members", "sizes", "bases"):
                assert same_bits(getattr(given, field), getattr(batched, field))
            for i, got in enumerate(batched):
                ref = manifold.fit_neighborhood(pts, i, pools[i], cfg)
                assert np.array_equal(got.member_indices, ref.member_indices)
                assert np.array_equal(got.basis.vectors, ref.basis.vectors)


def _closest_call(points, anchor, order, members, dim, threshold):
    # Replays the reference scan and returns how close its worst member came
    # to the threshold on any trial set.
    current = [anchor] + list(order[: dim - 1])
    closest = np.inf
    for cand in order[dim - 1 :]:
        trial = current + [cand]
        closest = min(closest, abs(float(np.min(reconstruction_qualities(points[trial], dim))) - threshold))
        if cand in members:
            current = trial
    return closest


@st.composite
def scan_cases(draw):
    # Gram cases keep every trial set no larger than the ambient dim, scatter
    # cases make most of them larger. Grid points give exact distance ties
    # and duplicate rows; a line through part of the set gives rank-1 trial
    # sets under a plane of dim >= 2.
    if draw(st.booleans()):
        d = draw(st.integers(6, 8))
        n = draw(st.integers(d, 12))
        plane_dim = draw(st.integers(2, 3))
        pool = draw(st.integers(plane_dim, d - 1))
    else:
        d = draw(st.integers(2, 4))
        n = draw(st.integers(d + 4, 12))
        plane_dim = draw(st.integers(2, d))
        pool = draw(st.integers(max(plane_dim, d), n - 1))
    layout = draw(st.sampled_from(["normal", "grid", "line", "duplicates"]))
    threshold = draw(st.floats(50.0, 99.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "grid":
        points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        points = rng.standard_normal((n, d))
    if layout == "line":
        k = n // 2 + 1
        points[:k] = points[0] + rng.standard_normal((k, 1)) * rng.standard_normal(d)
    elif layout == "duplicates":
        points[n // 2 :] = points[: n - n // 2]
    return points, ManifoldConfig(dim=plane_dim, quality_threshold=threshold, pool_size=pool)


class TestScanAgainstOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(scan_cases())
    def test_members_match_greedy_oracle(self, case):
        points, cfg = case
        pools = manifold.neighbor_lists(points, cfg.pool_size)
        threshold = cfg.quality_threshold / 100.0
        for i, nb in enumerate(manifold.fit_all_neighborhoods(points, cfg)):
            order = [int(j) for j in pools[i]]
            expected = greedy_plane_scan(points, i, order, cfg.dim, cfg.quality_threshold)
            if nb.member_indices.tolist() != expected:
                margin = _closest_call(points, i, order, set(expected), cfg.dim, threshold)
                assert margin <= QUALITY_MARGIN, (i, nb.member_indices.tolist(), expected)
            basis, _ = linalg.pca_top_m(points[nb.member_indices], cfg.dim)
            assert np.array_equal(nb.basis.vectors, basis.vectors)


class TestScanAgainstLoop:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scan_cases())
    def test_padded_scan_equals_per_size_loop(self, case):
        # The loop of one exact accept test per (position, member count)
        # that the padded scan replaced must give the same member lists.
        points, cfg = case
        pools = manifold.neighbor_lists(points, cfg.pool_size)
        anchors = np.arange(len(points))
        members, sizes = manifold._scan_pools(points, anchors, pools, cfg)
        ref_members, ref_sizes = oracles.scan_pools_loop(points, anchors, pools, cfg)
        np.testing.assert_array_equal(sizes, ref_sizes)
        for row, ref, size in zip(members, ref_members, sizes):
            np.testing.assert_array_equal(row[:size], ref[:size])


@st.composite
def accept_cases(draw):
    # (embeddings, padded trial, plane dim m, threshold): sets from
    # oracles.nearly_flat_set with lambda_m / lambda_1 from 1e-4 down to
    # 1e-16, all no larger than d (the Gram route) or some larger (the
    # scatter route, with sets on both sides of d). The threshold is random
    # or one set's own exact worst quality, which that set must reach.
    dim = draw(st.sampled_from([4, 6, 12]))
    m = draw(st.integers(2, 3))
    scatter = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(m + 1, dim + (7 if scatter else 1), size=draw(st.integers(1, 8)))
    if scatter:
        sizes[0] = max(sizes[0], dim + 1)
    kinds = ["spectrum", "duplicate", "curve", "rank"]
    sets = [
        oracles.nearly_flat_set(rng, kinds[rng.integers(4)], size, dim, m, 10.0 ** -rng.uniform(4, 16))
        for size in sizes
    ]
    trial = np.full((len(sets), max(sizes)), -1)
    for i, size in enumerate(sizes):
        trial[i, :size] = np.arange(size) + sizes[:i].sum()
    embeddings = np.concatenate(sets)
    if draw(st.booleans()):
        return embeddings, trial, m, rng.uniform(0.3, 0.999)
    points = embeddings[trial[0, : sizes[0]]]
    vectors, centroid = linalg._pca_vectors_batch(points[None], m)
    return embeddings, trial, m, float(np.min(manifold.reconstruction_quality(points, vectors[0], centroid[0])))


class TestBatchedAccepts:
    @staticmethod
    def _batch(case):
        # (embeddings, trial, plane dim): Gram sets (size <= ambient dim),
        # sets with a duplicated row or on a line (rank below the plane dim,
        # so the basis is completed with axes) and scatter sets.
        rng = np.random.default_rng(31)
        if case == "scatter":
            emb = rng.standard_normal((40, 3))
            return emb, np.stack([rng.choice(40, 6, replace=False) for _ in range(30)]), 2
        emb = rng.standard_normal((40, 8))
        if case == "gram":
            return emb, np.stack([rng.choice(40, 5, replace=False) for _ in range(30)]), 3
        if case == "duplicate":
            trial = np.stack([rng.choice(40, 4, replace=False) for _ in range(30)])
            trial[::2, -1] = trial[::2, 0]
            return emb, trial, 3
        emb[:20] = emb[0] + rng.standard_normal((20, 1)) * rng.standard_normal(8)
        trial = np.stack([rng.choice(20, 4, replace=False) for _ in range(30)])
        trial[::3, -1] = rng.choice(np.arange(20, 40), 10, replace=False)
        return emb, trial, 2

    @pytest.mark.parametrize("case", ["gram", "duplicate", "collinear", "scatter"])
    def test_matches_per_set_route_without_calling_it(self, case):
        # Expected decisions come from the per-set PCA of tests/oracles.py,
        # which the library never calls.
        emb, trial, dim = self._batch(case)
        worst = []
        for row in trial:
            vectors, centroid = oracles.pca_vectors(emb[row], dim)
            worst.append(np.min(manifold.reconstruction_quality(emb[row], vectors, centroid)))
        # A threshold equal to one set's worst quality: that set passes only
        # if its arithmetic is reproduced to the last bit.
        threshold = float(np.sort(worst)[len(worst) // 2])
        expected = np.asarray(worst) >= threshold
        assert 0 < expected.sum() < expected.size
        if case in ("duplicate", "collinear"):
            ranks = [np.linalg.matrix_rank(emb[r] - emb[r].mean(axis=0)) for r in trial]
            assert min(ranks) < dim
        got = manifold._batched_accepts(emb, trial, dim, threshold)
        np.testing.assert_array_equal(got, expected)

    @staticmethod
    def _padded(rows):
        trial = np.full((len(rows), max(len(r) for r in rows)), -1)
        for i, row in enumerate(rows):
            trial[i, : len(row)] = row
        return trial

    @staticmethod
    def _oracle_worst(emb, rows, dim):
        worst = []
        for row in rows:
            vectors, centroid = oracles.pca_vectors(emb[row], dim)
            worst.append(np.min(manifold.reconstruction_quality(emb[row], vectors, centroid)))
        return np.asarray(worst)

    def test_mixed_sizes_in_one_padded_call(self):
        # Sets of 4 to 9 points in 5 dims, on both sides of the ambient dim,
        # padded with -1 into one call; the threshold is one set's worst
        # quality, which that set must still reach.
        rng = np.random.default_rng(37)
        emb = rng.standard_normal((40, 5))
        rows = [rng.choice(40, int(rng.integers(4, 10)), replace=False) for _ in range(40)]
        sizes = np.array([len(r) for r in rows])
        assert sizes.min() <= 5 < sizes.max()
        worst = self._oracle_worst(emb, rows, 3)
        threshold = float(np.sort(worst)[len(worst) // 2])
        expected = worst >= threshold
        assert 0 < expected.sum() < expected.size
        got = manifold._batched_accepts(emb, self._padded(rows), 3, threshold)
        np.testing.assert_array_equal(got, expected)

    @staticmethod
    def _special_set(case, rng):
        # (embeddings, the set's rows, plane dim): a set the padded test must
        # leave to the exact route, as row 0 of a batch of ordinary sets.
        emb = rng.standard_normal((40, 4))
        if case == "grid":
            # Cube corners, turned so that rounding splits the eigenvalues:
            # lambda_1 = lambda_2 = lambda_3 up to rounding, so no 2-plane is
            # preferred, and none holds every corner.
            corners = np.array([[i, j, k, 0] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
            turn, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            emb[:8] = (corners + 2.0) @ turn
            return emb, np.arange(8), 2
        if case == "identical":
            # Three copies of a row whose mean is not exactly the row, so
            # each member is off the centroid by rounding alone.
            emb[:3] = 0.1
            assert np.any(emb[:3].mean(axis=0) != emb[0])
            return emb, np.arange(3), 2
        if case == "tied":
            # Eigenvalues (10, 1, 1, 0.5): lambda_2 is tied with lambda_3,
            # the 1-flat does not accept the set and the 3-space around
            # its plane would reject it, but only the exact route decides.
            scales = np.sqrt([5.0, 0.5, 0.5, 0.25])
            turn, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            emb[:8] = (np.concatenate([np.diag(scales), -np.diag(scales)]) + 2.0) @ turn
            return emb, np.arange(8), 2
        return emb, rng.choice(40, 6, replace=False), 3

    def test_rank_deficient_sets_raise_no_floating_point_error(self):
        # Sets of rank below the plane dim, all Gram sized: their eigenvalues
        # past the rank are rounding, and dividing by their square roots
        # would raise here. The last set is a line plus a member 1e-4 off
        # it beside the centroid: lambda_2 is tied with lambda_3, and the
        # line, the widest untied flat in its plane, does not accept it.
        rng = np.random.default_rng(43)
        emb = rng.standard_normal((45, 8))
        emb[:20] = emb[0] + rng.standard_normal((20, 1)) * rng.standard_normal(8)
        emb[20:30] = emb[30:40]
        line, middle = rng.standard_normal((2, 8))
        emb[40:44] = middle + np.array([[-3.0], [-1.0], [1.0], [3.0]]) * line
        emb[44] = middle + 1e-4 * np.eye(8)[np.argmin(np.abs(line))]
        rows = [rng.choice(20, 5, replace=False) for _ in range(10)]
        rows += [np.append(rng.choice(np.arange(20, 40), 3, replace=False), 25) for _ in range(10)]
        rows.append(np.arange(40, 45))
        worst = self._oracle_worst(emb, rows, 3)
        with np.errstate(all="raise"):
            got = manifold._batched_accepts(emb, self._padded(rows), 3, 0.95)
        np.testing.assert_array_equal(got, worst >= 0.95)

    @settings(max_examples=200)
    @given(accept_cases())
    def test_decides_as_the_exact_route_across_the_band(self, case):
        # Nearly rank-deficient sets, near-collinear curves, duplicated
        # points and exact rank loss, on both routes: every decision is the
        # exact route's, whether the padded test or the exact route made it.
        embeddings, trial, m, threshold = case
        expected = [
            manifold._exact_accepts(embeddings, row[None, row >= 0], m, threshold)[0] for row in trial
        ]
        got = manifold._batched_accepts(embeddings, trial, m, threshold)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("case", ["grid", "threshold", "identical", "tied"])
    def test_undecided_sets_reach_the_exact_route(self, case):
        rng = np.random.default_rng(41)
        emb, special, dim = self._special_set(case, rng)
        rows = [special] + [rng.choice(np.arange(8, 40), 6, replace=False) for _ in range(9)]
        worst = self._oracle_worst(emb, rows, dim)
        # On the threshold: the special set's own worst quality. Otherwise a
        # threshold far from every worst quality but the special set's.
        threshold = float(worst[0]) if case == "threshold" else 0.9
        seen = []

        def exact(embeddings, trial, n_components, thr):
            seen.extend(map(tuple, trial))
            return oracle_exact(embeddings, trial, n_components, thr)

        oracle_exact = manifold._exact_accepts
        with mock.patch.object(manifold, "_exact_accepts", exact):
            got = manifold._batched_accepts(emb, self._padded(rows), dim, threshold)
        np.testing.assert_array_equal(got, worst >= threshold)
        assert seen == [tuple(special)]


@st.composite
def record_cases(draw):
    # scan_cases, sometimes under the knn_only ablation.
    points, cfg = draw(scan_cases())
    if draw(st.booleans()):
        cfg = dataclasses.replace(cfg, knn_only=True)
    return points, cfg


def _fitted_record(seed=0, n=30, d=5):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    cfg = ManifoldConfig(dim=2, quality_threshold=70.0, pool_size=8)
    return points, cfg, manifold.fit_all_neighborhoods(points, cfg)


def _hand_rows(points, record, dim):
    # The record's rows, each built and validated on its own from its
    # members' PCA.
    rows = []
    for i in range(len(record)):
        members = record.members[i, : record.sizes[i]].tolist()
        basis, _ = linalg.pca_top_m(points[members], dim)
        rows.append(LinearNeighborhood(np.array(members), basis))
    return rows


class TestRunBlocks:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("n_blocks", [0, 1, 2, 7])
    def test_every_block_runs_once(self, monkeypatch, workers, n_blocks):
        monkeypatch.setattr(manifold, "WORKERS", workers)
        before = threading.enumerate()
        out = np.zeros(n_blocks, dtype=np.int64)

        def fn(block):
            out[block] += block + 1

        manifold._run_blocks(fn, range(n_blocks))
        np.testing.assert_array_equal(out, np.arange(1, n_blocks + 1))
        assert threading.enumerate() == before

    def test_stress_more_workers_than_cores(self, monkeypatch):
        # Eight threads switching every microsecond over 3000 tiny blocks: a
        # block lost or taken twice from the shared iterator shows as a
        # count other than one.
        monkeypatch.setattr(manifold, "WORKERS", 8)
        counts = [0] * 3000

        def fn(block):
            counts[block] += 1

        before = threading.enumerate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            manifold._run_blocks(fn, range(len(counts)))
        finally:
            sys.setswitchinterval(interval)
        assert counts == [1] * len(counts)
        assert threading.enumerate() == before

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        # The caller's first block waits until a helper has raised in its
        # own block, so the error surely comes from a helper thread.
        monkeypatch.setattr(manifold, "WORKERS", 2)
        caller = threading.current_thread()
        raised = threading.Event()
        ran = []

        def fn(block):
            if threading.current_thread() is caller:
                assert raised.wait(timeout=30.0)
                ran.append(block)
                return
            raised.set()
            raise KeyError(f"block {block} failed in a helper")

        before = threading.enumerate()
        with pytest.raises(KeyError, match="failed in a helper") as info:
            manifold._run_blocks(fn, range(50))
        assert type(info.value) is KeyError
        assert threading.enumerate() == before
        # After the error no one takes a new block.
        assert len(ran) <= 1

    def test_caller_exception_joins_helpers_first(self, monkeypatch):
        # Each helper holds its first block until the caller has raised.
        monkeypatch.setattr(manifold, "WORKERS", 3)
        caller = threading.current_thread()
        raised = threading.Event()

        def fn(block):
            if threading.current_thread() is caller:
                raised.set()
                raise ValueError("caller block failed")
            assert raised.wait(timeout=30.0)

        before = threading.enumerate()
        with pytest.raises(ValueError, match="caller block failed"):
            manifold._run_blocks(fn, range(20))
        assert threading.enumerate() == before


class TestThreadedScan:
    # Shares of the greedy scan on helper threads, against one serial scan,
    # bit for bit: grids (ties and duplicate rows), lines (rank below the
    # plane dim), Gram and scatter trial sets, and the knn_only ablation.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(record_cases(), st.integers(1, 4))
    def test_equals_one_thread(self, case, share):
        points, cfg = case
        with mock.patch.object(manifold, "WORKERS", 1):
            serial = manifold.fit_all_neighborhoods(points, cfg)
        for workers in (1, 2, 3):
            with mock.patch.multiple(manifold, WORKERS=workers, SCAN_SHARE=share):
                got = manifold.fit_all_neighborhoods(points, cfg)
            for field in ("members", "sizes", "bases"):
                assert same_bits(getattr(got, field), getattr(serial, field)), (workers, field)

    def test_small_fits_start_no_thread(self, monkeypatch):
        # Below 2 * SCAN_SHARE anchors the scan is one share on the caller.
        monkeypatch.setattr(manifold, "WORKERS", 4)

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        points = np.random.default_rng(5).standard_normal((2 * manifold.SCAN_SHARE - 1, 4))
        cfg = ManifoldConfig(dim=2, pool_size=6)
        # The pools' own k-NN (799 * 799 distances) splits into blocks on
        # helpers, so it runs before threads are refused.
        pools = manifold.neighbor_lists(points, cfg.pool_size)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        manifold.fit_all_neighborhoods(points, cfg, pools=pools)

    def test_large_fit_splits_into_shares(self, monkeypatch):
        monkeypatch.setattr(manifold, "WORKERS", 3)
        monkeypatch.setattr(manifold, "SCAN_SHARE", 10)
        points = np.random.default_rng(6).standard_normal((35, 4))
        cfg = ManifoldConfig(dim=2, quality_threshold=80.0, pool_size=6)
        with mock.patch.object(manifold, "_scan_pools", wraps=manifold._scan_pools) as scans:
            manifold.fit_all_neighborhoods(points, cfg)
        shares = sorted(tuple(call.args[1][[0, -1]]) for call in scans.call_args_list)
        assert shares == [(0, 10), (11, 22), (23, 34)]


class TestNeighborhoodsRecord:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(record_cases())
    def test_rows_match_oracles(self, case):
        # Members from the greedy scan oracle (the whole pool under
        # knn_only), each basis and centroid byte-equal to pca_top_m of
        # the row's members; ties, duplicate rows, rank-deficient sets and
        # sets on both sides of the ambient dim come from scan_cases.
        points, cfg = case
        record = manifold.fit_all_neighborhoods(points, cfg)
        pools = manifold.neighbor_lists(points, cfg.pool_size)
        n = len(points)
        assert len(record) == n and record.members.shape[1] == record.sizes.max()
        np.testing.assert_array_equal(record.members[:, 0], np.arange(n))
        for i, size in enumerate(record.sizes):
            members = record.members[i, :size].tolist()
            assert np.all(record.members[i, size:] == -1)
            order = [int(j) for j in pools[i]]
            if cfg.knn_only:
                assert members == [i] + order
            else:
                expected = greedy_plane_scan(points, i, order, cfg.dim, cfg.quality_threshold)
                if members != expected:
                    threshold = cfg.quality_threshold / 100.0
                    margin = _closest_call(points, i, order, set(expected), cfg.dim, threshold)
                    assert margin <= QUALITY_MARGIN, (i, members, expected)
            basis, _ = linalg.pca_top_m(points[members], cfg.dim)
            assert record.bases[i].tobytes() == basis.vectors.tobytes()

    def test_arrays_are_read_only(self):
        _, _, record = _fitted_record()
        row = record[3]
        for array in (
            record.members, record.sizes, record.bases,
            row.member_indices, row.basis.vectors,
        ):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda b: b[4].__imul__(3.0),
            lambda b: b[7, 1].__setitem__(slice(None), b[7, 0]),
            lambda b: b[2, 0].__setitem__(0, np.nan),
        ],
        ids=["stretched", "skewed", "nan"],
    )
    def test_corrupted_frame_raises_as_a_single_basis(self, corrupt):
        # One check over the stack reports what validating the bad frame
        # alone as an OrthonormalBasis reports.
        _, _, record = _fitted_record()
        bases = record.bases.copy()
        corrupt(bases)
        bad = int(np.flatnonzero(np.any(bases != record.bases, axis=(1, 2)))[0])
        with pytest.raises(ValueError) as alone:
            linalg.OrthonormalBasis(bases[bad])
        with pytest.raises(ValueError) as stacked:
            Neighborhoods(record.members, record.sizes, bases)
        assert str(stacked.value) == str(alone.value)

    def test_malformed_members_rejected(self):
        _, _, record = _fitted_record()
        members = record.members.copy()
        short = int(np.argmin(record.sizes))
        assert record.sizes[short] < record.members.shape[1]
        members[short, -1] = 0
        with pytest.raises(ValueError, match="padding"):
            Neighborhoods(members, record.sizes, record.bases)
        with pytest.raises(ValueError, match="width"):
            Neighborhoods(record.members, record.sizes - 1, record.bases)

    def test_record_from_hand_made_rows_equals_the_fitted_one(self):
        points, cfg, record = _fitted_record()
        stacked = Neighborhoods.of(_hand_rows(points, record, cfg.dim))
        for name in ("members", "sizes", "bases"):
            assert getattr(stacked, name).tobytes() == getattr(record, name).tobytes(), name
        assert Neighborhoods.of(record) is record
        with pytest.raises(ValueError, match="at least one"):
            Neighborhoods.of([])

    def test_row_views_keep_the_row_api(self):
        # What code reading one plane at a time relies on: the row fields,
        # negative indexing, and dataclasses.replace on a view.
        points, _, record = _fitted_record(seed=2)
        row = record[-1]
        i = len(record) - 1
        assert row.anchor_index == i and row.size == record.sizes[i]
        np.testing.assert_array_equal(row.member_indices, record.members[i, : row.size])
        assert row.basis.vectors is not None and row.basis.vectors.shape == record.bases.shape[1:]
        swapped = row.member_indices.copy()
        swapped[-1] = int(np.argmax(np.linalg.norm(points - points[i], axis=1)))
        changed = dataclasses.replace(row, member_indices=swapped)
        np.testing.assert_array_equal(changed.member_indices, swapped)
        assert changed.basis is row.basis
        with pytest.raises(IndexError):
            record[len(record)]

    def test_float_members_refused(self):
        # Both were truncated without a word: the record stored [[0, 1], [1, 0]].
        _, _, record = _fitted_record()
        message = "neighborhood members must be integer indices, got dtype float64"
        with pytest.raises(ValueError, match=message):
            Neighborhoods(np.array([[0.0, 1.7], [1.0, 0.2]]), [2, 2], record.bases[:2])
        with pytest.raises(ValueError, match=message):
            LinearNeighborhood(np.array([0.0, 2.9]), record[0].basis)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(record[0], member_indices=np.array([0.0, 2.9]))

    def test_non_integer_sizes_refused(self):
        # They were truncated without a word: sizes + 0.7 stored the sizes.
        _, _, record = _fitted_record()
        with pytest.raises(ValueError, match="neighborhood sizes must be integer indices"):
            Neighborhoods(record.members, record.sizes + 0.7, record.bases)
        with pytest.raises(ValueError, match="neighborhood sizes must be integer indices"):
            Neighborhoods(record.members[:1], [True], record.bases[:1])

    @pytest.mark.parametrize(
        "members, message",
        [
            ([], "every row needs a member"),
            ([[0, 1]], "1-d"),
            ([0, -1], "non-negative indices"),
            ([True, False], "integer indices"),
        ],
    )
    def test_row_is_checked_as_its_one_row_record(self, members, message):
        _, _, record = _fitted_record()
        with pytest.raises(ValueError, match=message):
            LinearNeighborhood(np.array(members), record[0].basis)

    @pytest.mark.parametrize("i", [0, 7, -1])
    def test_replaced_row_stacks_as_the_edited_record(self, i):
        # The row contract the benchmark's probes rely on: a row with new
        # members has its first member as anchor, and stacking the rows
        # gives the record with that row's members edited.
        _, _, record = _fitted_record(seed=3)
        members = record.members[i, : record.sizes[i]].copy()
        members[1:] = members[:0:-1]
        rows = list(record)
        rows[i] = dataclasses.replace(record[i], member_indices=members)
        assert rows[i].anchor_index == members[0] == record[i].anchor_index
        edited = record.members.copy()
        edited[i, : len(members)] = members
        stacked = Neighborhoods.of(rows)
        assert stacked.members.tobytes() == edited.tobytes()
        for name in ("sizes", "bases"):
            assert getattr(stacked, name).tobytes() == getattr(record, name).tobytes(), name
        moved = dataclasses.replace(record[i], member_indices=members[::-1])
        assert moved.anchor_index == members[-1]


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestProxies:
    def _setup(self, seed=0, n=40, d=6, n_proxies=5):
        rng = np.random.default_rng(seed)
        pts = _unit_rows(rng, n, d)
        cfg = ManifoldConfig(dim=2, quality_threshold=50.0, pool_size=6)
        return pts, cfg

    def test_init_is_deterministic_and_valid(self):
        pts, cfg = self._setup()
        a = manifold.init_proxies(pts, cfg, 6, seed=3)
        b = manifold.init_proxies(pts, cfg, 6, seed=3)
        assert np.array_equal(a.locations, b.locations)
        assert np.array_equal(a.frames, b.frames)
        a.validate()

    def test_farthest_point_spread_beats_random(self):
        # FPS should cover the set: max distance from any point to its
        # nearest proxy is no worse than for the first-k choice.
        pts, cfg = self._setup(seed=5, n=60)
        fps = manifold.init_proxies(pts, cfg, 8, seed=1)
        naive = pts[:8]
        def cover(centers):
            d = np.linalg.norm(pts[:, None] - centers[None], axis=2)
            return d.min(axis=1).max()
        assert cover(fps.locations) <= cover(naive) + 1e-12

    def test_too_many_proxies_raises(self):
        pts, cfg = self._setup()
        with pytest.raises(ValueError, match="n_proxies"):
            manifold.init_proxies(pts, cfg, len(pts) + 1, seed=0)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, np.float64(4.0)])
    def test_non_integer_proxy_count_raises(self, count):
        # A float count once gave ceil(count) proxies without a word.
        pts, cfg = self._setup()
        with pytest.raises(ValueError, match="n_proxies must be an integer"):
            manifold.init_proxies(pts, cfg, count, seed=0)

    def test_numpy_integer_proxy_count_is_an_int(self):
        pts, cfg = self._setup()
        want = manifold.init_proxies(pts, cfg, 5, seed=4)
        for count in (np.int64(5), np.int32(5), np.uint8(5)):
            got = manifold.init_proxies(pts, cfg, count, seed=4)
            assert got.locations.tobytes() == want.locations.tobytes()
            assert got.frames.tobytes() == want.frames.tobytes()

    def test_renormalize_restores_unit_norm(self):
        pts, cfg = self._setup()
        proxies = manifold.init_proxies(pts, cfg, 4, seed=2)
        proxies.locations *= 1.01
        proxies.renormalize_locations()
        proxies.validate()

    def test_maintenance_skips_clean_state_bitwise(self):
        pts, cfg = self._setup()
        proxies = manifold.init_proxies(pts, cfg, 4, seed=2)
        loc = proxies.locations.copy()
        frames = proxies.frames.copy()
        proxies.renormalize_locations()
        proxies.reorthonormalize_frames()
        assert np.array_equal(proxies.locations, loc)
        assert np.array_equal(proxies.frames, frames)

    def test_reorthonormalize_repairs_drift(self):
        pts, cfg = self._setup()
        proxies = manifold.init_proxies(pts, cfg, 4, seed=2)
        rng = np.random.default_rng(9)
        proxies.frames += 1e-3 * rng.standard_normal(proxies.frames.shape)
        proxies.reorthonormalize_frames()
        proxies.validate()

    def test_repairs_only_drifted_frames_as_the_per_frame_route(self):
        pts, cfg = self._setup()
        proxies = manifold.init_proxies(pts, cfg, 6, seed=2)
        rng = np.random.default_rng(10)
        proxies.frames[[1, 4]] += 1e-3 * rng.standard_normal((2, 2, 6))
        proxies.frames[3, 1] = proxies.frames[3, 0]
        before = proxies.frames.copy()
        proxies.reorthonormalize_frames()
        for j in range(6):
            expected = oracles.reorthonormalize_frame(before[j])[0] if j in (1, 3, 4) else before[j]
            assert np.array_equal(proxies.frames[j], expected)

    def test_validate_rejects_a_skewed_frame(self):
        pts, cfg = self._setup()
        proxies = manifold.init_proxies(pts, cfg, 4, seed=2)
        proxies.frames[2, 1] += 1e-6 * proxies.frames[2, 0]
        with pytest.raises(ValueError, match="orthogonal"):
            proxies.validate()

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="frames"):
            ProxySet(np.ones((3, 4)), np.ones((2, 2, 4)))
