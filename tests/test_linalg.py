"""Tests for the linear-algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmetric import linalg

import oracles
from oracles import jacobi_eigh, top_subspace_projector


class TestOrthonormalBasis:
    def test_accepts_axis_frame(self):
        basis = linalg.OrthonormalBasis(np.eye(3)[:2])
        assert basis.vectors.shape == (2, 3)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit length"):
            linalg.OrthonormalBasis(np.array([[2.0, 0.0]]))

    def test_rejects_non_orthogonal(self):
        v = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        with pytest.raises(ValueError, match="not orthogonal"):
            linalg.OrthonormalBasis(v)

    def test_rejects_rank_above_dim(self):
        with pytest.raises(ValueError, match="rank"):
            linalg.OrthonormalBasis(np.vstack([np.eye(2), [1.0, 0.0]]))

    def test_vectors_are_frozen(self):
        basis = linalg.OrthonormalBasis(np.eye(2))
        with pytest.raises(ValueError):
            basis.vectors[0, 0] = 5.0

    def test_projector_is_idempotent_and_symmetric(self):
        rng = np.random.default_rng(7)
        basis, _ = linalg.pca_top_m(rng.standard_normal((10, 5)), 3)
        proj = basis.vectors.T @ basis.vectors
        np.testing.assert_allclose(proj, proj.T, atol=1e-12)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)


class TestPcaTopM:
    def test_collinear_points_recover_line(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        basis, centroid = linalg.pca_top_m(pts, 1)
        np.testing.assert_allclose(centroid, [1.0, 1.0, 0.0], atol=1e-12)
        expected = np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(basis.vectors, expected, atol=1e-12)

    def test_single_point_uses_axis_completion(self):
        pts = np.array([[0.3, -0.8]])
        basis, centroid = linalg.pca_top_m(pts, 1)
        np.testing.assert_allclose(centroid, pts[0], atol=1e-15)
        np.testing.assert_allclose(basis.vectors, [[1.0, 0.0]], atol=1e-15)

    def test_identical_points_complete_deterministically(self):
        pts = np.tile([0.5, 0.5, 0.5], (4, 1))
        basis, _ = linalg.pca_top_m(pts, 2)
        np.testing.assert_allclose(basis.vectors, np.eye(3)[:2], atol=1e-15)

    def test_matches_jacobi_oracle_on_random_matrix(self):
        rng = np.random.default_rng(42)
        pts = rng.standard_normal((6, 4))
        basis, _ = linalg.pca_top_m(pts, 2)
        centered = pts - pts.mean(axis=0)
        _, evecs = jacobi_eigh(centered.T @ centered)
        for row, col in zip(basis.vectors, evecs[:, :2].T):
            # Directions match up to sign.
            assert min(np.max(np.abs(row - col)), np.max(np.abs(row + col))) < 1e-6

    def test_projector_matches_oracle_across_shapes(self):
        rng = np.random.default_rng(3)
        for n, d, m in [(5, 8, 2), (20, 4, 3), (3, 3, 2), (50, 6, 4)]:
            pts = rng.standard_normal((n, d))
            basis, _ = linalg.pca_top_m(pts, m)
            oracle = top_subspace_projector(pts, m)
            np.testing.assert_allclose(basis.vectors.T @ basis.vectors, oracle, atol=1e-8)

    def test_descending_variance_order(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((200, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
        basis, centroid = linalg.pca_top_m(pts, 4)
        centered = pts - centroid
        variances = [np.var(centered @ v) for v in basis.vectors]
        assert all(a >= b for a, b in zip(variances, variances[1:]))

    def test_sign_convention_largest_coordinate_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            basis, _ = linalg.pca_top_m(rng.standard_normal((12, 6)), 3)
            for row in basis.vectors:
                assert row[np.argmax(np.abs(row))] > 0.0

    def test_rejects_bad_arguments(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError, match="n_components"):
            linalg.pca_top_m(pts, 3)
        with pytest.raises(ValueError, match="n_components"):
            linalg.pca_top_m(pts, 0)
        with pytest.raises(ValueError, match="non-finite"):
            linalg.pca_top_m(np.array([[np.nan, 0.0]]), 1)


class TestPcaVectorsBatch:
    @pytest.mark.parametrize("layout", ["random", "duplicate", "collinear", "identical"])
    @pytest.mark.parametrize("n, d, m", [(4, 8, 3), (6, 6, 2), (9, 4, 3), (3, 5, 4), (1, 3, 2)])
    def test_equals_per_set_route_bitwise(self, layout, n, d, m):
        # Gram (n <= d) and scatter (n > d) stacks, full rank and rank
        # deficient, against the per-set PCA run on each set alone.
        rng = np.random.default_rng(n * 100 + d * 10 + m)
        stack = rng.standard_normal((12, n, d))
        if layout == "duplicate":
            stack[:, -1] = stack[:, 0]
        elif layout == "collinear":
            direction = rng.standard_normal((12, 1, d))
            stack = stack[:, :1] + rng.standard_normal((12, n, 1)) * direction
        elif layout == "identical":
            stack[:] = stack[:, :1]
        vectors, centroids = linalg._pca_vectors_batch(stack, m)
        for points, got_v, got_c in zip(stack, vectors, centroids):
            ref_v, ref_c = oracles.pca_vectors(points, m)
            assert np.array_equal(got_v, ref_v)
            assert np.array_equal(got_c, ref_c)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_pca_top_m_equals_per_set_route_bitwise(self, data):
        # pca_top_m is the stack of one; grid points give exact ties,
        # repeated rows and rank-deficient sets, on both sides of n = d.
        d = data.draw(st.integers(2, 8))
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(1, d))
        coords = st.integers(-2, 2) if data.draw(st.booleans()) else st.floats(-3.0, 3.0)
        points = np.array(data.draw(st.lists(
            st.lists(coords, min_size=d, max_size=d), min_size=n, max_size=n
        )), dtype=np.float64)
        basis, centroid = linalg.pca_top_m(points, m)
        ref_v, ref_c = oracles.pca_vectors(points, m)
        assert np.array_equal(basis.vectors, linalg._fix_signs(ref_v))
        assert np.array_equal(centroid, ref_c)


class TestDecompose:
    # linalg.plane_split, the one in-plane/orthogonal split of the library.
    def test_axis_plane_example(self):
        _, in_vec, resid, p, o = linalg.plane_split(np.array([[3.0, 4.0, 12.0]]), np.eye(3)[:2])
        assert p[0] == pytest.approx(5.0, abs=1e-12)
        assert o[0] == pytest.approx(12.0, abs=1e-12)
        np.testing.assert_array_equal(in_vec[0], [3.0, 4.0, 0.0])
        np.testing.assert_array_equal(resid[0], [0.0, 0.0, 12.0])

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            d = int(rng.integers(2, 16))
            m = int(rng.integers(1, d + 1))
            basis, _ = linalg.pca_top_m(rng.standard_normal((d + 3, d)), m)
            diff = rng.standard_normal((1, d)) * 10.0
            _, _, _, p, o = linalg.plane_split(diff, basis.vectors)
            assert p[0] * p[0] + o[0] * o[0] == pytest.approx(float(diff[0] @ diff[0]), rel=1e-9)

    def test_sign_invariance(self):
        # Both magnitudes ignore the sign of the difference vector.
        rng = np.random.default_rng(23)
        basis, _ = linalg.pca_top_m(rng.standard_normal((8, 5)), 2)
        diff = rng.standard_normal((1, 5))
        plus = linalg.plane_split(diff, basis.vectors)[3:]
        minus = linalg.plane_split(-diff, basis.vectors)[3:]
        assert plus == minus

    def test_batch_agrees_with_scalar(self):
        # A stack of frames, each against its own differences, row by row
        # against the scalar oracle.
        rng = np.random.default_rng(31)
        frames = np.stack(
            [linalg.pca_top_m(rng.standard_normal((9, 6)), 3)[0].vectors for _ in range(4)]
        )
        diffs = rng.standard_normal((4, 10, 6))
        coords, in_vec, resid, p_batch, o_batch = linalg.plane_split(diffs, frames)
        np.testing.assert_allclose(in_vec + resid, diffs, atol=1e-13)
        np.testing.assert_allclose(np.matmul(coords, frames), in_vec, atol=0.0)
        for k in range(4):
            for i, diff in enumerate(diffs[k]):
                p, o = oracles.decompose(diff, frames[k])
                assert p_batch[k, i] == pytest.approx(p, abs=1e-13)
                assert o_batch[k, i] == pytest.approx(o, abs=1e-13)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="ambient dim"):
            linalg.plane_split(np.zeros((1, 4)), np.eye(3)[:1])


class TestSquaredDistances:
    # linalg.squared_distances, the one |a|^2 - 2 a.b + |b|^2 table of the
    # library (proxy loss, nearest proxy, k-means).
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_explicit_row_differences(self, data):
        # Integer grid rows make every product and sum exact, so exact
        # ties must come out exactly tied: the table equals the explicit
        # one bit for bit. Generic rows agree to 1e-12 relative plus an
        # absolute floor for the cancellation near zero distances.
        n = data.draw(st.integers(1, 12), label="rows of a")
        k = data.draw(st.integers(1, 12), label="rows of b")
        d = data.draw(st.integers(1, 8), label="dim")
        grid = data.draw(st.booleans(), label="grid rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def rows(m):
            if grid:
                return rng.integers(-3, 4, size=(m, d)).astype(np.float64)
            return rng.standard_normal((m, d)) * 10.0 ** rng.integers(-3, 4)

        a, b = rows(n), rows(k)
        if data.draw(st.booleans(), label="duplicate rows"):
            a[-1] = a[0]
            b[0] = a[0]
        if data.draw(st.booleans(), label="zero rows"):
            a[n // 2] = 0.0
            b[-1] = 0.0
        got = linalg.squared_distances(a, b)
        ref = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        assert got.shape == (n, k)
        if grid:
            assert np.array_equal(got, ref)
        else:
            scale = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :]
            assert np.all(np.abs(got - ref) <= 1e-12 * ref + 1e-14 * scale)


def _frames_case(data):
    # A (k, m, d) stack, random or an exact orthonormal frame, some of whose
    # rows are then replaced by a copy of an earlier row, a zero row, the
    # previous row's direction at length 1e4 plus a residual below the
    # independence tolerance: absolutely (1e-13), or only relative to the
    # row's norm (1e-8), or four times the previous row plus 3e-9 noise,
    # nearly dependent but kept. Returns the stack and which frames are
    # orthonormal and untouched.
    d = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, d))
    k = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    frames = rng.standard_normal((k, m, d)) * data.draw(st.sampled_from([1e-3, 1.0, 50.0]))
    clean = np.zeros(k, dtype=bool)
    for s in range(k):
        if data.draw(st.booleans()):
            frames[s] = np.linalg.qr(rng.standard_normal((d, d)))[0].T[:m]
            clean[s] = True
        for i in range(m):
            kind = data.draw(
                st.sampled_from(["keep", "keep", "copy", "zero", "collapse", "near"])
            )
            if kind == "zero":
                frames[s, i] = 0.0
            elif i > 0 and kind == "copy":
                frames[s, i] = frames[s, data.draw(st.integers(0, i - 1))]
            elif i > 0 and kind == "collapse":
                prev = frames[s, i - 1]
                length = np.linalg.norm(prev)
                direction = prev / length if length > 0.0 else prev
                residual = data.draw(st.sampled_from([1e-13, 1e-8]))
                frames[s, i] = 1e4 * direction + residual * rng.standard_normal(d)
            elif i > 0 and kind == "near":
                frames[s, i] = 4.0 * frames[s, i - 1] + 3e-9 * rng.standard_normal(d)
            else:
                continue
            clean[s] = False
    return frames, clean


class TestReorthonormalize:
    def test_perturbed_frame_is_cleaned(self):
        rng = np.random.default_rng(47)
        basis, _ = linalg.pca_top_m(rng.standard_normal((10, 7)), 3)
        drifted = basis.vectors + 1e-4 * rng.standard_normal((3, 7))
        cleaned, completed = linalg.reorthonormalize(drifted[None])
        assert not completed[0]
        gram = cleaned[0] @ cleaned[0].T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
        # Span is preserved: projectors agree to the perturbation scale.
        np.testing.assert_allclose(
            cleaned[0].T @ cleaned[0], basis.vectors.T @ basis.vectors, atol=1e-3
        )

    def test_orthonormal_input_unchanged(self):
        rng = np.random.default_rng(53)
        basis, _ = linalg.pca_top_m(rng.standard_normal((10, 6)), 4)
        cleaned, completed = linalg.reorthonormalize(basis.vectors[None])
        assert not completed[0]
        np.testing.assert_allclose(cleaned[0], basis.vectors, atol=1e-12)

    def test_rank_deficient_input_is_completed(self):
        v = np.array([[1.0, 0.0, 0.0], [1.0, 1e-13, 0.0]])
        cleaned, completed = linalg.reorthonormalize(v[None])
        assert completed[0]
        gram = cleaned[0] @ cleaned[0].T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_too_many_vectors_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            linalg.reorthonormalize(np.ones((1, 3, 2)))

    def test_non_finite_frame_is_a_clear_error(self):
        frames = np.eye(3)[None, :2].copy()
        frames[0, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linalg.reorthonormalize(frames)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_per_frame_oracle_bitwise(self, data):
        frames, clean = _frames_case(data)
        cleaned, completed = linalg.reorthonormalize(frames)
        for frame, got, got_completed in zip(frames, cleaned, completed):
            ref, ref_completed = oracles.reorthonormalize_frame(frame)
            assert np.array_equal(got, ref)
            assert got_completed == ref_completed
        assert not np.any(completed[clean])
        np.testing.assert_allclose(cleaned[clean], frames[clean], rtol=0.0, atol=1e-12)

    def test_fixed_frames_match_oracle(self):
        # An orthonormal frame (unchanged to the bit), a duplicate row, a
        # zero row and a collapsing row, all with m = d.
        frames = np.zeros((4, 3, 3))
        frames[0] = np.eye(3)
        frames[1] = [[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
        frames[2, 1] = [0.0, 1.0, 0.0]
        frames[3] = [[1.0, 0.0, 0.0], [2.0, 1e-12, 0.0], [0.0, 1.0, 1.0]]
        cleaned, completed = linalg.reorthonormalize(frames)
        np.testing.assert_array_equal(completed, [False, True, True, True])
        assert np.array_equal(cleaned[0], np.eye(3))
        for frame, got in zip(frames, cleaned):
            assert np.array_equal(got, oracles.reorthonormalize_frame(frame)[0])
