"""Tests for the linear-algebra primitives."""

import numpy as np
import pytest

from plmetric import linalg

from oracles import jacobi_eigh, top_subspace_projector


class TestOrthonormalBasis:
    def test_accepts_axis_frame(self):
        basis = linalg.OrthonormalBasis(np.eye(3)[:2])
        assert basis.rank == 2
        assert basis.ambient_dim == 3

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
        proj = basis.projector()
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
            np.testing.assert_allclose(basis.projector(), oracle, atol=1e-8)

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
        # deficient, against _pca_vectors run on each set alone.
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
            ref_v, ref_c = linalg._pca_vectors(points, m)
            assert np.array_equal(got_v, ref_v)
            assert np.array_equal(got_c, ref_c)


class TestDecompose:
    def test_axis_plane_example(self):
        basis = linalg.OrthonormalBasis(np.eye(3)[:2])
        in_plane, orthogonal = linalg.decompose(np.array([3.0, 4.0, 12.0]), basis)
        assert in_plane == pytest.approx(5.0, abs=1e-12)
        assert orthogonal == pytest.approx(12.0, abs=1e-12)

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            d = int(rng.integers(2, 16))
            m = int(rng.integers(1, d + 1))
            basis, _ = linalg.pca_top_m(rng.standard_normal((d + 3, d)), m)
            diff = rng.standard_normal(d) * 10.0
            p, o = linalg.decompose(diff, basis)
            assert p * p + o * o == pytest.approx(float(diff @ diff), rel=1e-9)

    def test_sign_invariance(self):
        # Both magnitudes ignore the sign of the difference vector.
        rng = np.random.default_rng(23)
        basis, _ = linalg.pca_top_m(rng.standard_normal((8, 5)), 2)
        diff = rng.standard_normal(5)
        assert linalg.decompose(diff, basis) == linalg.decompose(-diff, basis)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(31)
        basis, _ = linalg.pca_top_m(rng.standard_normal((9, 6)), 3)
        diffs = rng.standard_normal((40, 6))
        p_batch, o_batch = linalg.decompose_batch(diffs, basis.vectors)
        for i, diff in enumerate(diffs):
            p, o = linalg.decompose(diff, basis)
            assert p_batch[i] == pytest.approx(p, abs=1e-13)
            assert o_batch[i] == pytest.approx(o, abs=1e-13)

    def test_shape_mismatch_raises(self):
        basis = linalg.OrthonormalBasis(np.eye(3)[:1])
        with pytest.raises(ValueError, match="ambient dim"):
            linalg.decompose(np.zeros(4), basis)


class TestReorthonormalize:
    def test_perturbed_frame_is_cleaned(self):
        rng = np.random.default_rng(47)
        basis, _ = linalg.pca_top_m(rng.standard_normal((10, 7)), 3)
        drifted = basis.vectors + 1e-4 * rng.standard_normal((3, 7))
        cleaned, completed = linalg.reorthonormalize(drifted)
        assert not completed
        gram = cleaned.vectors @ cleaned.vectors.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
        # Span is preserved: projectors agree to the perturbation scale.
        np.testing.assert_allclose(cleaned.projector(), basis.projector(), atol=1e-3)

    def test_orthonormal_input_unchanged(self):
        rng = np.random.default_rng(53)
        basis, _ = linalg.pca_top_m(rng.standard_normal((10, 6)), 4)
        cleaned, completed = linalg.reorthonormalize(basis.vectors)
        assert not completed
        np.testing.assert_allclose(cleaned.vectors, basis.vectors, atol=1e-12)

    def test_rank_deficient_input_is_completed(self):
        v = np.array([[1.0, 0.0, 0.0], [1.0, 1e-13, 0.0]])
        cleaned, completed = linalg.reorthonormalize(v)
        assert completed
        gram = cleaned.vectors @ cleaned.vectors.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_too_many_vectors_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            linalg.reorthonormalize(np.ones((3, 2)))
