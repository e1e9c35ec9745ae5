"""Tests for dataset formats and the synthetic benchmark generator."""

import re
import struct

import numpy as np
import pytest

from plmetric import data
from plmetric.data import DatasetFormatError, FeatureDataset, SyntheticSpec


class TestFeatureDataset:
    def test_defaults_ids_to_range(self):
        ds = FeatureDataset(np.zeros((3, 2)))
        np.testing.assert_array_equal(ds.ids, [0, 1, 2])
        assert ds.labels is None
        assert ds.n_samples == 3 and ds.dim == 2

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="non-negative"):
            FeatureDataset(np.zeros((2, 2)), labels=np.array([0, -1]))

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integers"):
            FeatureDataset(np.zeros((2, 2)), labels=np.array([0.0, 1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="labels shape"):
            FeatureDataset(np.zeros((2, 2)), labels=np.array([0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureDataset(np.array([[1.0, np.inf]]))


class TestBinaryFormat:
    def test_round_trip_is_bit_exact_for_float32_data(self, tmp_path):
        # Values chosen to be exactly representable in float32.
        feats = np.array([[0.5, -1.25], [3.0, 0.0], [-0.75, 2.5]])
        ds = FeatureDataset(feats, labels=np.array([0, 1, 1]))
        path = tmp_path / "small.plmf"
        data.save_binary(ds, path)
        back = data.load_binary(path)
        assert np.array_equal(back.features, feats)
        assert np.array_equal(back.labels, ds.labels)

    def test_round_trip_large_within_format_tolerance(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((500, 64))
        ds = FeatureDataset(feats)
        path = tmp_path / "big.plmf"
        data.save_binary(ds, path)
        back = data.load_binary(path)
        # Storage is float32, so the round trip equals an explicit downcast.
        expected = feats.astype(np.float32).astype(np.float64)
        assert np.array_equal(back.features, expected)
        assert back.labels is None

    def test_bad_magic_is_reported_with_offset(self, tmp_path):
        path = tmp_path / "bad.plmf"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(DatasetFormatError, match="magic.*offset 0"):
            data.load_binary(path)

    def test_truncated_payload_is_rejected(self, tmp_path):
        ds = FeatureDataset(np.ones((4, 3)))
        path = tmp_path / "trunc.plmf"
        data.save_binary(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DatasetFormatError, match="expected"):
            data.load_binary(path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        ds = FeatureDataset(np.ones((1, 1)))
        path = tmp_path / "ver.plmf"
        data.save_binary(ds, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="version"):
            data.load_binary(path)

    def test_non_finite_feature_is_a_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / "inf.plmf"
        data.save_binary(FeatureDataset(np.ones((2, 2))), path)
        blob = bytearray(path.read_bytes())
        header_size = 4 + struct.calcsize("<HQQB")
        blob[header_size : header_size + 4] = np.float32(np.inf).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match=rf"{re.escape(str(path))}: .*non-finite"):
            data.load_binary(path)

    @pytest.mark.parametrize(
        "ds, named",
        [
            (FeatureDataset(np.array([[1e39, 0.0]])), "float32"),
            (FeatureDataset(np.array([[-1e39, 0.0]])), "float32"),
            (FeatureDataset(np.zeros((2, 1)), labels=np.array([0, 2**32 + 5])), "uint32"),
        ],
        ids=["huge", "huge-negative", "wide-label"],
    )
    def test_values_the_layout_cannot_hold_are_refused_before_writing(self, tmp_path, ds, named):
        path = tmp_path / "out.plmf"
        with pytest.raises(ValueError, match=named):
            data.save_binary(ds, path)
        assert not path.exists()


class TestCsvFormat:
    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = FeatureDataset(rng.standard_normal((20, 5)), labels=rng.integers(0, 3, 20))
        path = tmp_path / "data.csv"
        data.save_csv(ds, path)
        back = data.load_csv(path)
        np.testing.assert_allclose(back.features, ds.features, rtol=1e-6, atol=1e-9)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.ids, ds.ids)

    def test_unlabeled_round_trip_uses_minus_one(self, tmp_path):
        ds = FeatureDataset(np.ones((2, 2)))
        path = tmp_path / "plain.csv"
        data.save_csv(ds, path)
        text = path.read_text()
        assert text.splitlines()[0] == "id,label,f0,f1"
        assert ",-1," in text.splitlines()[1]
        assert data.load_csv(path).labels is None

    def test_parse_error_names_row(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("id,label,f0\n0,1,0.5\n1,2,oops\n")
        with pytest.raises(DatasetFormatError, match="row 3"):
            data.load_csv(path)

    def test_field_count_error_names_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,label,f0,f1\n0,1,0.5\n")
        with pytest.raises(DatasetFormatError, match="row 2"):
            data.load_csv(path)

    def test_mixed_labels_are_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("id,label,f0\n0,1,0.5\n1,-1,0.25\n")
        with pytest.raises(DatasetFormatError, match="mixed"):
            data.load_csv(path)

    @pytest.mark.parametrize(
        "row, named",
        [("0,1,nan", "non-finite"), ("0,-2,1.0", "non-negative"), (f"{2**70},0,1.0", "too large")],
        ids=["nan", "label", "wide-id"],
    )
    def test_invalid_contents_are_format_errors_naming_the_file(self, tmp_path, row, named):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,label,f0\n{row}\n")
        with pytest.raises(DatasetFormatError, match=rf"{re.escape(str(path))}: .*{named}"):
            data.load_csv(path)

    def test_bad_header_is_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("idx,cls,f0\n0,1,0.5\n")
        with pytest.raises(DatasetFormatError, match="header"):
            data.load_csv(path)


class TestFormatInference:
    def test_load_dataset_sniffs_binary(self, tmp_path):
        ds = FeatureDataset(np.ones((2, 2)), labels=np.array([0, 1]))
        bin_path = tmp_path / "d.plmf"
        csv_path = tmp_path / "d.csv"
        data.save_dataset(ds, bin_path)
        data.save_dataset(ds, csv_path)
        assert data.load_dataset(bin_path).n_samples == 2
        assert data.load_dataset(csv_path).n_samples == 2

    def test_unknown_format_rejected(self, tmp_path):
        ds = FeatureDataset(np.ones((1, 1)))
        with pytest.raises(ValueError, match="unknown dataset format"):
            data.save_dataset(ds, tmp_path / "x", fmt="parquet")


class TestSyntheticBenchmark:
    def test_shapes_and_labels(self):
        spec = SyntheticSpec(n_classes=3, patch_dim=2, ambient_dim=8, points_per_class=10, seed=4)
        ds = data.generate_synthetic(spec)
        assert ds.features.shape == (30, 8)
        np.testing.assert_array_equal(np.unique(ds.labels), [0, 1, 2])
        assert all(np.sum(ds.labels == c) == 10 for c in range(3))

    def test_deterministic_for_fixed_seed(self):
        spec = SyntheticSpec(n_classes=2, patch_dim=2, ambient_dim=6, points_per_class=5, seed=9)
        a = data.generate_synthetic(spec)
        b = data.generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)

    def test_class_centers_are_separated(self):
        spec = SyntheticSpec(seed=7)
        ds = data.generate_synthetic(spec)
        centers = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(spec.n_classes)])
        gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        gaps[np.diag_indices_from(gaps)] = np.inf
        # Drawn offsets are at least 4 widest-half-widths apart; empirical
        # centers wander from them by at most the patch extent.
        floor = 4.0 * np.max(spec.patch_extents) - np.max(spec.patch_extents)
        assert np.min(gaps) > floor

    def test_aspect_shapes_per_axis_extents(self):
        spec = SyntheticSpec(patch_aspect=6.0)
        assert np.allclose(spec.patch_extents, [6.0, 1.0, 1.0 / 6.0])
        assert spec.center_radius == pytest.approx(24.0)
        round_spec = SyntheticSpec(patch_aspect=1.0)
        assert np.allclose(round_spec.patch_extents, [1.0, 1.0, 1.0])

    def test_nearest_centroid_labels_match(self):
        # Ground-truth classes stay unambiguous: nearest class centroid
        # recovers almost every label.
        ds = data.generate_synthetic(SyntheticSpec(seed=3))
        centers = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(5)])
        dists = np.linalg.norm(ds.features[:, None, :] - centers[None, :, :], axis=2)
        predicted = np.argmin(dists, axis=1)
        assert np.mean(predicted == ds.labels) > 0.95

    def test_noiseless_classes_are_planar(self):
        from oracles import plane_fit_residuals

        spec = SyntheticSpec(n_classes=2, patch_dim=3, ambient_dim=16,
                             points_per_class=40, noise_sigma=0.0, seed=11)
        ds = data.generate_synthetic(spec)
        for c in range(2):
            resid = plane_fit_residuals(ds.features[ds.labels == c], spec.patch_dim)
            assert np.max(resid) < 1e-9

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="patch_dim"):
            SyntheticSpec(patch_dim=32, ambient_dim=32)
        with pytest.raises(ValueError, match="noise_sigma"):
            SyntheticSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("field", ["noise_sigma", "patch_aspect", "offset_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_spec_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SyntheticSpec(**{field: value})
