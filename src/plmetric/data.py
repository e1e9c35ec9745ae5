"""Dataset container, on-disk formats, and the synthetic patch benchmark.

Two interchangeable formats are supported: a packed binary layout (magic
``PLMF``) for fast round trips and a plain CSV layout for inspection. The
synthetic generator places each class on its own low-dimensional linear patch
inside a high-dimensional ambient space, which is the geometry the rest of
the library is built to exploit. checked_labels is the package's one label
rule, which FeatureDataset and every labelled metric in evaluation apply.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg

MAGIC = b"PLMF"
FORMAT_VERSION = 1

# Base half-width of the uniform coordinate box each patch is sampled from.
PATCH_EXTENT = 1.0
# Class centers must be at least this many times the widest patch half-width apart.
MIN_SEPARATION_FACTOR = 4.0


class DatasetFormatError(Exception):
    """Raised when an on-disk dataset cannot be parsed."""


def checked_labels(labels, n: int) -> np.ndarray:
    """``labels`` as an array if a 1-d integer array-like of n non-negative
    labels, else (None included) one ValueError naming shape and dtype."""
    labels = np.asarray(labels)
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer) or np.any(labels < 0):
        raise ValueError(
            f"labels must be a 1-d array of {n} non-negative integers, "
            f"got shape {labels.shape} of dtype {labels.dtype}"
        )
    return labels


@dataclass
class FeatureDataset:
    """In-memory dataset: float64 features with optional labels (checked_labels), as int64."""

    features: np.ndarray
    labels: np.ndarray | None = None
    ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features must be a non-empty 2-d array, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        self.features = feats
        n = feats.shape[0]
        if self.labels is not None:
            self.labels = checked_labels(self.labels, n).astype(np.int64)
        if self.ids is None:
            self.ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(self.ids)
            if ids.shape != (n,):
                raise ValueError(f"ids shape {ids.shape} does not match {n} samples")
            self.ids = ids.astype(np.int64)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the linear-patch benchmark generator.

    Patches are anisotropic: per-axis half-widths run geometrically from
    ``patch_aspect`` down to ``1 / patch_aspect`` (times ``PATCH_EXTENT``),
    so classes form long thin slabs rather than round blobs. When
    ``offset_scale`` is None the center radius defaults to four times the
    widest half-width, matching the separation floor.
    """

    n_classes: int = 5
    patch_dim: int = 3
    ambient_dim: int = 32
    points_per_class: int = 100
    noise_sigma: float = 0.01
    patch_aspect: float = 6.0
    offset_scale: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        if not 1 <= self.patch_dim < self.ambient_dim:
            raise ValueError("patch_dim must satisfy 1 <= patch_dim < ambient_dim")
        if self.points_per_class < 1:
            raise ValueError("points_per_class must be positive")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and non-negative")
        if not 1.0 <= self.patch_aspect < np.inf:
            raise ValueError("patch_aspect must be finite and at least 1")
        if self.offset_scale is not None and not 0.0 < self.offset_scale < np.inf:
            raise ValueError("offset_scale must be finite and positive")

    @property
    def patch_extents(self) -> np.ndarray:
        """Per-axis half-widths, widest first."""
        exponents = np.linspace(1.0, -1.0, self.patch_dim)
        return PATCH_EXTENT * self.patch_aspect**exponents

    @property
    def center_radius(self) -> float:
        """Radius of the sphere the class centers are drawn on."""
        if self.offset_scale is not None:
            return self.offset_scale
        return MIN_SEPARATION_FACTOR * float(np.max(self.patch_extents))


def _separated_offsets(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    # Class centers on a sphere of radius center_radius, redrawn as a set
    # until all pairwise gaps exceed the separation floor.
    radius = spec.center_radius
    min_gap = MIN_SEPARATION_FACTOR * float(np.max(spec.patch_extents))
    if spec.n_classes == 1:
        direction = rng.standard_normal(spec.ambient_dim)
        return (direction / np.linalg.norm(direction) * radius)[None, :]
    for _ in range(10_000):
        dirs = rng.standard_normal((spec.n_classes, spec.ambient_dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        offsets = dirs * radius
        gaps = np.linalg.norm(offsets[:, None, :] - offsets[None, :, :], axis=2)
        gaps[np.diag_indices_from(gaps)] = np.inf
        if np.min(gaps) >= min_gap:
            return offsets
    raise ValueError(
        f"could not place {spec.n_classes} class centers at least {min_gap} apart "
        f"on a sphere of radius {radius}; increase offset_scale"
    )


def generate_synthetic(spec: SyntheticSpec) -> FeatureDataset:
    """Sample the linear-patch benchmark described by ``spec``.

    Each class gets a random orthonormal patch frame and a center drawn on a
    sphere of radius ``center_radius``, with centers rejected as a set until
    every pair is at least four widest-half-widths apart. Points are uniform
    in the anisotropic patch coordinate box, mapped to ambient space, and
    perturbed with isotropic Gaussian noise of scale ``noise_sigma``. Fully
    deterministic for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    offsets = _separated_offsets(spec, rng)
    extents = spec.patch_extents
    blocks = []
    labels = []
    for cls in range(spec.n_classes):
        raw = rng.standard_normal((spec.patch_dim, spec.ambient_dim))
        frames, _ = linalg.reorthonormalize(raw[None])
        coords = rng.uniform(-1.0, 1.0, size=(spec.points_per_class, spec.patch_dim)) * extents
        noise = rng.standard_normal((spec.points_per_class, spec.ambient_dim)) * spec.noise_sigma
        blocks.append(offsets[cls] + coords @ frames[0] + noise)
        labels.extend([cls] * spec.points_per_class)
    return FeatureDataset(np.vstack(blocks), np.asarray(labels, dtype=np.int64))


def save_binary(dataset: FeatureDataset, path: str | Path) -> None:
    """Write the packed binary layout, refusing features beyond float32 and labels beyond uint32."""
    path = Path(path)
    n, d = dataset.features.shape
    has_labels = dataset.labels is not None
    if np.max(np.abs(dataset.features)) > np.finfo("<f4").max:
        raise ValueError(f"{path}: features beyond the float32 range cannot be stored")
    if has_labels and np.max(dataset.labels) > np.iinfo("<u4").max:
        raise ValueError(f"{path}: labels beyond the uint32 range cannot be stored")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HQQB", FORMAT_VERSION, n, d, int(has_labels)))
        fh.write(np.ascontiguousarray(dataset.features, dtype="<f4").tobytes())
        if has_labels:
            fh.write(np.ascontiguousarray(dataset.labels, dtype="<u4").tobytes())


def _checked_dataset(path: Path, *arrays) -> FeatureDataset:
    # Contents that FeatureDataset rejects are a format error of the file.
    try:
        return FeatureDataset(*arrays)
    except (ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def load_binary(path: str | Path) -> FeatureDataset:
    """Read the packed binary layout, validating magic, version, and length."""
    path = Path(path)
    blob = path.read_bytes()
    header_size = 4 + struct.calcsize("<HQQB")
    if len(blob) < header_size:
        raise DatasetFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {blob[:4]!r} at offset 0")
    version, n, d, label_flag = struct.unpack_from("<HQQB", blob, 4)
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"{path}: unsupported format version {version}")
    if label_flag not in (0, 1):
        raise DatasetFormatError(f"{path}: invalid label flag {label_flag}")
    feat_bytes = n * d * 4
    expected = header_size + feat_bytes + (n * 4 if label_flag else 0)
    if len(blob) != expected:
        raise DatasetFormatError(
            f"{path}: expected {expected} bytes for n={n} d={d}, found {len(blob)}"
        )
    # FeatureDataset widens the float32 rows and uint32 labels to float64 and int64.
    features = np.frombuffer(blob, dtype="<f4", count=n * d, offset=header_size).reshape(n, d)
    labels = None
    if label_flag:
        labels = np.frombuffer(blob, dtype="<u4", count=n, offset=header_size + feat_bytes)
    return _checked_dataset(path, features, labels)


def save_csv(dataset: FeatureDataset, path: str | Path) -> None:
    """Write rows as ``id,label,f0..f{d-1}``; a missing label becomes -1."""
    path = Path(path)
    d = dataset.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"f{i}" for i in range(d)])
        for row in range(dataset.n_samples):
            label = int(dataset.labels[row]) if dataset.labels is not None else -1
            values = [f"{v:.9g}" for v in dataset.features[row]]
            writer.writerow([int(dataset.ids[row]), label] + values)


def load_csv(path: str | Path) -> FeatureDataset:
    """Parse the CSV layout; errors name the offending row."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        if len(header) < 3 or header[:2] != ["id", "label"]:
            raise DatasetFormatError(f"{path}: bad header {header[:4]}")
        d = len(header) - 2
        if header[2:] != [f"f{i}" for i in range(d)]:
            raise DatasetFormatError(f"{path}: feature columns must be f0..f{d - 1}")
        ids = []
        labels = []
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if len(record) != d + 2:
                raise DatasetFormatError(f"{path}: row {lineno} has {len(record)} fields, expected {d + 2}")
            try:
                ids.append(int(record[0]))
                labels.append(int(record[1]))
                rows.append([float(v) for v in record[2:]])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: row {lineno}: {exc}") from None
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    unlabeled = np.asarray(labels) == -1
    if 0 < np.count_nonzero(unlabeled) < len(rows):
        bad = int(np.argmax(unlabeled)) + 2
        raise DatasetFormatError(f"{path}: row {bad}: mixed labeled and unlabeled rows")
    return _checked_dataset(path, rows, None if np.all(unlabeled) else labels, ids)


def save_dataset(dataset: FeatureDataset, path: str | Path, fmt: str | None = None) -> None:
    """Dispatch on ``fmt`` or the file suffix (.csv vs anything else)."""
    fmt = fmt or ("csv" if str(path).endswith(".csv") else "binary")
    if fmt == "csv":
        save_csv(dataset, path)
    elif fmt == "binary":
        save_binary(dataset, path)
    else:
        raise ValueError(f"unknown dataset format {fmt!r}")


def load_dataset(path: str | Path) -> FeatureDataset:
    """Load either format: binary when the file starts with ``MAGIC``, else CSV.

    An unreadable file raises OSError, contents that do not parse DatasetFormatError.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        binary = fh.read(4) == MAGIC
    return load_binary(path) if binary else load_csv(path)
