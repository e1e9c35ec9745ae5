"""Dense linear-algebra primitives shared across the library.

Top-m principal subspace extraction with deterministic sign and
rank-deficiency conventions, decomposition of difference vectors into
in-plane and orthogonal parts relative to an orthonormal frame, and
re-orthonormalization of drifted frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-9
INDEPENDENCE_TOL = 1e-10
# Residual mass below this is considered inside the span during axis completion.
_COMPLETION_TOL = 1e-6


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal frame stored row-per-vector, shape (rank, ambient_dim).

    Construction validates unit norms and pairwise orthogonality to 1e-9 and
    freezes the underlying array, so a held reference cannot drift.
    """

    vectors: np.ndarray

    def __post_init__(self) -> None:
        vecs = np.array(self.vectors, dtype=np.float64, copy=True)
        if vecs.ndim != 2:
            raise ValueError(f"basis must be a 2-d array, got shape {vecs.shape}")
        rank, dim = vecs.shape
        if rank == 0 or rank > dim:
            raise ValueError(f"invalid basis shape {vecs.shape}: need 1 <= rank <= ambient dim")
        if not np.all(np.isfinite(vecs)):
            raise ValueError("basis contains non-finite entries")
        gram = vecs @ vecs.T
        norm_err = np.max(np.abs(np.diag(gram) - 1.0))
        if norm_err > UNIT_NORM_TOL:
            raise ValueError(f"basis vectors are not unit length (max deviation {norm_err:.3e})")
        off = np.abs(gram - np.diag(np.diag(gram)))
        ortho_err = float(np.max(off)) if rank > 1 else 0.0
        if ortho_err > ORTHOGONALITY_TOL:
            raise ValueError(f"basis vectors are not orthogonal (max inner product {ortho_err:.3e})")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]

    def projector(self) -> np.ndarray:
        """Return the (d, d) orthogonal projector onto the spanned subspace."""
        return self.vectors.T @ self.vectors


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Deterministic orientation: largest-magnitude coordinate made positive,
    # first occurrence winning ties. Rows are the last two axes, so a stack
    # of frames is oriented row by row at once.
    lead = np.argmax(np.abs(vectors), axis=-1)[..., None]
    flip = np.take_along_axis(vectors, lead, axis=-1) < 0.0
    return np.where(flip, -vectors, vectors)


def _complete_with_axes(rows: list[np.ndarray], dim: int, target: int) -> list[np.ndarray]:
    # Extend a (possibly empty) orthonormal set to `target` vectors using
    # standard axis vectors in ascending index order, skipping axes already
    # inside the span.
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    for axis in range(dim):
        if len(rows) >= target:
            break
        cand = np.zeros(dim)
        cand[axis] = 1.0
        for r in rows:
            cand = cand - (r @ cand) * r
        norm = np.linalg.norm(cand)
        if norm > _COMPLETION_TOL:
            rows.append(cand / norm)
    if len(rows) < target:
        raise RuntimeError("axis completion failed to reach the requested rank")
    return rows


def _pca_vectors(points: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    # Unvalidated fast path: returns (vectors (m, d), centroid (d,)) without
    # constructing an OrthonormalBasis. Used inside hot scan loops.
    pts = np.asarray(points, dtype=np.float64)
    n, dim = pts.shape
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    if n <= dim:
        # Gram route: eigenvectors of the small (n, n) matrix lift to
        # directions via X^T u / sqrt(lambda).
        gram = centered @ centered.T
        evals, evecs = np.linalg.eigh(gram)
    else:
        scatter = centered.T @ centered
        evals, evecs = np.linalg.eigh(scatter)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    top = float(evals[0]) if evals.size else 0.0
    rank_tol = max(n, dim) * np.finfo(np.float64).eps * max(top, 0.0)
    kept: list[np.ndarray] = []
    for i in range(min(n_components, evals.size)):
        if evals[i] <= rank_tol or evals[i] <= 0.0:
            break
        if n <= dim:
            direction = centered.T @ evecs[:, i] / np.sqrt(evals[i])
        else:
            direction = evecs[:, i]
        kept.append(direction / np.linalg.norm(direction))
    rows = _complete_with_axes(kept, dim, n_components)
    return np.vstack(rows), centroid


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row-wise dot products of two (k, d) stacks, each one the same BLAS dot
    # that `a[i] @ b[i]` or np.linalg.norm of a 1-d vector runs.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _complete_with_axes_batch(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # _complete_with_axes for a stack of frames (k, target, d) whose first
    # counts[s] rows are kept: the same axes in the same order, across all
    # frames at once. The row loop is the Gram-Schmidt order itself.
    rows = rows.copy()
    counts = counts.copy()
    _, target, dim = rows.shape
    for axis in range(dim):
        open_ = np.flatnonzero(counts < target)
        if open_.size == 0:
            break
        held = counts[open_]
        cand = np.zeros((open_.size, dim))
        cand[:, axis] = 1.0
        for j in range(int(held.max())):
            r = rows[open_, j]
            cand = np.where((j < held)[:, None], cand - _dots(r, cand)[:, None] * r, cand)
        norm = np.sqrt(_dots(cand, cand))
        grow = norm > _COMPLETION_TOL
        sets = open_[grow]
        rows[sets, counts[sets]] = cand[grow] / norm[grow, None]
        counts[sets] += 1
    if np.any(counts < target):
        raise RuntimeError("axis completion failed to reach the requested rank")
    return rows


def _pca_vectors_batch(points: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    # _pca_vectors for a stack of equal-size point sets: (k, n, d) in,
    # vectors (k, m, d) and centroids (k, d) out, equal to _pca_vectors bit
    # for bit set by set. Each product keeps the shape it has there (a
    # matrix-vector lift, a dot-product norm), so BLAS runs the same kernel.
    # Rank deficiency is a mask instead of a per-set break: eigenvalues are
    # sorted, so the directions that pass the tolerance come first.
    pts = np.asarray(points, dtype=np.float64)
    n_sets, n, dim = pts.shape
    centroid = pts.mean(axis=1)
    centered = pts - centroid[:, None, :]
    if n <= dim:
        evals, evecs = np.linalg.eigh(np.matmul(centered, centered.transpose(0, 2, 1)))
    else:
        evals, evecs = np.linalg.eigh(np.matmul(centered.transpose(0, 2, 1), centered))
    order = np.argsort(evals, axis=1)[:, ::-1]
    evals = np.take_along_axis(evals, order, axis=1)
    evecs = np.take_along_axis(evecs, order[:, None, :], axis=2)
    rank_tol = max(n, dim) * np.finfo(np.float64).eps * np.maximum(evals[:, 0], 0.0)
    lead = evals[:, : min(n_components, n, dim)]
    kept = (lead > rank_tol[:, None]) & (lead > 0.0)
    vectors = np.zeros((n_sets, n_components, dim))
    for i in range(lead.shape[1]):
        sets = np.flatnonzero(kept[:, i])
        if n <= dim:
            lifted = np.matmul(centered[sets].transpose(0, 2, 1), evecs[sets, :, i, None])
            direction = lifted[:, :, 0] / np.sqrt(evals[sets, i])[:, None]
        else:
            direction = evecs[sets, :, i]
        vectors[sets, i] = direction / np.sqrt(_dots(direction, direction))[:, None]
    counts = kept.sum(axis=1)
    short = np.flatnonzero(counts < n_components)
    if short.size:
        vectors[short] = _complete_with_axes_batch(vectors[short], counts[short])
    return vectors, centroid


def pca_top_m(points: np.ndarray, n_components: int) -> tuple[OrthonormalBasis, np.ndarray]:
    """Fit the top principal subspace of a point set.

    Args:
        points: (n, d) array, n >= 1.
        n_components: number of directions to return, 1 <= n_components <= d.

    Returns:
        (basis, centroid): an OrthonormalBasis whose rows are the leading
        principal directions in descending-variance order, and the point mean.

    When the centered points have numerical rank r < n_components, the
    remaining directions are filled deterministically from standard axis
    vectors (ascending index, orthogonalized against the kept directions),
    so the result always has exactly n_components rows. Each row's sign is
    fixed so its largest-magnitude coordinate is positive.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"points must be a non-empty 2-d array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite entries")
    dim = pts.shape[1]
    if not 1 <= n_components <= dim:
        raise ValueError(f"n_components={n_components} out of range for ambient dim {dim}")
    vectors, centroid = _pca_vectors(pts, n_components)
    return OrthonormalBasis(_fix_signs(vectors)), centroid


def decompose(diff: np.ndarray, basis: OrthonormalBasis) -> tuple[float, float]:
    """Split a difference vector into in-plane and orthogonal magnitudes.

    Args:
        diff: (d,) vector, typically x - centroid or x - proxy.
        basis: frame spanning the plane.

    Returns:
        (in_plane, orthogonal): norms of the projection onto the plane and of
        the residual. Their squares sum to |diff|^2.
    """
    diff = np.asarray(diff, dtype=np.float64)
    if diff.shape != (basis.ambient_dim,):
        raise ValueError(f"vector shape {diff.shape} does not match ambient dim {basis.ambient_dim}")
    coords = basis.vectors @ diff
    in_plane = float(np.linalg.norm(coords))
    resid = diff - basis.vectors.T @ coords
    orthogonal = float(np.linalg.norm(resid))
    return in_plane, orthogonal


def decompose_batch(diffs: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise decompose: (n, d) against a raw (m, d) frame.

    Returns (in_plane, orthogonal) arrays of shape (n,).
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    coords = diffs @ vectors.T
    in_plane = np.linalg.norm(coords, axis=1)
    resid = diffs - coords @ vectors
    orthogonal = np.linalg.norm(resid, axis=1)
    return in_plane, orthogonal


def reorthonormalize(vectors: np.ndarray) -> tuple[OrthonormalBasis, bool]:
    """Restore a drifted frame to exact orthonormality.

    Runs modified Gram-Schmidt over the rows in order, preserving the span
    and orientation of well-conditioned input. Rows that collapse below the
    independence tolerance (1e-10, relative to their norm) are dropped and
    replaced through deterministic axis completion.

    Returns:
        (basis, completed): the cleaned frame and whether any replacement
        happened. Already-orthonormal input is returned unchanged to within
        1e-12.
    """
    vecs = np.array(vectors, dtype=np.float64, copy=True)
    if vecs.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {vecs.shape}")
    target, dim = vecs.shape
    if target > dim:
        raise ValueError(f"cannot orthonormalize {target} vectors in dimension {dim}")
    kept: list[np.ndarray] = []
    completed = False
    for row in vecs:
        scale = max(float(np.linalg.norm(row)), 1.0)
        for r in kept:
            row = row - (r @ row) * r
        norm = float(np.linalg.norm(row))
        if norm <= INDEPENDENCE_TOL * scale:
            completed = True
            continue
        kept.append(row / norm)
    if completed:
        kept = _complete_with_axes(kept, dim, target)
    return OrthonormalBasis(np.vstack(kept)), completed
