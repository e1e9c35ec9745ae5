"""Dense linear-algebra primitives shared across the library.

Each primitive runs on stacks of sets or frames, one call for many: top-m
principal subspace extraction with deterministic sign and rank-deficiency
conventions, the split of difference vectors into in-plane and orthogonal
parts relative to an orthonormal frame, Gram-Schmidt re-orthonormalization
of drifted frames, and the table of squared distances between two row sets.
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
    """Orthonormal frame stored row-per-vector, shape (m, d).

    Construction validates unit norms and pairwise orthogonality to 1e-9 and
    freezes the underlying array, so a held reference cannot drift.
    """

    vectors: np.ndarray

    def __post_init__(self) -> None:
        vecs = np.array(self.vectors, dtype=np.float64, copy=True)
        if vecs.ndim != 2:
            raise ValueError(f"basis must be a 2-d array, got shape {vecs.shape}")
        check_frames(vecs[None])
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)


def frame_drift(frames: np.ndarray) -> np.ndarray:
    """|F F^T - I| of each frame F of a (k, m, d) stack, shape (k, m, m)."""
    return np.abs(np.matmul(frames, np.swapaxes(frames, -1, -2)) - np.eye(frames.shape[1]))


def check_frames(frames: np.ndarray) -> None:
    """Raise ValueError unless every frame of a (k, m, d) stack has
    1 <= m <= d and finite rows of unit norm, orthogonal to 1e-9."""
    _, rank, dim = frames.shape
    if rank == 0 or rank > dim:
        raise ValueError(f"invalid basis shape {frames.shape[1:]}: need 1 <= rank <= ambient dim")
    if not np.all(np.isfinite(frames)):
        raise ValueError("basis contains non-finite entries")
    dev = frame_drift(frames)
    diag = np.eye(rank, dtype=bool)
    norm_err = np.max(dev[:, diag], initial=0.0)
    if norm_err > UNIT_NORM_TOL:
        raise ValueError(f"basis vectors are not unit length (max deviation {norm_err:.3e})")
    ortho_err = np.max(dev[:, ~diag], initial=0.0)
    if ortho_err > ORTHOGONALITY_TOL:
        raise ValueError(f"basis vectors are not orthogonal (max inner product {ortho_err:.3e})")


def checked_points(points) -> np.ndarray:
    """``points`` as a float64 array; ValueError unless it is a non-empty
    2-d array of finite entries: the package's one rule for a point set."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError(f"points must be a non-empty 2-d array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite entries")
    return pts


def check_count(value, what: str, most: int, bound: str) -> None:
    """The package's one count rule: ValueError naming ``what`` unless ``value`` is an
    integer (a numpy one, not a bool) in [1, most], as ``bound`` ("12 points") sets."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not 1 <= value <= most:
        raise ValueError(f"{what}={value} out of range [1, {most}] for {bound}")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Deterministic orientation: largest-magnitude coordinate made positive,
    # first occurrence winning ties. Rows are the last two axes, so a stack
    # of frames is oriented row by row at once.
    lead = np.argmax(np.abs(vectors), axis=-1)[..., None]
    flip = np.take_along_axis(vectors, lead, axis=-1) < 0.0
    return np.where(flip, -vectors, vectors)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row-wise dot products of two (k, d) stacks, each one the same BLAS dot
    # that `a[i] @ b[i]` or np.linalg.norm of a 1-d vector runs.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _gram_schmidt_step(
    frames: np.ndarray, counts: np.ndarray, cand: np.ndarray, floor, passes: int = 1
) -> None:
    # One modified Gram-Schmidt step across a (k, m, d) stack of frames, in
    # place: each candidate row of the (k, d) cand loses its components
    # along the first counts[s] rows of its frame, in order, `passes` times,
    # and is appended normalized unless its remaining norm is at most floor
    # (a scalar or per frame); counts grows with it.
    for _ in range(passes):
        for j in range(int(np.max(counts, initial=0))):
            r = frames[:, j]
            cand = np.where((j < counts)[:, None], cand - _dots(r, cand)[:, None] * r, cand)
    norm = np.sqrt(_dots(cand, cand))
    grow = np.flatnonzero(~(norm <= floor))
    frames[grow, counts[grow]] = cand[grow] / norm[grow, None]
    counts[grow] += 1


def _complete_with_axes_batch(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # Extend each frame of a (k, target, d) stack, whose first counts[s]
    # rows are orthonormal, to target rows with standard axis vectors in
    # ascending index order, skipping axes already inside the span.
    rows = rows.copy()
    counts = counts.copy()
    _, target, dim = rows.shape
    for axis in range(dim):
        open_ = np.flatnonzero(counts < target)
        if open_.size == 0:
            break
        frames, held = rows[open_], counts[open_]
        cand = np.tile(np.eye(dim)[axis], (open_.size, 1))
        _gram_schmidt_step(frames, held, cand, _COMPLETION_TOL)
        rows[open_], counts[open_] = frames, held
    if np.any(counts < target):
        raise RuntimeError("axis completion failed to reach the requested rank")
    return rows


def _pca_vectors_batch(points: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    # Unvalidated PCA of a stack of equal-size point sets: (k, n, d) in,
    # vectors (k, m, d) and centroids (k, d) out. Sets with n <= d go through
    # the (n, n) Gram matrix, whose eigenvectors lift to directions via
    # X^T u / sqrt(lambda). Every set gets the bits it gets in a stack of
    # one: each product keeps its per-set shape (a matrix-vector lift, a
    # dot-product norm), so BLAS runs the same kernel. Rank deficiency is a
    # mask instead of a per-set break: eigenvalues are sorted, so the
    # directions that pass the tolerance come first.
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
    # Lifts just above the rank tolerance drift; redo only frames check_frames refuses.
    drifted = np.flatnonzero(~(np.max(frame_drift(vectors), axis=(1, 2)) <= ORTHOGONALITY_TOL))
    if drifted.size:
        vectors[drifted] = reorthonormalize(vectors[drifted])[0]
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
    pts = checked_points(points)
    check_count(n_components, "n_components", pts.shape[1], f"ambient dim {pts.shape[1]}")
    vectors, centroid = _pca_vectors_batch(pts[None], n_components)
    return OrthonormalBasis(_fix_signs(vectors[0])), centroid[0]


def plane_split(diffs: np.ndarray, frames: np.ndarray):
    """Split difference vectors into in-plane and orthogonal parts.

    Args:
        diffs: (..., n, d) difference vectors, typically x - centroid or
            x - proxy.
        frames: (..., m, d) orthonormal frames, one per leading index.

    Returns:
        (coords, in_plane, residual, in_plane_norm, residual_norm) of shapes
        (..., n, m), (..., n, d), (..., n, d), (..., n) and (..., n). The
        two norms' squares sum to |diff|^2.
    """
    if diffs.shape[-1] != frames.shape[-1]:
        raise ValueError(f"diffs {diffs.shape} do not match ambient dim {frames.shape[-1]}")
    coords = np.matmul(diffs, np.swapaxes(frames, -1, -2))
    in_plane = np.matmul(coords, frames)
    residual = diffs - in_plane
    in_norm, out_norm = np.linalg.norm(coords, axis=-1), np.linalg.norm(residual, axis=-1)
    return coords, in_plane, residual, in_norm, out_norm


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, k) table |a_i|^2 - 2 a_i . b_j + |b_j|^2 of (n, d) and (k, d) rows,
    summed in that order; rounding can leave entries slightly below zero."""
    return np.sum(a**2, axis=1)[:, None] - 2.0 * a @ b.T + np.sum(b**2, axis=1)[None, :]


def _gram_schmidt(vecs: np.ndarray, passes: int) -> tuple[np.ndarray, np.ndarray]:
    # Modified Gram-Schmidt of a (k, m, d) stack, each row projected
    # `passes` times, collapsed rows replaced by axis completion. Returns the
    # frames and the mask of frames where a row was replaced.
    n_frames, target, _ = vecs.shape
    out = np.zeros(vecs.shape)
    counts = np.zeros(n_frames, dtype=np.int64)
    for i in range(target):
        row = vecs[:, i]
        scale = np.maximum(np.sqrt(_dots(row, row)), 1.0)
        _gram_schmidt_step(out, counts, row, INDEPENDENCE_TOL * scale, passes)
    completed = counts < target
    if np.any(completed):
        out[completed] = _complete_with_axes_batch(out[completed], counts[completed])
    return out, completed


def reorthonormalize(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Restore a (k, m, d) stack of drifted frames to exact orthonormality.

    Runs modified Gram-Schmidt over each frame's rows in order, preserving
    the span and orientation of well-conditioned input. Rows that collapse
    below the independence tolerance (1e-10, relative to their norm) are
    dropped and replaced through deterministic axis completion. A frame
    that one pass leaves non-orthogonal, from a row that is nearly but not
    quite dependent on earlier ones, is run again projecting every row
    twice.

    Returns:
        (frames, completed): the cleaned (k, m, d) frames and a (k,) mask of
        the frames where any replacement happened. Already-orthonormal input
        is returned unchanged to within 1e-12.
    """
    vecs = np.asarray(frames, dtype=np.float64)
    if vecs.ndim != 3:
        raise ValueError(f"expected a (k, m, d) stack of frames, got shape {vecs.shape}")
    _, target, dim = vecs.shape
    if target > dim:
        raise ValueError(f"cannot orthonormalize {target} vectors in dimension {dim}")
    out, completed = _gram_schmidt(vecs, 1)
    # One pass leaves a row that lost nearly all its length to the
    # projection with rounding error of the size of what was removed;
    # a second pass removes it ("twice is enough"). Only frames that need
    # it take it, so every frame one pass gets right keeps those bits.
    drift = np.max(frame_drift(out), axis=(1, 2), initial=0.0)
    redo = np.flatnonzero(~(drift <= ORTHOGONALITY_TOL))
    if redo.size:
        out[redo], completed[redo] = _gram_schmidt(vecs[redo], 2)
    check_frames(out)
    return out, completed
