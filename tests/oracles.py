"""Independent reference routes used by the test suite.

Everything here is deliberately written from first principles (cyclic Jacobi
sweeps, central finite differences, two-pass correlation) so that the library
under test and the check never share a code path.

The module also keeps the per-set reference routes of the library's stacked
primitives: PCA of one point set, axis completion of one frame, Gram-Schmidt
of one frame, the in-plane/orthogonal split of one vector, and the directed
and symmetric similarities of one pair. The stacked routes in the library
must equal the first three bit for bit, set by set. The full-sort nearest
neighbour lists are the reference of the library's blocked top-k. The loops
over anchors, proxies and points that the library's stacked similarity and
neighbourhood-loss routes replaced are kept as their bit-for-bit references,
on one per-plane directed similarity with its partials (directed_one_plane,
built from the library's split, decays and slopes), and so is the greedy
scan that ran one accept test per pool position and member count, the
reference of the library's padded scan. The proxy set-up that fitted every
point and kept the chosen points' frames is the reference of the library's
set-up, which fits the chosen points alone. The allocating layer loop and
reverse pass of the embedding network are the references of its in-place
ones.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Args:
        matrix: symmetric (d, d) array.
        tol: convergence threshold on the largest off-diagonal magnitude,
            relative to the Frobenius norm of the input.
        max_sweeps: hard cap on full upper-triangle sweeps.

    Returns:
        (eigenvalues, eigenvectors) with eigenvalues sorted descending and
        eigenvectors as columns of the second array.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("matrix is not symmetric")
    d = a.shape[0]
    v = np.eye(d)
    scale = max(np.linalg.norm(a), 1e-300)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) <= tol * scale:
                    continue
                # Classic 2x2 rotation that annihilates a[p, q].
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(d)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off <= tol * scale:
            break
    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], v[:, order]


def top_subspace_projector(points: np.ndarray, n_components: int) -> np.ndarray:
    """Projector onto the top principal subspace via the Jacobi route.

    Centers the points, eigendecomposes the sample scatter matrix with
    :func:`jacobi_eigh`, and returns ``V V^T`` for the leading
    ``n_components`` eigenvectors. Projectors are basis-independent, which
    makes this a sign-safe comparison target.
    """
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    scatter = centered.T @ centered
    _, vecs = jacobi_eigh(scatter)
    lead = vecs[:, :n_components]
    return lead @ lead.T


def plane_fit_residuals(points: np.ndarray, n_components: int) -> np.ndarray:
    """Per-point orthogonal residual norms of a least-squares plane fit.

    Uses the projector route end to end: residual of x is
    ``(I - P)(x - mean)`` with P from :func:`top_subspace_projector`.
    """
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    proj = top_subspace_projector(pts, n_components)
    resid = centered - centered @ proj
    return np.linalg.norm(resid, axis=1)


def reconstruction_qualities(points: np.ndarray, n_components: int) -> np.ndarray:
    """Quality 1 - |residual| / |x - mean| for each point, centroid points -> 1."""
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    base = np.linalg.norm(centered, axis=1)
    resid = plane_fit_residuals(pts, n_components)
    out = np.ones(len(pts))
    nz = base > 0.0
    out[nz] = 1.0 - resid[nz] / base[nz]
    return out


def greedy_plane_scan(
    points: np.ndarray,
    anchor: int,
    neighbor_order: Sequence[int],
    n_components: int,
    threshold_pct: float,
) -> list[int]:
    """Reference simulation of the iterative neighborhood selection.

    Seeds with the anchor plus the first ``n_components - 1`` neighbors, then
    scans the rest in the given order, tentatively adding each point and
    keeping it only if every member of the enlarged set reconstructs with
    quality >= threshold_pct / 100 under a fresh plane fit.
    """
    pts = np.asarray(points, dtype=np.float64)
    members = [anchor] + list(neighbor_order[: n_components - 1])
    for cand in list(neighbor_order[n_components - 1 :]):
        trial = members + [cand]
        quals = reconstruction_qualities(pts[trial], n_components)
        if np.all(quals >= threshold_pct / 100.0):
            members = trial
    return members


def scan_pools_loop(embeddings, anchors, pools, config):
    """The lockstep greedy scan with one exact accept test per (pool
    position, member count): the reference of ``manifold._scan_pools``,
    with the same arguments and result.
    """
    from plmetric.manifold import _exact_accepts

    plane_dim = config.dim
    threshold = config.quality_threshold / 100.0
    n, pool_size = pools.shape
    members = np.empty((n, pool_size + 1), dtype=np.int64)
    members[:, 0] = anchors
    members[:, 1:] = pools
    if config.knn_only:
        return members, np.full(n, pool_size + 1, dtype=np.int64)
    sizes = np.full(n, plane_dim, dtype=np.int64)
    for ci in range(plane_dim - 1, pool_size):
        cands = pools[:, ci]
        snapshot = sizes.copy()
        for size in np.unique(snapshot):
            rows = np.flatnonzero(snapshot == size)
            trial = np.concatenate([members[rows, :size], cands[rows, None]], axis=1)
            accept = _exact_accepts(embeddings, trial, plane_dim, threshold)
            grown = rows[accept]
            members[grown, size] = cands[grown]
            sizes[grown] += 1
    return members, sizes


def neighbor_lists(embeddings: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Nearest neighbours by a full stable sort of each row of squared
    distances |a|^2 + |b|^2 - 2 a.b, self excluded, ties to the lower index.

    The route the library's blocked partial sort replaced, kept as its
    reference: with one block the two must agree bit for bit.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    sq = np.sum(e**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (e @ e.T)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :n_neighbors]


def init_proxies(embeddings, neighborhoods, n_proxies: int, seed):
    """Farthest-point sampling, each proxy's frame read from a fit of every point.

    The set-up route the library's anchored fit replaced, kept as its
    reference: ``neighborhoods`` holds one plane per point, and the chosen
    points' locations and frames must equal the library's byte for byte.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    assert len(neighborhoods.bases) == n
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    min_d2 = np.sum((embeddings - embeddings[chosen[0]]) ** 2, axis=1)
    while len(chosen) < n_proxies:
        chosen.append(int(np.argmax(min_d2)))
        min_d2 = np.minimum(min_d2, np.sum((embeddings - embeddings[chosen[-1]]) ** 2, axis=1))
    return SimpleNamespace(locations=embeddings[chosen], frames=neighborhoods.bases[chosen])


def forward_reference(params, x: np.ndarray):
    """The allocating layer loop the library's in-place one replaced.

    Returns (y, cache) as ``embedder.forward_cached`` does: each layer is
    ``h @ w + b`` with ``tanh`` on every layer but the last, every layer
    input is kept, and the output rows are divided by their norms. The
    library's ``forward``, ``forward_cached`` and ``backward`` must equal
    this and ``backward_reference`` bit for bit.
    """
    layer_inputs = []
    h = np.asarray(x, dtype=np.float64)
    last = len(params.weights) - 1
    for idx, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer_inputs.append(h)
        z = h @ w + b
        h = z if idx == last else np.tanh(z)
    norms = np.linalg.norm(h, axis=1)
    y = h / norms[:, None]
    return y, {"layer_inputs": layer_inputs, "norms": norms, "y": y}


def backward_reference(params, cache: dict, grad_y: np.ndarray) -> list[np.ndarray]:
    """Reverse pass of ``forward_reference``, the tanh slope made afresh per layer."""
    y, norms = cache["y"], cache["norms"]
    inner = np.sum(grad_y * y, axis=1, keepdims=True)
    grad_z = (grad_y - inner * y) / norms[:, None]
    grads = []
    last = len(params.weights) - 1
    for idx in range(last, -1, -1):
        if idx != last:
            activated = cache["layer_inputs"][idx + 1]
            grad_z = grad_z * (1.0 - activated**2)
        grads.append(np.sum(grad_z, axis=0))
        grads.append(cache["layer_inputs"][idx].T @ grad_z)
        grad_z = grad_z @ params.weights[idx].T
    grads.reverse()
    return grads


def complete_with_axes(rows: list[np.ndarray], dim: int, target: int) -> list[np.ndarray]:
    """Extend an orthonormal list of rows to ``target`` rows with standard axes.

    Axes are tried in ascending index order; each is orthogonalized against
    the rows held so far and kept when more than 1e-6 of it remains.
    """
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    for axis in range(dim):
        if len(rows) >= target:
            break
        cand = np.zeros(dim)
        cand[axis] = 1.0
        for r in rows:
            cand = cand - (r @ cand) * r
        norm = np.linalg.norm(cand)
        if norm > 1e-6:
            rows.append(cand / norm)
    if len(rows) < target:
        raise RuntimeError("axis completion failed to reach the requested rank")
    return rows


def pca_vectors(points: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-set PCA: (vectors (m, d), centroid (d,)) of one (n, d) point set.

    Sets with n <= d use the (n, n) Gram matrix and lift its eigenvectors
    with X^T u / sqrt(lambda). Directions stop at the first eigenvalue at or
    below max(n, d) * eps * lambda_max; the rest come from axis completion.
    A frame off orthonormal by more than 1e-9 (a lift just above that
    tolerance) is re-orthonormalized by reorthonormalize_frame. Signs are
    left as the eigensolver returns them.
    """
    pts = np.asarray(points, dtype=np.float64)
    n, dim = pts.shape
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    if n <= dim:
        evals, evecs = np.linalg.eigh(centered @ centered.T)
    else:
        evals, evecs = np.linalg.eigh(centered.T @ centered)
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
    frame = np.vstack(complete_with_axes(kept, dim, n_components))
    if np.max(np.abs(frame @ frame.T - np.eye(n_components))) > 1e-9:
        frame = reorthonormalize_frame(frame)[0]
    return frame, centroid


def nearly_flat_set(rng, kind: str, size: int, dim: int, m: int, ratio: float) -> np.ndarray:
    """(size, dim) test points, size > m, whose lambda_m / lambda_1 is about ``ratio``.

    ``kind`` is "spectrum" (eigenvalues 1 down to ratio geometrically over
    the top m, then ratio times U[0, 1.5) each, along random directions),
    "duplicate" (the same with its second half copying its first), "curve"
    (t, a t^2 and b t^3 for t in [-1, 1], turned at random half the time)
    or "rank" (m - 1 axis coordinates, the rest exactly zero: exact rank
    loss). Every kind but "rank" sits off the origin by a random offset.
    """
    offset = rng.standard_normal(dim) * 10.0 ** rng.uniform(-1, 1)
    if kind == "rank":
        points = np.zeros((size, dim))
        points[:, : m - 1] = rng.standard_normal((size, m - 1)) + offset[: m - 1]
        return points
    if kind == "curve":
        t = np.sort(rng.uniform(-1.0, 1.0, size))
        a = 10.0 ** rng.uniform(-1.5, 0.0)
        points = np.zeros((size, dim))
        points[:, :3] = np.stack([t, a * t**2, np.sqrt(ratio) * t**3], axis=1)
        if rng.random() < 0.5:
            points = points @ np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        return points + offset
    rank = min(size - 1, dim)
    evals = np.concatenate([ratio ** (np.arange(m) / (m - 1)), ratio * rng.uniform(0.0, 1.5, rank - m)])
    coords = rng.standard_normal((size, rank))
    coords = np.linalg.qr(coords - coords.mean(axis=0))[0]
    directions = np.linalg.qr(rng.standard_normal((dim, rank)))[0]
    points = (coords * np.sqrt(evals)) @ directions.T + offset
    if kind == "duplicate":
        points[size // 2 :] = points[: size - size // 2]
    return points


def reorthonormalize_frame(vectors: np.ndarray) -> tuple[np.ndarray, bool]:
    """Modified Gram-Schmidt of one (m, d) frame, row by row in order.

    A row whose remaining norm is at most 1e-10 times max(its norm, 1) is
    dropped; dropped rows are replaced by axis completion. When the result
    is off orthogonal by more than 1e-9, the frame is run again with every
    row projected twice. Returns the frame and whether any row was replaced.
    """
    vecs = np.array(vectors, dtype=np.float64)
    target, dim = vecs.shape
    for passes in (1, 2):
        kept: list[np.ndarray] = []
        completed = False
        for row in vecs:
            scale = max(float(np.linalg.norm(row)), 1.0)
            for _ in range(passes):
                for r in kept:
                    row = row - (r @ row) * r
            norm = float(np.linalg.norm(row))
            if norm <= 1e-10 * scale:
                completed = True
                continue
            kept.append(row / norm)
        if completed:
            kept = complete_with_axes(kept, dim, target)
        frame = np.vstack(kept)
        if np.max(np.abs(frame @ frame.T - np.eye(target))) <= 1e-9:
            break
    return frame, completed


def decompose(diff: np.ndarray, vectors: np.ndarray) -> tuple[float, float]:
    """(in-plane, orthogonal) norms of one (d,) vector against an (m, d) frame."""
    diff = np.asarray(diff, dtype=np.float64)
    coords = [float(np.sum(v * diff)) for v in vectors]
    in_plane = float(np.sqrt(sum(c * c for c in coords)))
    resid = diff - sum(c * v for c, v in zip(coords, vectors))
    return in_plane, float(np.sqrt(np.sum(resid * resid)))


def directed_similarity(x: np.ndarray, target: np.ndarray, vectors: np.ndarray, config) -> float:
    """Similarity of x seen from the target's plane spanned by ``vectors``:
    (1 + o/2) ** -orth_exponent * (1 + p) ** -inplane_exponent."""
    p, o = decompose(np.asarray(x, dtype=np.float64) - target, vectors)
    return (1.0 + o / 2.0) ** (-config.orth_exponent) * (1.0 + p) ** (-config.inplane_exponent)


def symmetric_similarity(i: int, j: int, embeddings: np.ndarray, neighborhoods, config) -> float:
    """Mean of the two directed similarities of points i and j, each seen
    from the other's neighborhood plane; membership indicators in binary mode.
    Reads the arrays of the Neighborhoods record ``neighborhoods``."""
    if config.binary:
        fwd = float(i in neighborhoods.members[j, : neighborhoods.sizes[j]])
        rev = float(j in neighborhoods.members[i, : neighborhoods.sizes[i]])
        return (fwd + rev) / 2.0
    e = np.asarray(embeddings, dtype=np.float64)
    fwd = directed_similarity(e[i], e[j], neighborhoods.bases[j], config)
    rev = directed_similarity(e[j], e[i], neighborhoods.bases[i], config)
    return (fwd + rev) / 2.0


def central_difference_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-6
) -> np.ndarray:
    """Dense central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_g = grad.reshape(-1)
    flat_x = x.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        f_plus = fn(x)
        flat_x[i] = orig - step
        f_minus = fn(x)
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def same_bits(got, ref) -> bool:
    """True when two arrays (or two Nones) hold the same bytes: equal values,
    shapes and dtypes, and the same sign on every zero."""
    if got is None or ref is None:
        return got is None and ref is None
    got, ref = np.asarray(got), np.asarray(ref)
    return (
        got.shape == ref.shape
        and got.dtype == ref.dtype
        and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()
    )


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Scale-invariant comparison: |a - n| / max(|a|, |n|, 1e-12) elementwise max."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))


def group_purity_loop(groups, labels) -> float:
    """Mean majority-label fraction, one group at a time.

    The reference of the one purity body behind evaluation.group_purity and
    neighborhood_purity: each group's label counts come from np.unique.
    """
    labels = np.asarray(labels)
    fractions = []
    for members in groups:
        _, counts = np.unique(labels[np.asarray(members)], return_counts=True)
        fractions.append(counts.max() / len(members))
    return float(np.mean(fractions))


def pearson_two_pass(x: np.ndarray, y: np.ndarray) -> float:
    """Textbook two-pass Pearson correlation, no shared code with the library."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mx = x.mean()
    my = y.mean()
    dx = x - mx
    dy = y - my
    denom = np.sqrt(np.sum(dx * dx)) * np.sqrt(np.sum(dy * dy))
    if denom == 0.0:
        raise ValueError("zero variance")
    return float(np.sum(dx * dy) / denom)


def directed_one_plane(diffs: np.ndarray, frame: np.ndarray, config):
    """Directed similarities of (n, d) differences seen from one (m, d) frame.

    Returns (s, d s / d diff, d s / d frame) of shapes (n,), (n, d) and
    (n, m, d), from the library's plane split, decays and slopes: the
    per-plane route that its stacked similarity routes must match bit for
    bit.
    """
    from plmetric.linalg import plane_split
    from plmetric.similarity import _decays, _slopes

    coords, inplane_vec, ovec, p, o = plane_split(diffs, frame)
    a, b = _decays(o, p, config.orth_exponent, config.inplane_exponent)
    w_orth, w_plane = _slopes(o, p, a, b, config)
    ds_ddiff = w_orth[:, None] * ovec + w_plane[:, None] * inplane_vec
    plane_part = np.einsum("nk,nd->nkd", coords * w_plane[:, None], diffs)
    orth_part = np.einsum("nk,nd->nkd", coords * w_orth[:, None], ovec)
    return a * b, ds_ddiff, plane_part - orth_part


def pairwise_similarity_loop(embeddings: np.ndarray, neighborhoods, config) -> np.ndarray:
    """(n, n) symmetric similarity matrix, one anchor column at a time.

    The reference of ``similarity.pairwise_similarity_matrix``; reads the
    arrays of the Neighborhoods record ``neighborhoods``.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    if len(neighborhoods.sizes) != n:
        raise ValueError("need one neighborhood per embedding row")
    directed = np.zeros((n, n))
    for j in range(n):
        if config.binary:
            directed[neighborhoods.members[j, : neighborhoods.sizes[j]], j] = 1.0
        else:
            diffs = embeddings - embeddings[j]
            directed[:, j] = directed_one_plane(diffs, neighborhoods.bases[j], config)[0]
    return (directed + directed.T) / 2.0


def proxy_similarity_loop(embeddings, point_bases, proxies, config):
    """Point-proxy similarities and their partial tables, one proxy, then one
    point, at a time.

    Returns (values, d_loc, d_frames): values (n, P) as
    ``similarity.proxy_similarity_batch`` returns them, and the partials of
    values[i, j] w.r.t. proxy j's location, (n, P, d), and frame rows,
    (n, P, m, d); both are zero in binary mode.
    """
    from plmetric.similarity import nearest_proxy_indices

    embeddings = np.asarray(embeddings, dtype=np.float64)
    point_bases = np.asarray(point_bases, dtype=np.float64)
    n, dim = embeddings.shape
    n_prox, plane_dim, _ = proxies.frames.shape
    if point_bases.shape != (n, plane_dim, dim):
        raise ValueError(
            f"point_bases shape {point_bases.shape} does not match "
            f"({n}, {plane_dim}, {dim})"
        )
    d_loc = np.zeros((n, n_prox, dim))
    d_frames = np.zeros((n, n_prox, plane_dim, dim))
    if config.binary:
        values = np.zeros((n, n_prox))
        values[np.arange(n), nearest_proxy_indices(embeddings, proxies.locations)] = 1.0
        return values, d_loc, d_frames
    values = np.empty((n, n_prox))
    for j in range(n_prox):
        values[:, j], ds_ddiff, d_frame = directed_one_plane(
            embeddings - proxies.locations[j], proxies.frames[j], config
        )
        d_loc[:, j, :] -= 0.5 * ds_ddiff
        d_frames[:, j, :, :] += 0.5 * d_frame
    for i in range(n):
        value, ds_ddiff, _ = directed_one_plane(
            proxies.locations - embeddings[i], point_bases[i], config
        )
        values[i, :] = (values[i, :] + value) / 2.0
        d_loc[i, :, :] += 0.5 * ds_ddiff
    return values, d_loc, d_frames


def proxy_pullback_tables(embeddings, point_bases, proxies, config, weights):
    """The reference of ``similarity.ProxyPass.pullback``: each weight table
    contracted with the full partial tables of proxy_similarity_loop."""
    _, d_loc, d_frames = proxy_similarity_loop(embeddings, point_bases, proxies, config)
    grad_loc = np.stack([np.einsum("np,npd->pd", w, d_loc) for w in weights])
    grad_frames = np.stack([np.einsum("np,npkd->pkd", w, d_frames) for w in weights])
    return grad_loc, grad_frames


def proxy_pass_loop(embeddings, point_bases, proxies, config):
    """The reference of ``similarity.proxy_pass``: values from
    proxy_similarity_loop and proxy_pullback_tables as the pullback."""
    values = proxy_similarity_loop(embeddings, point_bases, proxies, config)[0]

    def pullback(weights):
        return proxy_pullback_tables(embeddings, point_bases, proxies, config, weights)

    return SimpleNamespace(values=values, pullback=pullback)


def neighborhood_loss_loop(point_bases, proxies, proxy_sims, config, with_grads=True):
    """Frame-alignment loss, frame gradient and similarity weights, one point
    at a time.

    The reference of ``trainer.neighborhood_loss``, with the same arguments
    and result; a non-finite term raises FloatingPointError.
    """
    bases = np.asarray(point_bases, dtype=np.float64)
    s = proxy_sims
    n, plane_dim, dim = bases.shape
    n_prox = proxies.n_proxies
    if s.shape != (n, n_prox):
        raise ValueError("similarity table does not match embeddings/proxies")
    frames_flat = proxies.frames.reshape(n_prox * plane_dim, dim)
    count = n * n_prox * plane_dim
    value = 0.0
    grad_frames = np.zeros_like(proxies.frames)
    d_sim = np.zeros((n, n_prox))
    for i in range(n):
        coords = frames_flat @ bases[i].T
        cosines = np.linalg.norm(coords, axis=1).reshape(n_prox, plane_dim)
        resid = s[i][:, None] - cosines
        if not np.all(np.isfinite(resid)):
            raise FloatingPointError(f"non-finite neighborhood loss term at point {i}")
        value += float(np.sum(resid**2))
        if not with_grads:
            continue
        d_cos = -2.0 * resid / count
        d_sim[i] = np.sum(2.0 * resid / count, axis=1)
        inv_cos = np.zeros_like(cosines)
        nz = cosines > 0.0
        inv_cos[nz] = 1.0 / cosines[nz]
        scale = (d_cos * inv_cos).reshape(n_prox * plane_dim, 1)
        grad_frames += (scale * (coords @ bases[i])).reshape(n_prox, plane_dim, dim)
    value /= count
    if not with_grads:
        return value, None, None
    return value, grad_frames, d_sim
