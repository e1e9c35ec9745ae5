"""Piecewise-linear manifold structure over an embedded point set.

Around each anchor point we fit a local linear neighborhood: a small plane
(dimension ``dim``) through a subset of the anchor's nearest neighbors,
grown greedily so that every member stays well reconstructed by the plane.
fit_all_neighborhoods returns the planes of a point set as one Neighborhoods
record of stacked arrays. Proxies are a compact learnable stand-in for the
full neighborhood set: each proxy carries a location on the unit sphere plus
its own plane frame.

Large evaluations run on every usable core. _run_blocks runs independent
blocks of work on the calling thread plus WORKERS - 1 helper threads (numpy
releases the GIL inside its array loops); each block writes its own slice of
a preallocated output, so the result is the same bits for any WORKERS. The
exact k-NN (neighbor_lists) of more than 512 points runs its query blocks
that way, the greedy scan of at least 2 * SCAN_SHARE anchors is split into
contiguous shares, and similarity.pair_similarities splits its pair chunks.
The k-NN's split is fixed by n, never by WORKERS or by the rows asked for.
Smaller sets run serially and start no thread: every training step's batch
and, up to 512 training points, each epoch's pool k-NN and the set-up.

Set-up (init_proxies) computes only the planes it reads: farthest-point
sampling first, then the k-NN blocks and the scan of the chosen anchors.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .linalg import OrthonormalBasis

# Frames whose Gram matrix is already this close to identity are left
# untouched by maintenance passes, keeping no-op steps bit-stable.
FRAME_DRIFT_TOL = 1e-12
# neighbor_lists runs every n with n * n <= NEIGHBOR_BLOCK_CELLS (n <= 512,
# the benchmark's training sets among them) as one block on the calling
# thread. Larger sets go in blocks of about NEIGHBOR_SPLIT_CELLS distances
# over WORKERS threads: two workers then hold less than one 2**18-cell
# block, which a helper's malloc arena would keep resident after it.
NEIGHBOR_BLOCK_CELLS = 1 << 18
NEIGHBOR_SPLIT_CELLS = 1 << 16
# The padded accept test (_batched_accepts) leaves a trial set to the exact
# route unless it is decided by more than QUALITY_MARGIN; an eigenvalue gap
# below EIGEN_TIE_TOL * lambda_1 counts as a tie, and a member off the
# centroid by at most CENTROID_TOL times the set's reach from the origin as
# within rounding of it.
QUALITY_MARGIN = 1e-6
EIGEN_TIE_TOL = 1e-5
CENTROID_TOL = 1e-9


# Threads _run_blocks works on, the caller included: the cores this process
# may run on, so `taskset` limits them.
try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:
    WORKERS = os.cpu_count() or 1
# Anchors in a share of the greedy scan: n anchors make n // SCAN_SHARE
# contiguous shares, so below 2 * SCAN_SHARE the scan is one serial share
# (smaller shares spend their time in per-call overhead). A share's
# temporaries, which a helper's malloc arena keeps resident after it, stay
# bounded however many anchors there are.
SCAN_SHARE = 400


def _run_blocks(fn, blocks) -> None:
    """Call fn(block) for every block, on this thread and up to WORKERS - 1 helpers.

    The caller and each helper take blocks in order from one shared
    iterator until it runs dry, so every block runs exactly once; fn must
    write only its block's own part of the output. Helpers are joined
    before return and the first exception raised in any block is raised
    here; no thread outlives the call. With one block, or WORKERS == 1,
    there are no helpers and every block runs on the calling thread.
    """
    blocks = list(blocks)
    n_helpers = min(WORKERS, len(blocks)) - 1
    pending = iter(blocks)
    lock = threading.Lock()
    errors: list[BaseException] = []
    done = object()

    def work() -> None:
        while True:
            with lock:
                block = done if errors else next(pending, done)
            if block is done:
                return
            try:
                fn(block)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    helpers = []
    try:
        for _ in range(n_helpers):
            helper = threading.Thread(target=work, name="plmetric-block", daemon=True)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


@dataclass(frozen=True)
class ManifoldConfig:
    """Neighborhood fitting parameters.

    Attributes:
        dim: dimension of each local plane, at least 2.
        quality_threshold: acceptance threshold T in percent; a candidate
            set is kept only when every member has reconstruction quality
            >= T / 100.
        pool_size: how many nearest neighbors are scanned per anchor.
        knn_only: ablation that accepts the whole pool without any fit test.
    """

    dim: int = 3
    quality_threshold: float = 90.0
    pool_size: int = 10
    knn_only: bool = False

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if not 0.0 < self.quality_threshold <= 100.0:
            raise ValueError("quality_threshold must be in (0, 100]")
        if self.pool_size < self.dim:
            raise ValueError("pool_size must be at least dim")


@dataclass(frozen=True)
class LinearNeighborhood:
    """A fitted plane around one anchor: one row of a Neighborhoods record.

    ``member_indices`` keeps insertion order: the anchor (``anchor_index``)
    first, then accepted neighbors in scan order. A record's rows are views
    of its arrays, built on demand and not validated again; a row built
    directly is validated here, its basis by OrthonormalBasis.
    """

    member_indices: np.ndarray
    basis: OrthonormalBasis

    def __post_init__(self) -> None:
        members = np.asarray(self.member_indices, dtype=np.int64)
        if members.ndim != 1 or members.size < 1:
            raise ValueError("member_indices must be a non-empty 1-d array")
        members.setflags(write=False)
        object.__setattr__(self, "member_indices", members)

    @property
    def anchor_index(self) -> int:
        return int(self.member_indices[0])

    @property
    def size(self) -> int:
        return int(self.member_indices.size)


def _view(cls, **fields):
    # An instance of the frozen dataclass cls holding ``fields`` as given,
    # without __post_init__: a Neighborhoods record validated them as a stack.
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class Neighborhoods:
    """One fitted plane per anchor, stacked: what fit_all_neighborhoods returns.

    Attributes:
        members: (n, width) point indices; row i holds its sizes[i] members,
            anchor first, then -1 padding. width is the largest size.
        sizes: (n,) member counts.
        bases: (n, m, d) orthonormal plane frames, one per row.

    Construction copies the arrays, validates them once (one
    linalg.check_frames over the whole stack) and makes them read-only.
    Consumers read the arrays; indexing and iteration give LinearNeighborhood
    row views for code that wants one plane at a time, and Neighborhoods.of
    stacks a plain sequence of rows into a record.
    """

    members: np.ndarray
    sizes: np.ndarray
    bases: np.ndarray

    def __post_init__(self) -> None:
        arrays = {
            "members": np.array(self.members, dtype=np.int64),
            "sizes": np.array(self.sizes, dtype=np.int64),
            "bases": np.array(self.bases, dtype=np.float64),
        }
        members, sizes, bases = arrays.values()
        n = len(sizes)
        if members.ndim != 2 or sizes.shape != (n,) or bases.ndim != 3 or len(members) != n:
            raise ValueError("need (n, width) members, (n,) sizes and (n, m, d) bases")
        if len(bases) != n:
            raise ValueError("need one (m, d) frame per row")
        held = np.arange(members.shape[1]) < sizes[:, None]
        if np.any(sizes < 1) or members.shape[1] != np.max(sizes, initial=0):
            raise ValueError("every row needs a member, and width must be the largest size")
        if np.any(np.where(held, members < 0, members != -1)):
            raise ValueError("members must be non-negative indices followed by -1 padding")
        linalg.check_frames(bases)
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, neighborhoods: Neighborhoods | Sequence[LinearNeighborhood]) -> Neighborhoods:
        """The record itself, or a sequence of rows stacked into one record."""
        if isinstance(neighborhoods, cls):
            return neighborhoods
        rows = list(neighborhoods)
        if not rows:
            raise ValueError("need at least one neighborhood")
        sizes = np.array([row.size for row in rows], dtype=np.int64)
        members = np.full((len(rows), int(sizes.max())), -1, dtype=np.int64)
        for i, row in enumerate(rows):
            members[i, : row.size] = row.member_indices
        return cls(members, sizes, np.stack([row.basis.vectors for row in rows]))

    def checked_members(self, n: int) -> np.ndarray:
        """Every row's members, row after row, if the record fits an n-point
        set: one row per point, members in [0, n). Else ValueError."""
        if len(self) != n:
            raise ValueError(f"need one neighborhood per point, got {len(self)} for {n} points")
        return as_indices(self.members[self.members >= 0], "neighborhood members", n)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, index: int) -> LinearNeighborhood:
        i = range(len(self))[index]
        basis = _view(OrthonormalBasis, vectors=self.bases[i])
        return _view(LinearNeighborhood, member_indices=self.members[i, : self.sizes[i]], basis=basis)

    def __iter__(self) -> Iterator[LinearNeighborhood]:
        return (self[i] for i in range(len(self)))


def reconstruction_quality(
    points: np.ndarray, vectors: np.ndarray, centroid: np.ndarray
) -> np.ndarray:
    """Per-point plane fit quality, 1 - |residual| / |x - centroid|.

    Points coinciding with the centroid score 1 by convention. Quality is 1
    for points exactly on the plane and decreases toward 0 (and below, for
    points further off-plane than their centroid distance is long).

    Takes one set, (n, d) points against an (m, d) frame and a (d,)
    centroid, or a stack of sets with matching leading axes, (k, n, d)
    against (k, m, d) and (k, d); each set is scored with the same
    arithmetic either way.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    diffs = pts - np.expand_dims(centroid, -2)
    base = np.linalg.norm(diffs, axis=-1)
    *_, orth = linalg.plane_split(diffs, vectors)
    quality = np.ones(base.shape)
    nz = base > 0.0
    quality[nz] = 1.0 - orth[nz] / base[nz]
    return quality


def fit_neighborhood(
    embeddings: np.ndarray,
    anchor: int,
    neighbor_order: Sequence[int],
    config: ManifoldConfig,
) -> LinearNeighborhood:
    """Grow a plane around ``anchor`` by scanning neighbors once, nearest first.

    Args:
        embeddings: (n, d) point set the indices refer to.
        anchor: index of the anchor point.
        neighbor_order: candidate neighbor indices sorted by ascending
            distance from the anchor; must hold at least ``config.dim``.
        config: fitting parameters.

    The seed set is the anchor plus the first dim - 1 candidates. Each
    remaining candidate is tentatively added; a fresh plane is fitted to the
    enlarged set and the candidate is kept only if every member then has
    reconstruction quality >= quality_threshold / 100. Rejected candidates
    are never revisited. With ``knn_only`` the whole pool is accepted and no
    fit test runs. This is the one-anchor case of fit_all_neighborhoods,
    whose checks raise ValueError here too.
    """
    return _fit_pools(embeddings, [anchor], [neighbor_order], config)[0]


def neighbor_lists(
    embeddings: np.ndarray, n_neighbors: int, rows: np.ndarray | None = None
) -> np.ndarray:
    """Nearest-neighbor indices, ascending distance, self excluded.

    (n, n_neighbors) for every point, or with ``rows`` (a 1-d integer
    array-like of indices in [0, n), in any order, repeats allowed) the
    (len(rows), n_neighbors) lists of those points: row t is the full
    call's row rows[t] bit for bit.

    Exact, and equal to the first columns of a stable sort of each row's
    squared distances, so equal distances break toward the lower index.
    Query rows go in blocks, each partially sorted, so memory grows with n,
    not n^2. Up to n * n = NEIGHBOR_BLOCK_CELLS all rows are one block on
    the calling thread. Above it, blocks of NEIGHBOR_SPLIT_CELLS // n rows
    (at least two; a one-row tail joins the block before it) run on WORKERS
    threads (_run_blocks). With ``rows`` only the blocks that hold a
    requested row run, each whole. The split is fixed by n, never by
    WORKERS or ``rows``, so the lists are the same for any of them; but for
    n not a multiple of 8 a distance's last bits can depend on its row's
    place in a block, so another split may reorder exactly tied neighbors.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    check_count(n_neighbors, "n_neighbors", n, n - 1)
    if not np.all(np.isfinite(embeddings)):
        raise ValueError("points contain non-finite entries")
    if rows is None:
        rows = np.arange(n)
    else:
        rows = as_indices(rows, "rows", n)
        if rows.ndim != 1:
            raise ValueError("rows must be a 1-d array of indices")
    # A one-row tail joins the block before it: numpy runs a one-row
    # product as gemv, whose last bits differ from gemm's.
    rows_per_block = n if n * n <= NEIGHBOR_BLOCK_CELLS else max(2, NEIGHBOR_SPLIT_CELLS // n)
    edges = [*range(0, n - 1, rows_per_block), n]
    # The places in ``rows`` of the rows in [start, stop) are
    # order[cut(start):cut(stop)], cut being a search in the sorted rows.
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    sq = np.sum(embeddings**2, axis=1)
    out = np.empty((rows.size, n_neighbors), dtype=np.int64)

    def query(start: int, stop: int) -> None:
        # A basic slice, never a gather: with one block the product is
        # E @ E.T itself, which numpy runs as syrk, and a gathered copy
        # would run gemm, whose last bits differ.
        block = embeddings[start:stop]
        # sq_i + sq_j - 2 * (E_i . E_j), in place: the same operations on
        # the same operands as the plain expression, so the same bits,
        # with two fresh block-sized arrays rather than four.
        d2 = np.add(sq[start:stop, None], sq[None, :])
        product = block @ embeddings.T
        product *= 2.0
        d2 -= product
        del product
        local = np.arange(stop - start)
        d2[local, start + local] = np.inf
        places = order[np.searchsorted(ranked, start) : np.searchsorted(ranked, stop)]
        picked = rows[places] - start
        if picked.size < stop - start:
            # Fewer requests than rows: sort those alone. A row's list
            # depends on its own distances only.
            d2, picked = d2[picked], slice(None)
        out[places] = _smallest_stable(d2, n_neighbors)[picked]

    cuts = np.searchsorted(ranked, edges)
    held = [edge for edge, lo, hi in zip(zip(edges, edges[1:]), cuts, cuts[1:]) if hi > lo]
    _run_blocks(lambda edge: query(*edge), held)
    return out


def _smallest_stable(values: np.ndarray, k: int) -> np.ndarray:
    # Column indices of each row's k smallest values ordered by (value,
    # index), as a stable argsort's first k columns, from a partial sort.
    # Which of several values equal to the k-th one the partition keeps is
    # arbitrary, so rows with more than k values at or below the k-th (or a
    # NaN among the k) take the stable sort itself.
    part = np.sort(np.argpartition(values, k - 1, axis=1)[:, :k], axis=1)
    picked = np.take_along_axis(values, part, axis=1)
    order = np.argsort(picked, axis=1, kind="stable")
    top = np.take_along_axis(part, order, axis=1)
    kth = np.take_along_axis(picked, order[:, -1:], axis=1)
    tied = np.flatnonzero(np.count_nonzero(values <= kth, axis=1) != k)
    if tied.size:
        top[tied] = np.argsort(values[tied], axis=1, kind="stable")[:, :k]
    return top


def _batched_accepts(
    embeddings: np.ndarray,
    trial: np.ndarray,
    n_components: int,
    threshold: float,
) -> np.ndarray:
    """Accept test of many trial sets in one padded call.

    ``trial`` is (k, S) point indices, each row its members followed by -1
    padding. Row i is accepted when every member has reconstruction quality
    >= threshold under the top-m PCA plane of its own set, m being
    ``n_components``.

    Padding slots read a zero row, so a set's sum over the S slots divided
    by its own size is its unpadded mean to the bit (zeros after the last
    member change no partial sum); a mask zeroes the padding after
    centring. One batched eigh follows, of the S x S Gram matrix when
    S <= d and of the d x d scatter matrix otherwise. A member's residual
    against the top p eigenvectors comes from the eigenpairs: on the scatter
    route, its coordinates along the other eigenvectors; on the Gram route,
    x less its projection on the lifted eigenvectors X^T u / sqrt(lambda).

    A gap lambda_p - lambda_p+1 of at most EIGEN_TIE_TOL * lambda_1 is a
    tie. When lambda_m and lambda_m+1 are not tied, the plane is the top m
    eigenvectors and the set is decided by its worst quality. When they
    are, the plane is not determined, and the set is scored on the widest
    untied flat inside it (top p < m, down to the centroid alone): every
    plane that holds the flat fits each member at least as well, so the
    flat can accept the set but never reject it. A set goes to the exact
    route (_exact_accepts: linalg._pca_vectors_batch plus
    reconstruction_quality, one call per set size) when
      - its worst quality is within QUALITY_MARGIN of the threshold, or,
        with lambda_m tied, the inner flat does not accept it by more than
        QUALITY_MARGIN. That takes every tie that could matter, sets of
        rank below m among them, where the exact route completes the plane
        with axes;
      - a member lies within rounding of the centroid but not on it,
        0 < |x - c| <= CENTROID_TOL * (|c| + max |x - c|), the set's reach
        from the origin, which bounds the rounding of the centring.

    Why every other set gets the exact route's decision. Both routes centre
    the same bits. Each route's eigenvectors are those of a matrix within
    E ~ S * min(S, d) * eps * lambda_1 of the set's scatter (forming the
    matrix, then eigh). Across an untied gap, the Davis-Kahan theorem puts
    each route's top-p flat within E / gap < S * min(S, d) * 2.2e-11 of the
    exact one in projector norm, and keeps the lifted or eigh directions
    orthonormal to the same order. The exact route's plane holds its top-p
    flat, and is that flat when p = m, so its residual for a member is at
    most this route's, and equal to it when lambda_m is untied, up to that
    multiple of the member's distance from the centroid. So its quality,
    residual over that distance, is at least this route's, and equal to it
    untied, up to that amount: about 2e-9 at S = 21, d = 4 and 3e-9 at
    S = 11, d = 32, nearly three orders of magnitude below QUALITY_MARGIN.
    A direction the exact route keeps inside a tie, with an eigenvalue down
    to its rank tolerance, is orthogonal to the others to about
    sqrt(eps / max(size, d)) < 1e-8, still two orders below it. So this
    route accepts only sets the exact route accepts and rejects only untied
    sets it rejects; every tied set it does not accept gets the exact
    route's own decision. Only a boolean leaves this function, and
    linalg.pca_top_m refits each final plane, so the scan's member lists,
    and every bit that depends on them, are those of the exact route.
    """
    member = trial >= 0
    sizes = member.sum(axis=1)
    # Padding slots index a zero row appended to the embeddings.
    points = np.take(np.concatenate([embeddings, np.zeros((1, embeddings.shape[1]))]), trial, axis=0)
    centroid = points.sum(axis=1) / sizes[:, None]
    centered = (points - centroid[:, None, :]) * member[..., None]
    base2 = np.einsum("ksd,ksd->ks", centered, centered)
    n_sets, width, dim = centered.shape
    gram_route = width <= dim
    if gram_route:
        matrix = np.matmul(centered, centered.transpose(0, 2, 1))
    else:
        matrix = np.matmul(centered.transpose(0, 2, 1), centered)
    evals, evecs = np.linalg.eigh(matrix)
    n_dirs = evals.shape[1]
    # The descending spectrum and one zero; wide[:, p - 1] says the top p
    # eigenvectors are split from the rest by more than a tie. n_dirs >= m:
    # a Gram set has more than m members, and the fits reject m > d.
    spectrum = np.concatenate([evals[:, ::-1], np.zeros((n_sets, 1))], axis=1)
    wide = spectrum[:, :-1] - spectrum[:, 1:] > EIGEN_TIE_TOL * np.maximum(spectrum[:, :1], 0.0)
    counts = np.arange(1, n_components + 1)
    inner = np.max(np.where(wide[:, :n_components], counts, 0), axis=1)
    if gram_route:
        # Squared residuals against the top inner eigenvectors lifted from
        # the Gram matrix.
        used = max(int(inner.max()), 1)
        keep = np.arange(used) >= used - inner[:, None]
        lead = evals[:, n_dirs - used :]
        scale = np.where(keep, 1.0 / np.sqrt(np.where(keep, lead, 1.0)), 0.0)
        u = evecs[:, :, n_dirs - used :] * scale[:, None, :]
        coords = np.matmul(matrix, u)
        lifted = np.matmul(u.transpose(0, 2, 1), centered)
        resid = centered - np.matmul(coords, lifted)
        resid2 = np.einsum("ksd,ksd->ks", resid, resid)
    else:
        # Squared: the coordinates along the eigenvectors below the top inner ones.
        below = (np.arange(n_dirs) < n_dirs - inner[:, None]).astype(np.float64)
        resid2 = np.matmul(np.matmul(centered, evecs) ** 2, below[:, :, None])[:, :, 0]

    # Each set's worst quality on its inner flat, the plane itself where
    # lambda_m is untied; a member on the centroid scores 1.
    nz = member & (base2 > 0.0)
    worst = 1.0 - np.sqrt(np.max(np.where(nz, resid2 / np.where(nz, base2, 1.0), 0.0), axis=1))
    accept = worst > threshold + QUALITY_MARGIN
    decided = accept | ((inner == n_components) & (worst < threshold - QUALITY_MARGIN))
    reach = np.sqrt(np.einsum("kd,kd->k", centroid, centroid)) + np.sqrt(np.max(base2, axis=1))
    near = np.any(nz & (base2 <= (CENTROID_TOL * reach[:, None]) ** 2), axis=1)
    exact = np.flatnonzero(~decided | near)
    for size in np.unique(sizes[exact]):
        rows = exact[sizes[exact] == size]
        accept[rows] = _exact_accepts(embeddings, trial[rows, :size], n_components, threshold)
    return accept


def _exact_accepts(
    embeddings: np.ndarray, trial: np.ndarray, n_components: int, threshold: float
) -> np.ndarray:
    # The accept test's exact route, for (k, size) trial sets of one size:
    # the PCA the final planes use, then reconstruction_quality. Every set
    # gets the bits a stack holding it alone would give.
    points = embeddings[trial]
    vectors, centroid = linalg._pca_vectors_batch(points, n_components)
    quality = reconstruction_quality(points, vectors, centroid)
    return np.all(quality >= threshold, axis=1)


def _scan_pools(
    embeddings: np.ndarray, anchors: np.ndarray, pools: np.ndarray, config: ManifoldConfig
) -> tuple[np.ndarray, np.ndarray]:
    # The greedy scan of many anchors, each with its own (pool_size,) pool,
    # advanced in lockstep: at each pool position every anchor's trial set,
    # its members plus the candidate, padded with -1 to the widest, goes
    # through one _batched_accepts call. Returns members (n, pool_size + 1),
    # anchor first, of which row i holds sizes[i].
    plane_dim = config.dim
    threshold = config.quality_threshold / 100.0
    n, pool_size = pools.shape
    members = np.empty((n, pool_size + 1), dtype=np.int64)
    members[:, 0] = anchors
    members[:, 1:] = pools
    if config.knn_only:
        return members, np.full(n, pool_size + 1, dtype=np.int64)
    sizes = np.full(n, plane_dim, dtype=np.int64)
    rows = np.arange(n)
    for ci in range(plane_dim - 1, pool_size):
        width = int(sizes.max()) + 1
        trial = np.where(np.arange(width) < sizes[:, None], members[:, :width], -1)
        trial[rows, sizes] = pools[:, ci]
        grown = np.flatnonzero(_batched_accepts(embeddings, trial, plane_dim, threshold))
        members[grown, sizes[grown]] = pools[grown, ci]
        sizes[grown] += 1
    return members, sizes


def _fit_planes(
    embeddings: np.ndarray, members: np.ndarray, sizes: np.ndarray, plane_dim: int
) -> Neighborhoods:
    # Each row's final plane, linalg.pca_top_m of its first sizes[i]
    # members bit for bit, batched over rows of equal size.
    n, dim = len(sizes), embeddings.shape[1]
    vectors = np.empty((n, plane_dim, dim))
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        vectors[rows] = linalg._pca_vectors_batch(embeddings[members[rows, :size]], plane_dim)[0]
    width = int(sizes.max())
    padded = np.where(np.arange(width) < sizes[:, None], members[:, :width], -1)
    return Neighborhoods(padded, sizes, linalg._fix_signs(vectors))


def fit_all_neighborhoods(
    embeddings: np.ndarray,
    config: ManifoldConfig,
    *,
    pools: np.ndarray | None = None,
    anchors: np.ndarray | None = None,
) -> Neighborhoods:
    """Fit one plane per anchor, every point by default, pools drawn from the same set.

    Row i of the record is the plane around anchors[i] (point i without
    ``anchors``) and matches calling fit_neighborhood on that point exactly.
    The scans run in lockstep: at each pool position, every anchor's trial
    set, whatever its size, goes through one padded accept test
    (_batched_accepts), which hands the few sets it cannot decide safely to
    the exact per-size PCA. So the scan makes pool_size - dim + 1 accept
    calls. Each final plane equals linalg.pca_top_m of its members bit for
    bit, so a row does not depend on which other anchors are fitted.

    ``anchors`` is a 1-d integer array-like of point indices, in any order,
    repeats allowed. ``pools`` is neighbor_lists(embeddings,
    config.pool_size, rows=anchors) when the caller already holds it, as the
    first columns of a longer list are, in any integer array-like. A
    non-integer index or one outside [0, n), an anchor in its own pool, a
    non-finite point and a plane dim above the embedding dimension raise
    ValueError before any scan.

    From 2 * SCAN_SHARE anchors up, the scan runs in contiguous shares of
    SCAN_SHARE to 2 * SCAN_SHARE - 1 anchors, spread over WORKERS threads
    (_run_blocks). The member lists do not depend on the split:
    _batched_accepts hands every set it cannot decide by more than
    QUALITY_MARGIN to the exact route, so no decision depends on which sets
    share a padded call. The final planes are fitted once, on the calling
    thread.
    """
    n = len(embeddings)
    check_count(config.pool_size, "pool_size", n, n - 1)
    anchors = np.arange(n) if anchors is None else as_indices(anchors, "anchors", n)
    if pools is None:
        pools = neighbor_lists(embeddings, config.pool_size, rows=anchors)
    elif np.shape(pools) != (len(anchors), config.pool_size):
        raise ValueError(f"pools shape {np.shape(pools)} is not {(len(anchors), config.pool_size)}")
    return _fit_pools(embeddings, anchors, pools, config)


def as_indices(values, what: str, n: int | None = None) -> np.ndarray:
    """Integer array-like ``values`` as int64, the package's one index rule:
    floats, booleans and, given a point count n, indices outside [0, n) raise."""
    values = np.asarray(values)
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise ValueError(f"{what} must be integer indices, got dtype {values.dtype}")
    # An unsigned index past the int64 range turns negative here, so it fails too.
    values = values.astype(np.int64, copy=False)
    if n is not None and values.size and (values.min() < 0 or values.max() >= n):
        raise ValueError(f"{what} must lie in [0, {n})")
    return values


def check_count(value, what: str, n: int, most: int) -> None:
    """Raise ValueError naming ``what`` unless ``value``, a count over n
    points, is an integer (a numpy one included, a bool not) in [1, most]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not 1 <= value <= most:
        raise ValueError(f"{what}={value} out of range [1, {most}] for {n} points")


def _fit_pools(embeddings, anchors, pools, config: ManifoldConfig) -> Neighborhoods:
    # The body of both fits: anchors[i]'s plane grown from pools[i], after
    # the checks both share, with the scan split as fit_all_neighborhoods
    # describes (one anchor is one share, on the calling thread).
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if not np.all(np.isfinite(embeddings)):
        raise ValueError("points contain non-finite entries")
    n, dim = embeddings.shape
    if config.dim > dim:
        raise ValueError(f"plane dim={config.dim} exceeds the embedding dimension {dim}")
    anchors, pools = as_indices(anchors, "anchors", n), as_indices(pools, "pools", n)
    if anchors.ndim != 1 or anchors.size < 1:
        raise ValueError("anchors must be a non-empty 1-d array of indices")
    count, width = pools.shape
    if width < config.dim:
        raise ValueError(f"need at least dim={config.dim} neighbor candidates, got {width}")
    if np.any(pools == anchors[:, None]):
        raise ValueError("pools must not hold their own anchor")
    members = np.empty((count, width + 1), dtype=np.int64)
    sizes = np.empty(count, dtype=np.int64)

    def scan(share: slice) -> None:
        members[share], sizes[share] = _scan_pools(
            embeddings, anchors[share], pools[share], config
        )

    n_shares = max(1, count // SCAN_SHARE)
    edges = [count * k // n_shares for k in range(n_shares + 1)]
    _run_blocks(scan, (slice(lo, hi) for lo, hi in zip(edges, edges[1:])))
    return _fit_planes(embeddings, members, sizes, config.dim)


@dataclass
class ProxySet:
    """Learnable proxies: unit-norm locations with one plane frame each.

    ``locations`` is (P, d); ``frames`` is (P, dim, d) with orthonormal rows
    per proxy. Both are plain mutable arrays because the optimizer updates
    them in place between maintenance passes.
    """

    locations: np.ndarray
    frames: np.ndarray

    def __post_init__(self) -> None:
        self.locations = np.asarray(self.locations, dtype=np.float64)
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.locations.ndim != 2:
            raise ValueError("locations must be (n_proxies, dim)")
        if self.frames.ndim != 3 or self.frames.shape[0] != self.locations.shape[0]:
            raise ValueError("frames must be (n_proxies, plane_dim, dim)")
        if self.frames.shape[2] != self.locations.shape[1]:
            raise ValueError("frame ambient dim does not match locations")

    @property
    def n_proxies(self) -> int:
        return self.locations.shape[0]

    def renormalize_locations(self) -> None:
        """Project locations back to the unit sphere, skipping clean rows."""
        norms = np.linalg.norm(self.locations, axis=1)
        if np.any(norms <= 0.0):
            raise ValueError("cannot renormalize a zero proxy location")
        drifted = np.abs(norms - 1.0) > FRAME_DRIFT_TOL
        if np.any(drifted):
            self.locations[drifted] /= norms[drifted, None]

    def reorthonormalize_frames(self) -> None:
        """Restore frame orthonormality, skipping frames still within tolerance."""
        # A non-finite frame counts as drifted, so the repair reports it.
        drifted = ~(np.max(linalg.frame_drift(self.frames), axis=(1, 2)) <= FRAME_DRIFT_TOL)
        if np.any(drifted):
            self.frames[drifted], _ = linalg.reorthonormalize(self.frames[drifted])

    def validate(self) -> None:
        """Assert the maintained invariants; used by tests and checkpoints."""
        norms = np.linalg.norm(self.locations, axis=1)
        if np.max(np.abs(norms - 1.0)) > linalg.UNIT_NORM_TOL:
            raise ValueError("proxy locations are not unit norm")
        linalg.check_frames(self.frames)


def init_proxies(
    embeddings: np.ndarray,
    config: ManifoldConfig,
    n_proxies: int,
    seed: int | np.random.SeedSequence,
) -> ProxySet:
    """Seed proxies by farthest-point sampling over the embedded points.

    The first proxy is a uniformly random point; each next proxy is the
    point maximizing the distance to the closest already-chosen one (ties to
    the lowest index). Every chosen point donates its embedding as the proxy
    location and the frame of its plane, fitted with ``config`` from pools
    drawn from the same set, as the proxy frame. Only the chosen points'
    pools and planes are computed (fit_all_neighborhoods with ``anchors``),
    and each frame is the one a fit of every point would give it.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    check_count(n_proxies, "n_proxies", n, n)
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    # min(inf, d2) is d2, so the first pass needs no case of its own.
    min_d2 = np.full(n, np.inf)
    while len(chosen) < n_proxies:
        min_d2 = np.minimum(min_d2, np.sum((embeddings - embeddings[chosen[-1]]) ** 2, axis=1))
        chosen.append(int(np.argmax(min_d2)))
    neighborhoods = fit_all_neighborhoods(embeddings, config, anchors=chosen)
    return ProxySet(embeddings[chosen], np.array(neighborhoods.bases))
