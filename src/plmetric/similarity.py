"""Geometric similarity between points, neighborhoods, and proxies.

A directed similarity from x toward a target plane decomposes the difference
vector into an orthogonal distance o and an in-plane distance p, and maps
them through two decay curves:

    orthogonal_decay(o) = (1 + o/2) ** -orth_exponent
    inplane_decay(p)    = (1 + p) ** -inplane_exponent

The product is the directed similarity; averaging the two directions makes
it symmetric. Orthogonal drift is meant to be punished much harder than
in-plane drift, hence separate exponents.

The training losses treat point-proxy similarities as differentiable
functions of the proxies (but never of the encoder). One proxy_pass per step
splits every proxy and point plane once: it returns the values and keeps
what its pullback needs to turn the losses' weights dL/ds into gradients
w.r.t. proxy locations and frames without splitting again.

pair_similarities, which evaluation calls above ALL_PAIRS_LIMIT points,
scores its PAIR_CHUNK chunks on every usable core (manifold._run_blocks),
with the same bits for any number of threads; the training routes are
serial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .manifold import Neighborhoods, ProxySet, _run_blocks, as_indices

# Pairs scored at once by pair_similarities.
PAIR_CHUNK = 1 << 13

# Cells of the largest per-item array allowed in one block of the stacked
# point, proxy and anchor loops (see stack_blocks).
STACK_CELLS = 1 << 15


@dataclass(frozen=True)
class SimilarityConfig:
    """Decay exponents plus the binary-similarity ablation switch."""

    orth_exponent: float = 4.0
    inplane_exponent: float = 0.5
    binary: bool = False

    def __post_init__(self) -> None:
        exponents = (self.orth_exponent, self.inplane_exponent)
        if not all(0.0 <= e < math.inf for e in exponents):
            raise ValueError("decay exponents must be finite and non-negative")
        if not self.binary and self.orth_exponent <= self.inplane_exponent:
            warnings.warn(
                "orth_exponent <= inplane_exponent: orthogonal deviations decay "
                "no faster than in-plane ones, which defeats the planar geometry",
                stacklevel=2,
            )


def stack_blocks(count: int, cells_per_item: int) -> list[slice]:
    """Slices covering range(count) in blocks of at most STACK_CELLS cells.

    Each block holds at least one item. A stacked route runs one block at a
    time, so its temporaries stay bounded however many items there are.
    """
    step = max(1, STACK_CELLS // max(cells_per_item, 1))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def orthogonal_decay(distance, exponent: float):
    """Similarity factor for the orthogonal component, (1 + o/2) ** -exponent."""
    return _checked_decay("orthogonal", distance, lambda o: _decays(o, 0.0, exponent, 0.0)[0])


def inplane_decay(distance, exponent: float):
    """Similarity factor for the in-plane component, (1 + p) ** -exponent."""
    return _checked_decay("in-plane", distance, lambda p: _decays(0.0, p, 0.0, exponent)[1])


def _checked_decay(kind: str, distance, decay):
    distance = np.asarray(distance, dtype=np.float64)
    # Written so that NaN fails it too.
    if not np.all(distance >= 0.0):
        raise ValueError(f"{kind} distance must be non-negative")
    out = decay(distance)
    return float(out) if out.ndim == 0 else out


def pairwise_similarity_matrix(
    embeddings: np.ndarray,
    neighborhoods: Neighborhoods,
    config: SimilarityConfig,
) -> np.ndarray:
    """(n, n) symmetric similarity matrix over one embedded point set.

    ``neighborhoods`` holds point j's plane in row j (Neighborhoods.checked_members).
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    members = neighborhoods.checked_members(n)
    directed = np.zeros((n, n))
    if config.binary:
        # Column j marks the members of anchor j's neighborhood.
        directed[members, np.repeat(np.arange(n), neighborhoods.sizes)] = 1.0
    else:
        # Column j is every point seen from anchor j's plane, a block of
        # anchors at a time.
        for blk in stack_blocks(n, n * embeddings.shape[1]):
            diffs = embeddings - embeddings[blk, None, :]
            p, o = linalg.plane_split(diffs, neighborhoods.bases[blk])[3:]
            a, b = _decays(o, p, config.orth_exponent, config.inplane_exponent)
            directed[:, blk] = (a * b).T
            # Freed before the next block allocates its own.
            del diffs, p, o, a, b
    return (directed + directed.T) / 2.0


def pair_similarities(
    embeddings: np.ndarray,
    neighborhoods: Neighborhoods,
    config: SimilarityConfig,
    first: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """Symmetric similarity of each pair (first[t], second[t]).

    The entries pairwise_similarity_matrix would hold there, equal to the
    matrix entries to 1e-12 (bit for bit in binary mode), scored PAIR_CHUNK
    pairs at a time with no (n, n) array, so memory grows with the number
    of pairs, not with n^2. ``neighborhoods`` is as for
    pairwise_similarity_matrix. ``first`` and ``second`` must be
    equal-length 1-d integer arrays of indices in [0, n) (manifold.as_indices);
    anything else raises ValueError. The chunks run on the calling thread
    plus up to manifold.WORKERS - 1 helpers, each writing its own slice of
    the output, so the bits do not depend on the count.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    neighborhoods.checked_members(n)
    first, second = as_indices(first, "pair indices", n), as_indices(second, "pair indices", n)
    if first.ndim != 1 or first.shape != second.shape:
        raise ValueError("first and second must be 1-d index arrays of equal length")
    members, bases = neighborhoods.members, neighborhoods.bases
    out = np.empty(first.size)

    def score(lo: int) -> None:
        i, j = first[lo : lo + PAIR_CHUNK], second[lo : lo + PAIR_CHUNK]
        # Rows are gathered with np.take: the same bytes as fancy
        # indexing, several times faster on a 1-d index.
        if config.binary:
            # Padding is -1, which no point index matches.
            forward = np.any(np.take(members, j, axis=0) == i[:, None], axis=1).astype(np.float64)
            reverse = np.any(np.take(members, i, axis=0) == j[:, None], axis=1).astype(np.float64)
        else:
            # The reverse difference is -diffs; both norms are blind to
            # the sign, so the same rows serve.
            diffs = np.take(embeddings, i, axis=0) - np.take(embeddings, j, axis=0)
            forward = _paired_directed(diffs, np.take(bases, j, axis=0), config)
            reverse = _paired_directed(diffs, np.take(bases, i, axis=0), config)
        out[lo : lo + PAIR_CHUNK] = (forward + reverse) / 2.0

    _run_blocks(score, range(0, first.size, PAIR_CHUNK))
    return out


def _paired_directed(diffs: np.ndarray, frames: np.ndarray, config: SimilarityConfig):
    # Directed similarity of each (c, d) difference row seen from its own
    # (c, m, d) frame: plane_split's products taken row by row, so no row
    # costs a matmul call of its own. The residual is the explicit vector,
    # never sqrt(|diff|^2 - p^2), which cancels near the plane.
    coords = np.einsum("cd,cmd->cm", diffs, frames)
    residual = diffs - np.einsum("cm,cmd->cd", coords, frames)
    p = np.sqrt(np.einsum("cm,cm->c", coords, coords))
    o = np.sqrt(np.einsum("cd,cd->c", residual, residual))
    a, b = _decays(o, p, config.orth_exponent, config.inplane_exponent)
    return a * b


def nearest_proxy_indices(embeddings: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Index of the closest proxy per embedding row, ties to the lowest index."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    locations = np.asarray(locations, dtype=np.float64)
    return np.argmin(linalg.squared_distances(embeddings, locations), axis=1)


def _inv_or_zero(values: np.ndarray) -> np.ndarray:
    # 1/x with the subgradient-zero convention at x == 0.
    out = np.zeros_like(values)
    nz = values > 0.0
    out[nz] = 1.0 / values[nz]
    return out


def _decays(o, p, orth_exponent: float, inplane_exponent: float):
    # The orthogonal and in-plane decay factors of distances o and p.
    return (1.0 + o / 2.0) ** (-orth_exponent), (1.0 + p) ** (-inplane_exponent)


def _slopes(o, p, a, b, config: SimilarityConfig):
    # The weights of the residual and of the in-plane vector in d s / d diff
    # of the directed similarity s = a * b, a and b the decays of o and p.
    da = -(config.orth_exponent / 2.0) * (1.0 + o / 2.0) ** (-config.orth_exponent - 1.0)
    db = -config.inplane_exponent * (1.0 + p) ** (-config.inplane_exponent - 1.0)
    return da * b * _inv_or_zero(o), a * db * _inv_or_zero(p)


@dataclass(frozen=True)
class ProxyPass:
    """One batch's point-proxy similarities and what their pullback reuses.

    ``values`` is the (n, P) table. The pass also holds its inputs, which
    pullback reads again and so must not change in between, and, outside
    binary mode, each forward block's plane coordinates (P_b, n, m), norms
    and decays (P_b, n) and the (n, P, d) reverse-direction location partials.
    """

    values: np.ndarray
    inputs: tuple
    forward: tuple = ()
    reverse: np.ndarray | None = None

    def pullback(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of sum_ij w[i, j] s_ij w.r.t. proxy locations and frames.

        s is ``values``; each w of the (k, n, P) stack ``weights`` is one
        loss's dL/ds. Returns the (k, P, d) location and (k, P, m, d) frame
        gradients. Each forward block's in-plane vector and residual are
        rebuilt from its kept coordinates with plane_split's own products,
        its partials formed and contracted with each w in turn, so no
        (n, P, m, d) table is held and no plane is split again. Binary
        similarity is piecewise constant: both gradients are zero.
        """
        embeddings, proxies, config = self.inputs
        n, n_prox = self.values.shape
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 3 or weights.shape[1:] != (n, n_prox):
            raise ValueError(f"weights shape {weights.shape} is not (k, {n}, {n_prox})")
        grad_loc = np.zeros((len(weights), n_prox, embeddings.shape[1]))
        grad_frames = np.zeros((len(weights), *proxies.frames.shape))
        for blk, coords, p, o, a, b in self.forward:
            diffs = embeddings - proxies.locations[blk, None, :]
            inplane_vec = np.matmul(coords, proxies.frames[blk])
            ovec = diffs - inplane_vec
            w_orth, w_plane = _slopes(o, p, a, b, config)
            ds_ddiff = w_orth[..., None] * ovec + w_plane[..., None] * inplane_vec
            # Per proxy: (n, d) and (n, m, d), d s_ij / d rho_j and d psi_j.
            loc_part = self.reverse[:, blk].swapaxes(0, 1) - 0.5 * ds_ddiff
            # d s / d psi_k splits across the two decay factors: the
            # in-plane distance varies along the full difference vector,
            # the orthogonal distance only along the off-plane residual.
            frame_part = np.einsum("pnk,pnd->pnkd", coords * w_plane[..., None], diffs)
            frame_part -= np.einsum("pnk,pnd->pnkd", coords * w_orth[..., None], ovec)
            frame_part *= 0.5
            for w, loc, frames in zip(weights[:, :, blk], grad_loc[:, blk], grad_frames[:, blk]):
                loc[...] = np.einsum("np,pnd->pd", w, loc_part)
                frames[...] = np.einsum("np,pnkd->pkd", w, frame_part)
        return grad_loc, grad_frames


def proxy_pass(
    embeddings: np.ndarray,
    point_bases: np.ndarray,
    proxies: ProxySet,
    config: SimilarityConfig,
) -> ProxyPass:
    """All symmetric point-proxy similarities for one batch, as a ProxyPass.

    ``embeddings`` (n, d) is the embedded batch (momentum encoder output),
    ``point_bases`` (n, m, d) its neighborhood frames, one per point. The
    forward direction measures the point from the proxy's plane, the
    reverse direction measures the proxy from the point's neighborhood
    plane; the values are their average. Each direction splits a block of
    planes at a time (stack_blocks), with the bits of a loop over single
    planes, and splits each block once. Every pass keeps what its pullback
    needs; a caller with no use for proxy gradients never calls it. In
    binary mode the similarity is the nearest-proxy indicator.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    point_bases = np.asarray(point_bases, dtype=np.float64)
    (n, dim), (n_prox, plane_dim, _) = embeddings.shape, proxies.frames.shape
    if point_bases.shape != (n, plane_dim, dim):
        raise ValueError(f"point_bases shape {point_bases.shape} is not {(n, plane_dim, dim)}")
    values = np.zeros((n, n_prox))
    if config.binary:
        values[np.arange(n), nearest_proxy_indices(embeddings, proxies.locations)] = 1.0
        return ProxyPass(values, (embeddings, proxies, config))

    # Reverse direction: a block of point planes, each seeing all proxies.
    # Its location partials fill one (n, P, d) buffer in point blocks
    # (proxy blocks would change the matmul shapes, and so the last bits).
    # It runs first, so its temporaries never meet the kept forward splits.
    reverse = np.empty((n, n_prox, dim))
    for blk in stack_blocks(n, n_prox * dim):
        diffs = proxies.locations - embeddings[blk, None, :]
        _, inplane_vec, ovec, p, o = linalg.plane_split(diffs, point_bases[blk])
        a, b = _decays(o, p, config.orth_exponent, config.inplane_exponent)
        w_orth, w_plane = _slopes(o, p, a, b, config)
        values[blk] = a * b
        reverse[blk] = 0.5 * (w_orth[..., None] * ovec + w_plane[..., None] * inplane_vec)

    # Forward direction: a block of proxy planes, each seeing the whole
    # batch. The sum with the reverse value is the same either way round.
    forward = []
    for blk in stack_blocks(n_prox, n * plane_dim * dim):
        diffs = embeddings - proxies.locations[blk, None, :]
        coords, _, _, p, o = linalg.plane_split(diffs, proxies.frames[blk])
        a, b = _decays(o, p, config.orth_exponent, config.inplane_exponent)
        values[:, blk] = (values[:, blk] + (a * b).T) / 2.0
        forward.append((blk, coords, p, o, a, b))
    return ProxyPass(values, (embeddings, proxies, config), tuple(forward), reverse)


def proxy_similarity_batch(
    embeddings: np.ndarray,
    point_bases: np.ndarray,
    proxies: ProxySet,
    config: SimilarityConfig,
) -> np.ndarray:
    """The (n, P) values of a proxy_pass."""
    return proxy_pass(embeddings, point_bases, proxies, config).values
