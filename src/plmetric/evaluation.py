"""Retrieval and supervision-quality metrics plus the k-means baseline.

All metrics are exact and deterministic. Recall reads each query's nearest
neighbors from manifold.neighbor_lists, a blocked exact top-k whose memory
grows with n, not n^2; a full evaluation runs that k-NN once, to the larger
of max(K) and the pool size, and hands its first columns to recall and to
the neighborhood fit's pools. Label purity is the mean majority fraction
over groups: group_purity and neighborhood_purity share one body, whose
memory grows with the member count, not with the label values. The
similarity correlation is Pearson's between continuous similarities and the
binary same-class indicator, over all pairs up to ALL_PAIRS_LIMIT points
(read from the similarity matrix) and over a seeded sample of pairs beyond
it (scored a chunk of pairs at a time, without the n x n matrix). The
k-means baseline (Lloyd with k-means++ seeding) lives here so comparisons
never depend on an external implementation.

Each kind of input has one rule, raising ValueError: data.checked_labels for
labels, manifold.as_indices for indices and K, manifold.check_count for
counts, linalg.checked_points for points and Neighborhoods.checked_members
for a record against its points.

On large sets the k-NN, the neighborhood scan and the sampled-pair scoring
run on every usable core (manifold.WORKERS threads, the caller included);
k-means and the pair draw run on the calling thread. With BLAS on one
thread the report is the same to the bit for any number of worker threads;
with more, the similarity correlation's dot product splits its sum by BLAS
thread count, so its last bits follow that count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import checked_labels
from .linalg import checked_points, squared_distances
from .manifold import (
    ManifoldConfig,
    Neighborhoods,
    as_indices,
    check_count,
    fit_all_neighborhoods,
    neighbor_lists,
)
from .similarity import SimilarityConfig, pair_similarities, pairwise_similarity_matrix

# Above this many points, correlations switch from all pairs to a sample.
ALL_PAIRS_LIMIT = 2000
PAIR_SAMPLE_SIZE = 1_000_000
KMEANS_MAX_ITER = 100
# Recall cut-offs reported when the caller names none; the CLI's default too.
RECALL_KS = (1, 2, 4, 8)


def _checked_ks(k_values: Sequence[int], n: int) -> list[int]:
    # Integers only, numpy's among them: a float K is refused, not truncated.
    k_values = [int(k) for k in as_indices(k_values, "K values")]
    if not k_values or min(k_values) < 1:
        raise ValueError("K values must be positive")
    if n < max(k_values) + 1:
        raise ValueError(f"need at least max(K)+1 = {max(k_values) + 1} points, got {n}")
    return k_values


def recall_at_k(
    embeddings: np.ndarray,
    labels: np.ndarray,
    k_values: Sequence[int],
    *,
    neighbors: np.ndarray | None = None,
) -> dict[int, float]:
    """Percentage of queries with a same-class sample among their K nearest.

    Exact Euclidean neighbors from manifold.neighbor_lists, query excluded
    from its own candidates, ties broken toward the lower index. A caller
    that already holds neighbor_lists(embeddings, k) for some k >= max(K)
    passes it as ``neighbors``; its first max(K) columns are the list this
    would compute, in any integer array-like. Its entries must be indices
    in [0, n) (manifold.as_indices), none the query's own. Each K must be a
    positive integer, a numpy one included; a float K raises ValueError.
    ``labels`` follow data.checked_labels. Returns {K: percentage}.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    labels = checked_labels(labels, n)
    k_values = _checked_ks(k_values, n)
    depth = max(k_values)
    if neighbors is None:
        neighbors = neighbor_lists(embeddings, depth)
    elif np.ndim(neighbors) != 2 or len(neighbors) != n or np.shape(neighbors)[1] < depth:
        raise ValueError(f"neighbors shape {np.shape(neighbors)} is not ({n}, >= {depth})")
    else:
        neighbors = as_indices(neighbors, "neighbors", n)
        if np.any(neighbors == np.arange(n)[:, None]):
            raise ValueError("neighbors must not hold the query's own index")
    match = labels[neighbors[:, :depth]] == labels[:, None]
    out = {}
    for k in sorted(k_values):
        out[k] = float(np.mean(np.any(match[:, :k], axis=1)) * 100.0)
    return out


def _purity(members: np.ndarray, sizes: np.ndarray, labels: np.ndarray) -> float:
    # Mean majority-label fraction of groups laid out one after another:
    # group g is the next sizes[g] entries of ``members``. A member's key is
    # g * n plus its label's rank among the n labels, so one sort counts each
    # (group, label) pair, in memory that never grows with the label values.
    firsts = np.arange(len(sizes)) * len(labels)
    ranks = np.unique(labels, return_inverse=True)[1]
    keys, counts = np.unique(np.repeat(firsts, sizes) + ranks[members], return_counts=True)
    # Keys ascend, so group g's counts start at its first key, the first >= g * n.
    majority = np.maximum.reduceat(counts, np.searchsorted(keys, firsts))
    return float(np.mean(majority / sizes))


def group_purity(groups: Sequence[np.ndarray], labels: np.ndarray) -> float:
    """Mean majority-label fraction over groups of indices into ``labels``.

    Each group is a non-empty 1-d array-like of indices in [0, len(labels))
    (manifold.as_indices); labels follow data.checked_labels at their own
    length. Anything else raises ValueError.
    """
    labels = checked_labels(labels, np.size(labels))
    groups = [as_indices(members, "group members", len(labels)) for members in groups]
    if not groups or any(members.ndim != 1 or members.size == 0 for members in groups):
        raise ValueError("need at least one group, each a non-empty 1-d array of indices")
    return _purity(np.concatenate(groups), np.array([members.size for members in groups]), labels)


def neighborhood_purity(neighborhoods: Neighborhoods, labels: np.ndarray) -> float:
    """Purity of fitted neighborhoods: group_purity over the rows' member sets.

    ``labels`` follow data.checked_labels with one label per row, and the
    record must fit that many points (Neighborhoods.checked_members).
    """
    labels = checked_labels(labels, len(neighborhoods))
    return _purity(neighborhoods.checked_members(len(labels)), neighborhoods.sizes, labels)


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centers: np.ndarray
    n_iter: int
    inertia: float
    inertia_history: list[float] = field(default_factory=list)


def _kmeans_pp_centers(
    points: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    min_d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    while len(chosen) < n_clusters:
        total = float(min_d2.sum())
        if total > 0.0:
            nxt = int(rng.choice(n, p=min_d2 / total))
        else:
            # All remaining mass is zero (duplicate points); fall back to the
            # lowest index not yet chosen.
            nxt = int(next(i for i in range(n) if i not in chosen))
        chosen.append(nxt)
        min_d2 = np.minimum(min_d2, np.sum((points - points[nxt]) ** 2, axis=1))
    return points[chosen].copy()


def kmeans_baseline(
    embeddings: np.ndarray, n_clusters: int, seed: int | np.random.SeedSequence
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding, capped at 100 iterations.

    Empty clusters are refilled with the point currently farthest from its
    assigned center among clusters of two or more members, so no cluster
    stays empty. The within-cluster sum of squares is tracked every
    iteration and verified non-increasing.
    """
    points = checked_points(embeddings)
    n = points.shape[0]
    check_count(n_clusters, "n_clusters", n, n)
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_centers(points, n_clusters, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    n_iter = 0
    for n_iter in range(1, KMEANS_MAX_ITER + 1):
        dist = np.sqrt(np.maximum(squared_distances(points, centers), 0.0))
        new_assignments = np.argmin(dist, axis=1)
        point_cost = dist[np.arange(n), new_assignments] ** 2
        counts = np.bincount(new_assignments, minlength=n_clusters)
        for cluster in np.flatnonzero(counts == 0):
            # Taking a cluster's only member would empty it in turn; with
            # a cluster empty and n_clusters <= n, some cluster has two.
            stray = int(np.argmax(np.where(counts[new_assignments] > 1, point_cost, -np.inf)))
            counts[new_assignments[stray]] -= 1
            counts[cluster] += 1
            centers[cluster] = points[stray]
            new_assignments[stray] = cluster
            point_cost[stray] = 0.0
        inertia = float(
            np.sum(np.sum((points - centers[new_assignments]) ** 2, axis=1))
        )
        if history and inertia > history[-1] + 1e-9:
            raise RuntimeError(
                f"k-means objective increased at iteration {n_iter}: "
                f"{history[-1]} -> {inertia}"
            )
        history.append(inertia)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cluster in range(n_clusters):
            centers[cluster] = points[assignments == cluster].mean(axis=0)
    final_inertia = float(
        np.sum(np.sum((points - centers[assignments]) ** 2, axis=1))
    )
    return KMeansResult(assignments, centers, n_iter, final_inertia, history)


def sample_pairs(
    n: int, seed: int | np.random.SeedSequence
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs for correlation: all unordered pairs, or a seeded sample.

    Up to ALL_PAIRS_LIMIT points every unordered pair is used; beyond that
    PAIR_SAMPLE_SIZE ordered pairs are drawn in one pass, each uniform over
    the pairs (i, j) with i != j.
    """
    if n < 2:
        raise ValueError("need at least two points to form pairs")
    if n <= ALL_PAIRS_LIMIT:
        return np.triu_indices(n, k=1)
    rng = np.random.default_rng(seed)
    first = rng.integers(n, size=PAIR_SAMPLE_SIZE)
    # Uniform over the n - 1 indices other than first: skip over first.
    second = rng.integers(n - 1, size=PAIR_SAMPLE_SIZE)
    second += second >= first
    return first, second


def similarity_correlation(similarity_values: np.ndarray, same_class: np.ndarray) -> float:
    """Pearson correlation between similarities and the same-class indicator.

    With a binary indicator this is the point-biserial correlation. Raises
    when either side is non-finite, or constant: the correlation is undefined.
    Two passes: each side is centred once, and the same sums of squares
    give the zero-variance test and the denominator, so only the two
    centred copies are held besides the inputs.
    """
    values = np.asarray(similarity_values)
    indicator = np.asarray(same_class)
    if values.shape != indicator.shape or values.ndim != 1:
        raise ValueError("similarity values and indicators must be equal-length vectors")
    if values.size < 2:
        raise ValueError("need at least two pairs")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(indicator))):
        raise ValueError("similarity values and indicators must be finite")
    x = np.subtract(values, np.mean(values, dtype=np.float64), dtype=np.float64)
    y = np.subtract(indicator, np.mean(indicator, dtype=np.float64), dtype=np.float64)
    # einsum never calls BLAS, whose dot splits its sum by thread count, so
    # the sums, and the report, are the same on any number of BLAS threads.
    sxx, syy = np.einsum("i,i->", x, x), np.einsum("i,i->", y, y)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined: zero variance in similarities or labels")
    return float(np.clip(np.einsum("i,i->", x, y) / (np.sqrt(sxx) * np.sqrt(syy)), -1.0, 1.0))


@dataclass
class EvalReport:
    """Flat record of one evaluation run."""

    n_samples: int
    n_classes: int
    recall_at: dict[int, float]
    neighborhood_purity: float
    kmeans_purity: float
    similarity_correlation: float
    kmeans_correlation: float

    def __post_init__(self) -> None:
        ks = sorted(self.recall_at)
        values = [self.recall_at[k] for k in ks]
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("recall must be non-decreasing in K")
        if any(not 0.0 <= v <= 100.0 for v in values):
            raise ValueError("recall percentages must lie in [0, 100]")

    def to_text(self) -> str:
        lines = [f"n_samples={self.n_samples}", f"n_classes={self.n_classes}"]
        for k in sorted(self.recall_at):
            lines.append(f"recall@{k}={self.recall_at[k]:.4f}")
        for name in (
            "neighborhood_purity",
            "kmeans_purity",
            "similarity_correlation",
            "kmeans_correlation",
        ):
            lines.append(f"{name}={getattr(self, name):.6f}")
        return "\n".join(lines)


def evaluate_embeddings(
    embeddings: np.ndarray,
    labels: np.ndarray,
    manifold_config: ManifoldConfig,
    similarity_config: SimilarityConfig,
    recall_ks: Sequence[int] = RECALL_KS,
    seed: int = 0,
) -> EvalReport:
    """Full labeled evaluation: retrieval, purity, and supervision quality.

    Fits neighborhoods on the given embeddings, compares their purity and
    similarity-vs-label correlation against a k-means baseline run with
    n_clusters equal to the true class count, over the same sampled pairs.
    ``labels`` must be a 1-d integer array of n non-negative labels, as
    for recall_at_k and the purities; anything else is a ValueError.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    labels = checked_labels(labels, n)
    classes = np.unique(labels)
    # Recall and the fit's pools read one k-NN: each list is the prefix of
    # the longest (neighbor_lists is a stable sort's first columns). Both
    # inputs are checked first, so a short set raises its own error.
    recall_ks = _checked_ks(recall_ks, n)
    check_count(manifold_config.pool_size, "pool_size", n, n - 1)
    neighbors = neighbor_lists(embeddings, max(manifold_config.pool_size, *recall_ks))
    recall = recall_at_k(embeddings, labels, recall_ks, neighbors=neighbors)
    neighborhoods = fit_all_neighborhoods(
        embeddings, manifold_config, pools=neighbors[:, : manifold_config.pool_size]
    )
    del neighbors
    nbhd_purity = neighborhood_purity(neighborhoods, labels)
    km = kmeans_baseline(embeddings, len(classes), seed)
    first, second = sample_pairs(n, seed)
    km_groups = [np.flatnonzero(km.assignments == c) for c in range(len(classes))]
    km_purity = group_purity(km_groups, labels)
    same_class = labels[first] == labels[second]
    same_cluster = km.assignments[first] == km.assignments[second]
    if n > ALL_PAIRS_LIMIT:
        ours_values = pair_similarities(
            embeddings, neighborhoods, similarity_config, first, second
        )
    else:
        sims = pairwise_similarity_matrix(embeddings, neighborhoods, similarity_config)
        ours_values = sims[first, second]
        del sims
    # Each correlation holds two centred pair-length copies besides its
    # inputs; drop what else is that large before them.
    del first, second, neighborhoods
    ours_correlation = similarity_correlation(ours_values, same_class)
    del ours_values
    kmeans_correlation = similarity_correlation(same_cluster, same_class)
    return EvalReport(
        n_samples=n,
        n_classes=len(classes),
        recall_at=recall,
        neighborhood_purity=nbhd_purity,
        kmeans_purity=km_purity,
        similarity_correlation=ours_correlation,
        kmeans_correlation=kmeans_correlation,
    )
