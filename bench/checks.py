"""Output checks made apart from the program under test.

Every checker returns a list of failure messages, empty when the output is
right. They use their own arithmetic or the reference routes in
``tests/oracles.py``, never the library function whose output they judge, and
they work in bounded blocks so that they do not raise the process's peak
memory above what the program itself reaches.
"""

from __future__ import annotations

import json

import numpy as np

import oracles

# An anchor is exempt from the neighbourhood check when an accept decision of
# the reference scan had its worst-member quality within this distance of the
# threshold: there two eigensolvers may legitimately disagree.
QUALITY_MARGIN = 1e-6
# Distances within TIE_TOL of each other, relative, plus TIE_ABS times the
# largest point norm, count as tied when ranking neighbours. The absolute part
# covers the library's |a|^2 + |b|^2 - 2ab distances, whose error does not
# shrink with the distance.
TIE_TOL = 1e-9
TIE_ABS = 1e-7
SIM_RTOL = 1e-9
NORM_TOL = 1e-9
METRIC_TOL = 1e-9
BLOCK = 256


def losses(metrics) -> list[str]:
    """Each reported loss is finite and non-negative."""
    out = []
    for name in ("point", "proxy", "neighborhood", "total"):
        value = getattr(metrics, name)
        if not np.isfinite(value) or value < 0.0:
            out.append(f"{name} loss {value!r} is not a finite non-negative number")
    return out


def proxies(locations: np.ndarray, frames: np.ndarray) -> list[str]:
    """Proxy locations have unit norm and every frame is orthonormal."""
    out = []
    norms = np.sqrt(np.einsum("pd,pd->p", locations, locations))
    worst = float(np.max(np.abs(norms - 1.0)))
    if not worst <= NORM_TOL:
        out.append(f"proxy location norm off by {worst:.3e}")
    gram = np.einsum("pkd,pld->pkl", frames, frames)
    worst = float(np.max(np.abs(gram - np.eye(frames.shape[1]))))
    if not worst <= NORM_TOL:
        out.append(f"proxy frame Gram matrix off identity by {worst:.3e}")
    return out


def _tie_tol(dist, points) -> np.ndarray:
    return TIE_TOL * dist + TIE_ABS * float(np.max(np.linalg.norm(points, axis=1)))


def canonical_rows(points: np.ndarray) -> np.ndarray:
    """Each row's lowest index among rows with identical coordinates.

    Identical rows are interchangeable to every geometric test, so results
    are compared after mapping indices through this table.
    """
    _, first, inverse = np.unique(points, axis=0, return_index=True, return_inverse=True)
    return first[inverse.ravel()]


def _pool_order(points, anchor, count, canon) -> list[int] | None:
    # The `count` nearest points by ascending distance, ties to the lower
    # index; None when two distinct points are nearly tied in that order.
    dist = np.sqrt(np.sum((points - points[anchor]) ** 2, axis=1))
    dist[anchor] = np.inf
    order = np.argsort(dist, kind="stable")[: count + 1]
    ranked = dist[order]
    distinct = canon[order[1:]] != canon[order[:-1]]
    if np.any(distinct & (np.diff(ranked) <= _tie_tol(ranked[1:], points))):
        return None
    return [int(i) for i in order[:count]]


def _svd_quality(points: np.ndarray, dim: int) -> np.ndarray:
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    lead = vt[:dim]
    resid = centered - (centered @ lead.T) @ lead
    base = np.linalg.norm(centered, axis=1)
    quality = np.ones(len(points))
    nz = base > 0.0
    quality[nz] = 1.0 - np.linalg.norm(resid, axis=1)[nz] / base[nz]
    return quality


def _closest_call(points, anchor, order, members, dim, threshold) -> float:
    # Replays the reference scan's trial sets and returns how close its worst
    # member came to the threshold on any of them.
    current = [anchor] + order[: dim - 1]
    closest = np.inf
    for cand in order[dim - 1 :]:
        trial = current + [cand]
        worst = float(np.min(_svd_quality(points[trial], dim)))
        closest = min(closest, abs(worst - threshold))
        if cand in members:
            current = trial
    return closest


def neighbourhood(points, anchor, members, config, canon=None) -> tuple[list[str], bool]:
    """Members of one fitted neighbourhood equal ``oracles.greedy_plane_scan``.

    Returns (failures, exempt): an anchor whose pool order has a near-tie, or
    whose reference scan came within QUALITY_MARGIN of the threshold, is
    exempt and not compared. Members are compared through ``canon``.
    """
    if canon is None:
        canon = canonical_rows(points)
    order = _pool_order(points, anchor, config.pool_size, canon)
    if order is None:
        return [], True
    ref = [int(i) for i in oracles.greedy_plane_scan(
        points, anchor, order, config.dim, config.quality_threshold
    )]
    threshold = config.quality_threshold / 100.0
    if _closest_call(points, anchor, order, set(ref), config.dim, threshold) <= QUALITY_MARGIN:
        return [], True
    got = [int(i) for i in canon[np.asarray(members)]]
    ref = [int(i) for i in canon[np.asarray(ref)]]
    if got != ref:
        return [f"anchor {anchor}: members {got} differ from the reference scan {ref}"], False
    return [], False


def closed_form_similarity(points, bases, first, second, config) -> np.ndarray:
    """Symmetric similarity of each pair from ``(1+o/2)^-a (1+p)^-b``.

    Each direction projects the difference vector with the explicit projector
    B^T B of the target point's plane.
    """
    first = np.asarray(first)
    second = np.asarray(second)
    dim = points.shape[1]
    projectors = np.einsum("nmd,nme->nde", bases, bases)
    chunk = max(1, (1 << 21) // (dim * dim))
    out = np.empty(first.size)
    for lo in range(0, first.size, chunk):
        i = first[lo : lo + chunk]
        j = second[lo : lo + chunk]
        diff = points[i] - points[j]
        halves = []
        for vec, target in ((diff, j), (-diff, i)):
            inplane = np.matmul(projectors[target], vec[:, :, None])[:, :, 0]
            p = np.sqrt(np.sum(inplane**2, axis=1))
            o = np.sqrt(np.sum((vec - inplane) ** 2, axis=1))
            halves.append(
                (1.0 + o / 2.0) ** (-config.orth_exponent) * (1.0 + p) ** (-config.inplane_exponent)
            )
        out[lo : lo + chunk] = 0.5 * (halves[0] + halves[1])
    return out


def similarity_matrix(points, bases, sims, config, first, second) -> list[str]:
    """Symmetric, in (0, 1], unit diagonal, and the closed form on sampled pairs."""
    out = []
    if not np.array_equal(sims, sims.T):
        out.append("similarity matrix is not symmetric")
    if not np.all((sims > 0.0) & (sims <= 1.0)):
        out.append("similarity outside (0, 1]")
    if not np.all(np.diag(sims) == 1.0):
        out.append("similarity diagonal is not 1")
    ref = closed_form_similarity(points, bases, first, second, config)
    got = sims[first, second]
    bad = ~np.isclose(got, ref, rtol=SIM_RTOL, atol=0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        out.append(
            f"similarity[{first[k]}, {second[k]}] = {got[k]!r}, closed form {ref[k]!r} "
            f"({int(bad.sum())} of {bad.size} sampled pairs differ)"
        )
    return out


def recall_bounds(points, labels, k_values) -> dict[int, tuple[float, float]]:
    """Brute-force Recall@K in percent, as the (lowest, highest) value any
    resolution of near-tied distances allows; the query is never its own
    neighbour and exact ties go to the lower index."""
    n = points.shape[0]
    lo = {k: 0 for k in k_values}
    hi = {k: 0 for k in k_values}
    for start in range(0, n, BLOCK):
        rows = np.arange(start, min(start + BLOCK, n))
        dist = np.sqrt(np.sum((points[rows, None, :] - points[None, :, :]) ** 2, axis=2))
        dist[np.arange(rows.size), rows] = np.inf
        match = labels[None, :] == labels[rows, None]
        for k in k_values:
            kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
            tol = _tie_tol(kth, points)
            certain = dist < kth - tol
            edge = np.abs(dist - kth) <= tol
            slots = k - certain.sum(axis=1)
            hit = np.any(certain & match, axis=1)
            lo[k] += int(np.sum(hit | (np.sum(edge & ~match, axis=1) < slots)))
            hi[k] += int(np.sum(hit | np.any(edge & match, axis=1)))
    return {k: (100.0 * lo[k] / n, 100.0 * hi[k] / n) for k in k_values}


def recall(points, labels, reported: dict) -> list[str]:
    """Reported Recall@K equals the brute-force neighbour count."""
    bounds = recall_bounds(points, np.asarray(labels), sorted(reported))
    out = []
    for k, value in reported.items():
        low, high = bounds[k]
        if not low - METRIC_TOL <= value <= high + METRIC_TOL:
            out.append(f"recall@{k} = {value!r}, brute force gives {low!r}..{high!r}")
    return out


def purity(members: list, labels, reported: float) -> list[str]:
    """Reported neighbourhood purity equals the mean majority fraction."""
    labels = np.asarray(labels)
    fractions = []
    for group in members:
        _, counts = np.unique(labels[np.asarray(group)], return_counts=True)
        fractions.append(counts.max() / len(group))
    expected = float(np.mean(fractions))
    if not abs(expected - reported) <= METRIC_TOL:
        return [f"neighbourhood purity {reported!r}, recomputed {expected!r}"]
    return []


def correlation(points, bases, labels, first, second, config, reported: float) -> list[str]:
    """Reported similarity correlation equals ``oracles.pearson_two_pass`` over
    the same pairs, with similarities from the closed form."""
    labels = np.asarray(labels)
    sims = closed_form_similarity(points, bases, first, second, config)
    same = (labels[first] == labels[second]).astype(np.float64)
    expected = oracles.pearson_two_pass(sims, same)
    if not abs(expected - reported) <= 1e-8:
        return [f"similarity correlation {reported!r}, recomputed {expected!r}"]
    return []


def trainer_state(run) -> dict[str, bytes]:
    """Everything a resumed run depends on, as raw bytes per item."""
    state = {}
    tensors = {
        "trained": run.pair.trained.tensors(),
        "averaged": run.pair.averaged.tensors(),
        "adam_encoder.m": run.adam_encoder.m,
        "adam_encoder.v": run.adam_encoder.v,
        "proxies": [run.proxies.locations, run.proxies.frames],
        "adam_proxies.m": run.adam_proxies.m,
        "adam_proxies.v": run.adam_proxies.v,
    }
    for group, arrays in tensors.items():
        for idx, arr in enumerate(arrays):
            state[f"{group}.{idx}"] = (
                str(arr.dtype).encode() + str(arr.shape).encode() + np.ascontiguousarray(arr).tobytes()
            )
    scalars = {
        "epoch": run.epoch,
        "global_step": run.global_step,
        "adam_encoder.step_count": run.adam_encoder.step_count,
        "adam_proxies.step_count": run.adam_proxies.step_count,
        "rng_sampler": run.rng_sampler.bit_generator.state,
        "rng_augment": run.rng_augment.bit_generator.state,
        "history": run.history,
        "config": repr(run.config),
    }
    for key, value in scalars.items():
        state[key] = json.dumps(value, sort_keys=True, default=str).encode()
    return state


def same_state(expected: dict[str, bytes], got: dict[str, bytes], label: str) -> list[str]:
    """Two trainer states are bit-identical."""
    differ = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    if differ:
        return [f"{label}: {', '.join(differ[:5])} differ"]
    return []
