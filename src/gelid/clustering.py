"""Context and issue clustering: keyframe distance, blended distance, and
three non-parametric clusterers (DBSCAN, OPTICS, Mean Shift) from scratch.

The context measure is 1 minus the average pairwise histogram intersection
between two segments' keyframes. It is not a metric (average pairwise
self-similarity can fall below 1) so d(X, X) is pinned to 0 and the density
methods consume it as a plain dissimilarity. The issue measure blends
cosine distance on tf-idf text with the context measure.

Determinism: every tie (border points, mode merge order, cluster numbering)
breaks on item id, so results are independent of input order.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, check_shape, non_negative, positive,
                     positive_int)

log = logging.getLogger(__name__)

NOISE = -1
_CHANNELS = 3

# each clusterer and the range of each parameter a caller gives it
CLUSTERERS = {"dbscan": {"eps": positive, "min_pts": positive_int},
              "optics": {"min_pts": positive_int, "eps_max": positive,
                         "eps_cut": positive},
              "mean_shift": {"bandwidth": positive}}


def check_params(algorithm: str, params: dict, where: str) -> None:
    """Hold each parameter of a clusterer to its range, and OPTICS's
    extraction cut to at most its reachability cap."""
    check_shape(params, CLUSTERERS[algorithm], where)
    if algorithm == "optics" and params["eps_cut"] > params["eps_max"]:
        raise DataError(f"{where}: optics needs eps_cut <= eps_max, got "
                        f"{params['eps_cut']} > {params['eps_max']}")


def blend_weight(value) -> bool:
    """a number in [0, 1]"""
    return non_negative(value) and value <= 1


@dataclass
class DistanceMatrix:
    ids: tuple[str, ...]
    values: np.ndarray  # (n, n) symmetric, zero diagonal, entries in [0, 1]

    def validate(self) -> None:
        n = len(self.ids)
        if self.values.shape != (n, n):
            raise DataError(f"distance matrix shape {self.values.shape} does "
                            f"not match {n} ids")
        if not np.all(np.isfinite(self.values)):
            raise DataError("distance matrix has non-finite entries")
        if np.any(self.values < -1e-12) or np.any(self.values > 1 + 1e-12):
            raise DataError("distances must lie in [0, 1]")
        if not np.allclose(self.values, self.values.T, atol=1e-12, rtol=0):
            raise DataError("distance matrix must be symmetric")
        if np.any(np.abs(np.diag(self.values)) > 1e-12):
            raise DataError("distance matrix diagonal must be 0")


@dataclass
class ClusterAssignment:
    ids: tuple[str, ...]
    labels: dict[str, int]  # NOISE (-1) or contiguous cluster id from 0
    algorithm: str
    params: dict = field(default_factory=dict)
    medoids: dict[int, str] = field(default_factory=dict)

    def clusters(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for item in self.ids:
            label = self.labels[item]
            if label != NOISE:
                out.setdefault(label, []).append(item)
        return {k: sorted(v) for k, v in sorted(out.items())}

    def noise(self) -> list[str]:
        return sorted(i for i in self.ids if self.labels[i] == NOISE)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "algorithm": self.algorithm,
            "params": self.params,
            "clusters": [
                {"id": cid, "member_segment_ids": members,
                 "medoid": self.medoids.get(cid)}
                for cid, members in self.clusters().items()
            ],
            "noise": self.noise(),
        }


def histogram_intersection(a: np.ndarray, b: np.ndarray) -> float:
    """Similarity of two 3-block normalized histograms, in [0, 1]."""
    return float(np.minimum(a, b).sum() / _CHANNELS)


def context_distance(keyframes_a: np.ndarray,
                     keyframes_b: np.ndarray) -> float:
    """1 minus the mean pairwise keyframe similarity between two segments."""
    a = np.atleast_2d(keyframes_a)
    b = np.atleast_2d(keyframes_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DataError("context distance needs at least one keyframe per "
                        "segment")
    sims = np.minimum(a[:, None, :], b[None, :, :]).sum(axis=2) / _CHANNELS
    return float(np.clip(1.0 - sims.mean(), 0.0, 1.0))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity; a zero vector is maximally distant (1.0)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 1.0
    if np.array_equal(a, b):
        return 0.0
    return float(np.clip(1.0 - (a @ b) / (na * nb), 0.0, 1.0))


def issue_distance(text_a: np.ndarray, keyframes_a: np.ndarray,
                   text_b: np.ndarray, keyframes_b: np.ndarray,
                   alpha: float) -> float:
    """alpha * cosine text distance + (1 - alpha) * context distance."""
    check_shape(alpha, blend_weight, "alpha")
    text_term = cosine_distance(text_a, text_b) if alpha > 0 else 0.0
    visual_term = (context_distance(keyframes_a, keyframes_b)
                   if alpha < 1 else 0.0)
    return alpha * text_term + (1.0 - alpha) * visual_term


# Keyframe-pair similarities are computed one tile of segment blocks at a
# time; a tile's (rows, cols, D) intermediate stays near this many bytes.
_BLOCK_BYTES = 4 << 20


def _segment_blocks(counts: np.ndarray, max_rows: int) -> list[range]:
    """Consecutive segments holding at most max_rows keyframes together,
    except that every block holds at least one segment."""
    blocks, start, rows = [], 0, 0
    for k, count in enumerate(counts.tolist()):
        if k > start and rows + count > max_rows:
            blocks.append(range(start, k))
            start, rows = k, 0
        rows += count
    blocks.append(range(start, len(counts)))
    return blocks


def _context_values(ids: tuple[str, ...],
                    keyframes: dict[str, np.ndarray]) -> np.ndarray:
    """Context distances of every segment pair, each equal bit for bit to
    `context_distance`: the same minimum-sum over D per keyframe pair,
    then one mean per segment pair over its contiguous ka * kb block."""
    n = len(ids)
    values = np.zeros((n, n))
    if n < 2:
        return values
    stacks = [np.atleast_2d(keyframes[i]) for i in ids]
    counts = np.array([k.shape[0] for k in stacks])
    if not counts.all():
        raise DataError("context distance needs at least one keyframe per "
                        "segment")
    stacked = np.concatenate(stacks)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    # a tile is at most max_rows x max_rows keyframes unless one segment
    # alone has more
    max_rows = math.isqrt(_BLOCK_BYTES // (stacked.itemsize
                                            * stacked.shape[1]))
    blocks = _segment_blocks(counts, max_rows)
    for bi, rows in enumerate(blocks):
        for cols in blocks[bi:]:
            sims = np.minimum(
                stacked[offsets[rows.start]:offsets[rows.stop], None, :],
                stacked[None, offsets[cols.start]:offsets[cols.stop], :]
            ).sum(axis=2) / _CHANNELS
            i, j = np.meshgrid(rows, cols, indexing="ij")
            i, j = i[i < j], j[i < j]
            for ka, kb in set(zip(counts[i].tolist(), counts[j].tolist())):
                pick = (counts[i] == ka) & (counts[j] == kb)
                pi, pj = i[pick], j[pick]
                r = (offsets[pi] - offsets[rows.start])[:, None, None] \
                    + np.arange(ka)[:, None]
                c = (offsets[pj] - offsets[cols.start])[:, None, None] \
                    + np.arange(kb)
                means = sims[r, c].reshape(pi.size, ka * kb).mean(axis=1)
                values[pi, pj] = values[pj, pi] = np.clip(1.0 - means,
                                                          0.0, 1.0)
    return values


def build_context_matrix(ids, keyframes: dict[str, np.ndarray]
                         ) -> DistanceMatrix:
    """Pairwise context distances; d(X, X) = 0 by convention."""
    ids = tuple(ids)
    matrix = DistanceMatrix(ids=ids, values=_context_values(ids, keyframes))
    matrix.validate()
    return matrix


def build_issue_matrix(ids, texts: dict[str, np.ndarray],
                       keyframes: dict[str, np.ndarray],
                       alpha: float) -> DistanceMatrix:
    """Pairwise `issue_distance`: alpha 1 needs no keyframes, alpha 0 no
    texts."""
    check_shape(alpha, blend_weight, "alpha")
    ids = tuple(ids)
    n = len(ids)
    text_term = np.zeros((n, n))
    if alpha > 0:
        for i in range(n):
            for j in range(i + 1, n):
                text_term[i, j] = text_term[j, i] = cosine_distance(
                    texts[ids[i]], texts[ids[j]])
    visual_term = (_context_values(ids, keyframes) if alpha < 1
                   else np.zeros((n, n)))
    matrix = DistanceMatrix(
        ids=ids, values=alpha * text_term + (1.0 - alpha) * visual_term)
    matrix.validate()
    return matrix


def _renumber(ids, raw_labels: dict[str, int]) -> dict[str, int]:
    """Contiguous cluster ids from 0, ordered by smallest member id."""
    members: dict[int, list[str]] = {}
    for item, label in raw_labels.items():
        if label != NOISE:
            members.setdefault(label, []).append(item)
    order = sorted(members, key=lambda lbl: min(members[lbl]))
    remap = {old: new for new, old in enumerate(order)}
    return {item: (remap[lbl] if lbl != NOISE else NOISE)
            for item, lbl in raw_labels.items()}


def dbscan(matrix: DistanceMatrix, eps: float, min_pts: int
           ) -> ClusterAssignment:
    """Density clustering on a precomputed dissimilarity matrix.

    A point's eps-neighborhood includes itself. Core points within eps of
    each other share a cluster; border points attach to the core neighbor
    with the lowest id; the rest is noise.
    """
    check_params("dbscan", {"eps": eps, "min_pts": min_pts}, "dbscan")
    matrix.validate()
    ids = matrix.ids
    n = len(ids)
    d = matrix.values
    within = d <= eps
    core = within.sum(axis=1) >= min_pts
    # connected components over core points, explored in id order
    raw: dict[str, int] = {item: NOISE for item in ids}
    id_order = sorted(range(n), key=lambda i: ids[i])
    component = 0
    seen = np.zeros(n, dtype=bool)
    for start in id_order:
        if not core[start] or seen[start]:
            continue
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            raw[ids[i]] = component
            for j in np.flatnonzero(within[i] & core & ~seen):
                seen[j] = True
                stack.append(int(j))
        component += 1
    for i in range(n):
        if core[i]:
            continue
        core_neighbors = [j for j in np.flatnonzero(within[i]) if core[j]]
        if core_neighbors:
            anchor = min(core_neighbors, key=lambda j: ids[j])
            raw[ids[i]] = raw[ids[anchor]]
    return ClusterAssignment(ids=ids, labels=_renumber(ids, raw),
                             algorithm="dbscan",
                             params={"eps": eps, "min_pts": min_pts})


def optics(matrix: DistanceMatrix, min_pts: int, eps_max: float,
           eps_cut: float) -> ClusterAssignment:
    """OPTICS ordering with reachability capped at eps_max, then a flat
    extraction at eps_cut (DBSCAN-equivalent up to border ties)."""
    check_params("optics", {"min_pts": min_pts, "eps_max": eps_max,
                            "eps_cut": eps_cut}, "optics")
    matrix.validate()
    ids = matrix.ids
    n = len(ids)
    d = matrix.values
    core_dist = np.full(n, np.inf)
    for i in range(n):
        row = np.sort(d[i])  # includes self at distance 0
        if row.size >= min_pts and row[min_pts - 1] <= eps_max:
            core_dist[i] = row[min_pts - 1]

    processed = np.zeros(n, dtype=bool)
    reach = np.full(n, np.inf)
    order: list[int] = []
    id_rank = sorted(range(n), key=lambda i: ids[i])

    def update_seeds(center: int, heap: list):
        if not np.isfinite(core_dist[center]):
            return
        for j in range(n):
            if processed[j] or d[center, j] > eps_max:
                continue
            new_reach = max(core_dist[center], d[center, j])
            if new_reach < reach[j]:
                reach[j] = new_reach
                heapq.heappush(heap, (new_reach, ids[j], j))

    for start in id_rank:
        if processed[start]:
            continue
        processed[start] = True
        order.append(start)
        heap: list = []
        update_seeds(start, heap)
        while heap:
            _, _, j = heapq.heappop(heap)
            if processed[j]:
                continue
            processed[j] = True
            order.append(j)
            update_seeds(j, heap)

    raw: dict[str, int] = {}
    current = None
    next_label = 0
    for i in order:
        if reach[i] > eps_cut:
            if core_dist[i] <= eps_cut:
                current = next_label
                next_label += 1
                raw[ids[i]] = current
            else:
                raw[ids[i]] = NOISE
                current = None
        else:
            raw[ids[i]] = current if current is not None else NOISE
    return ClusterAssignment(
        ids=ids, labels=_renumber(ids, raw), algorithm="optics",
        params={"min_pts": min_pts, "eps_max": eps_max, "eps_cut": eps_cut})


def mean_shift(ids, points: np.ndarray, bandwidth: float, tol: float = 1e-4,
               max_iter: int = 300) -> ClusterAssignment:
    """Flat-kernel mean shift on dense vectors; every point gets a cluster.

    Each point iterates to the mean of the original points within bandwidth
    until it moves less than tol; converged modes closer than bandwidth / 2
    merge. No noise: modes always exist.
    """
    check_params("mean_shift", {"bandwidth": bandwidth}, "mean_shift")
    if tol <= 0 or max_iter < 1:
        raise DataError("tol must be > 0 and max_iter >= 1")
    ids = tuple(ids)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] != len(ids):
        raise DataError("points must be (n, d) matching ids")
    n = points.shape[0]
    modes = np.empty_like(points)
    for i in range(n):
        x = points[i].copy()
        for _ in range(max_iter):
            mask = np.linalg.norm(points - x, axis=1) <= bandwidth
            new = points[mask].mean(axis=0)
            shift = float(np.linalg.norm(new - x))
            x = new
            if shift < tol:
                break
        modes[i] = x
    raw: dict[str, int] = {}
    centers: list[np.ndarray] = []
    for i in sorted(range(n), key=lambda k: ids[k]):
        for ci, center in enumerate(centers):
            if np.linalg.norm(modes[i] - center) <= bandwidth / 2:
                raw[ids[i]] = ci
                break
        else:
            raw[ids[i]] = len(centers)
            centers.append(modes[i])
    return ClusterAssignment(
        ids=ids, labels=_renumber(ids, raw), algorithm="mean_shift",
        params={"bandwidth": bandwidth, "tol": tol, "max_iter": max_iter})


def segment_embedding(keyframes: np.ndarray) -> np.ndarray:
    """Mean keyframe histogram: the vector-space stand-in mean shift needs."""
    kf = np.atleast_2d(keyframes)
    if kf.shape[0] == 0:
        raise DataError("cannot embed a segment with no keyframes")
    return kf.mean(axis=0)


def group_by_context(segment_ids, keyframes: dict[str, np.ndarray],
                     algorithm: str, params: dict) -> ClusterAssignment:
    """Cluster informative segments by visual context, with every parameter
    of `algorithm` given in `params`.

    Density methods run on the pairwise keyframe measure; mean shift runs
    on mean-keyframe-histogram embeddings. Noise becomes singleton contexts
    downstream.
    """
    segment_ids = tuple(segment_ids)
    check_shape(algorithm, set(CLUSTERERS), "clustering algorithm")
    if not segment_ids:
        log.warning("no informative segments; nothing to group")
        return ClusterAssignment(ids=(), labels={}, algorithm=algorithm,
                                 params=params)
    if algorithm == "mean_shift":
        points = np.stack([segment_embedding(keyframes[s])
                           for s in segment_ids])
        return mean_shift(segment_ids, points, **params)
    matrix = build_context_matrix(segment_ids, keyframes)
    if algorithm == "dbscan":
        return dbscan(matrix, **params)
    return optics(matrix, **params)


def _medoids(assignment: ClusterAssignment,
             matrix: DistanceMatrix) -> dict[int, str]:
    """Per-cluster member minimizing summed distance; ties -> lowest id."""
    pos = {item: i for i, item in enumerate(matrix.ids)}
    out: dict[int, str] = {}
    for cid, members in assignment.clusters().items():
        rows = [pos[m] for m in members]
        sub = matrix.values[np.ix_(rows, rows)]
        sums = sub.sum(axis=1)
        best = min(range(len(members)),
                   key=lambda k: (sums[k], members[k]))
        out[cid] = members[best]
    return out


def cluster_issues(segment_ids, texts: dict[str, np.ndarray],
                   keyframes: dict[str, np.ndarray], alpha: float,
                   algorithm: str, params: dict) -> ClusterAssignment:
    """Cluster same-context, same-category segments by specific issue, with
    every parameter of `algorithm` given in `params`.

    For mean shift, segments embed as the concatenation of the
    sqrt(alpha)-scaled unit text vector and the sqrt(1-alpha)-scaled mean
    keyframe histogram, so squared Euclidean gaps track the blended
    distance; density methods use the blended measure itself.
    """
    segment_ids = tuple(segment_ids)
    check_shape(algorithm, set(CLUSTERERS), "clustering algorithm")
    if not segment_ids:
        return ClusterAssignment(ids=(), labels={}, algorithm=algorithm,
                                 params=params)
    matrix = build_issue_matrix(segment_ids, texts, keyframes, alpha)
    if algorithm == "mean_shift":
        embeds = []
        for s in segment_ids:
            text = texts[s]
            norm = np.linalg.norm(text)
            unit = text / norm if norm > 0 else text
            embeds.append(np.concatenate([
                math.sqrt(alpha) * unit,
                math.sqrt(1.0 - alpha) * segment_embedding(keyframes[s])]))
        assignment = mean_shift(segment_ids, np.stack(embeds), **params)
    elif algorithm == "dbscan":
        assignment = dbscan(matrix, **params)
    else:
        assignment = optics(matrix, **params)
    assignment.medoids = _medoids(assignment, matrix)
    assignment.params["alpha"] = alpha
    return assignment
