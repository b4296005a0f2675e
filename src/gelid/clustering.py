"""Context and issue clustering: keyframe distance, blended distance, and
three non-parametric clusterers (DBSCAN, OPTICS, Mean Shift) from scratch.

The context measure is 1 minus the average pairwise histogram intersection
between two segments' keyframes. It is not a metric (average pairwise
self-similarity can fall below 1) so d(X, X) is pinned to 0 and the density
methods consume it as a plain dissimilarity. The issue measure blends
cosine distance on tf-idf text with the context measure.

Both matrices are built as block operations and equal, bit for bit, a loop
over segment pairs in `ids` order. The context kernel yields its distances
one checked tile at a time and visits segments in order of keyframe count,
but averages each pair's keyframe similarities in the order of the segment
that comes first in `ids`, its keyframes the major axis (the orientation
rule). The text term keeps one BLAS dot per pair, because a matrix product
rounds differently.

DBSCAN contexts keep of each tile only the pairs within eps, so they hold
O(n + pairs within eps) memory, never an n x n matrix; OPTICS contexts and
the issue matrices fill a dense matrix from the same tiles.

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
# mean shift's convergence step and iteration cap, recorded in its params
_MEAN_SHIFT_TOL = 1e-4
_MEAN_SHIFT_MAX_ITER = 300

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


def _check_distances(values: np.ndarray) -> None:
    """Distances are finite and lie in [0, 1], up to 1e-12."""
    # a NaN carries through min and max, and an infinity is one of them
    low = np.minimum.reduce(values, axis=None, initial=0.0)
    high = np.maximum.reduce(values, axis=None, initial=0.0)
    if not (np.isfinite(low) and np.isfinite(high)):
        raise DataError("distance matrix has non-finite entries")
    if low < -1e-12 or high > 1 + 1e-12:
        raise DataError("distances must lie in [0, 1]")


@dataclass(frozen=True)
class DistanceMatrix:
    """Checked once, when made: a malformed matrix is a DataError."""

    ids: tuple[str, ...]
    values: np.ndarray  # (n, n) symmetric, zero diagonal, entries in [0, 1]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        n = len(self.ids)
        v = self.values
        if v.shape != (n, n):
            raise DataError(f"distance matrix shape {v.shape} does not "
                            f"match {n} ids")
        _check_distances(v)
        # finite entries, so this is allclose(v, v.T, atol=1e-12, rtol=0)
        if not (np.abs(v - v.T) <= 1e-12).all():
            raise DataError("distance matrix must be symmetric")
        if (np.abs(v.diagonal()) > 1e-12).any():
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


def _cosine_values(vectors) -> np.ndarray:
    """Cosine distance of every vector pair, 1 - a.b / (|a| |b|) clipped to
    [0, 1]: a zero vector is maximally distant (1.0) and equal vectors are
    at 0.0. Each pair's dot product is its own BLAS dot, as for one pair:
    one stacked matmul of (1, d) rows by (d, 1) columns makes that call per
    pair, where one matrix product would round differently. A norm is the
    square root of the vector's dot with itself, as `np.linalg.norm`'s."""
    if not len(vectors):
        return np.zeros((0, 0))
    stacked = np.array(vectors, dtype=float)
    n = len(stacked)
    dots = np.matmul(stacked[:, None, None, :],
                     stacked[None, :, :, None]).reshape(n, n)
    norms = np.sqrt(dots.diagonal())
    zero = (norms == 0)[:, None] | (norms == 0)
    values = np.clip(1.0 - dots / np.where(zero, 1.0, norms[:, None] * norms),
                     0.0, 1.0)
    values[zero] = 1.0
    # equal nonzero vectors share their bytes once + 0.0 turns -0.0 into 0.0
    equal: dict[bytes, list[int]] = {}
    for i in np.flatnonzero(norms != 0).tolist():
        equal.setdefault((stacked[i] + 0.0).tobytes(), []).append(i)
    for members in equal.values():
        values[np.ix_(members, members)] = 0.0
    np.fill_diagonal(values, 0.0)
    return values


# Keyframe-pair similarities are computed one tile of segment blocks at a
# time; a tile's (rows, cols, D) intermediate stays near this many bytes.
# Near a core's L2 cache is fastest: the 407 context segments of the
# benchmark's catalog world took 16.3 ms at 4 MiB, 14.6 ms at 512 KiB and
# 26.6 ms at 64 KiB (2-core x86 VM, NumPy 2.4). Every budget gives the same
# bits, and SMOTE's row blocks share the constant.
_BLOCK_BYTES = 512 << 10


def _segment_blocks(counts: list[int], max_rows: int) -> list[list[range]]:
    """Consecutive segments holding at most max_rows keyframes together,
    except that every block holds at least one segment. Each block is
    given as its runs of equal keyframe count."""
    blocks, cuts, rows = [], [0], 0  # cuts: where the block's runs start
    for k, count in enumerate(counts):
        if k > cuts[0] and rows + count > max_rows:
            blocks.append(cuts + [k])
            cuts, rows = [k], 0
        elif k > cuts[0] and count != counts[k - 1]:
            cuts.append(k)
        rows += count
    blocks.append(cuts + [len(counts)])
    return [[range(a, b) for a, b in zip(block[:-1], block[1:])]
            for block in blocks]


def _block_means(four: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The (na, nb) means of a (na, ka, nb, kb) sub-tile of keyframe
    similarities: each pair's ka * kb block is summed as one contiguous
    row, in the order `axes` gives its last two axes."""
    na, ka, nb, kb = four.shape
    rows = np.ascontiguousarray(four.transpose(axes)).reshape(-1, ka * kb)
    return (rows.sum(axis=1) / (ka * kb)).reshape(na, nb)


def _context_tiles(ids: tuple[str, ...], keyframes: dict[str, np.ndarray]):
    """Context distance of every segment pair, one tile at a time: yields
    (i, j, d), where positions i and j in `ids` broadcast to the shape of
    d, the distances of the segments there. Each unordered pair of
    distinct segments comes once, and each tile is checked as
    `DistanceMatrix.validate` checks a matrix. The distance is 1 minus the
    mean, over every pair of their keyframes, of the histogram
    intersection (the sum of bin minima / 3), clipped to [0, 1].

    Segments are taken in order of keyframe count (a stable sort), so the
    pairs of a run of ka-keyframe segments and a run of kb-keyframe
    segments form one contiguous sub-tile of keyframe similarities, and
    one reshape gives all their means. Orientation rule: a pair's ka * kb
    block is averaged in the order of the segment that comes first in
    `ids`, its keyframes the major axis, as a loop over pairs in `ids`
    order would. The two orders round differently only when both counts
    exceed 1."""
    stacks = [np.atleast_2d(keyframes[i]) for i in ids]
    counts = np.array([k.shape[0] for k in stacks])
    if not counts.all():
        raise DataError("context distance needs at least one keyframe per "
                        "segment")
    if len(ids) < 2:
        return
    order = np.argsort(counts, kind="stable").astype(np.int32)
    counts = counts[order].tolist()
    stacked = np.concatenate([stacks[k] for k in order.tolist()])
    offsets = np.concatenate([[0], np.cumsum(counts)]).tolist()
    # a tile is at most max_rows x max_rows keyframes unless one segment
    # alone has more
    max_rows = math.isqrt(_BLOCK_BYTES // (stacked.itemsize
                                            * stacked.shape[1]))
    blocks = _segment_blocks(counts, max_rows)
    for bi, rows in enumerate(blocks):
        for cols in blocks[bi:]:
            c1 = offsets[cols[-1].stop]
            for a in rows:  # left of a.start is below the diagonal
                r0, r1 = offsets[a.start], offsets[a.stop]
                c0 = offsets[max(a.start, cols[0].start)]
                sims = np.minimum(stacked[r0:r1, None, :],
                                  stacked[None, c0:c1, :]
                                  ).sum(axis=2) / _CHANNELS
                for b in cols:
                    b = range(max(b.start, a.start), b.stop)
                    if not b:
                        continue
                    ka, kb = counts[a.start], counts[b.start]
                    four = sims[:, offsets[b.start] - c0:offsets[b.stop] - c0
                                ].reshape(len(a), ka, len(b), kb)
                    means = _block_means(four, (0, 2, 1, 3))
                    at_a, at_b = order[a.start:a.stop], order[b.start:b.stop]
                    if 1 < ka < kb:
                        # pairs whose column segment comes first in ids;
                        # the stable sort keeps equal counts in ids order
                        flip = at_a[:, None] > at_b[None, :]
                        if flip.any():
                            means = np.where(
                                flip, _block_means(four, (0, 2, 3, 1)),
                                means)
                    d = np.clip(1.0 - means, 0.0, 1.0)
                    _check_distances(d)
                    if b == a:  # a run against itself: above the diagonal
                        i, j = np.nonzero(np.arange(len(a))[:, None]
                                          < np.arange(len(a)))
                        yield at_a[i], at_a[j], d[i, j]
                    else:
                        yield at_a[:, None], at_b[None, :], d


def _context_values(ids: tuple[str, ...],
                    keyframes: dict[str, np.ndarray]) -> np.ndarray:
    """The (n, n) context distance matrix of `_context_tiles`, with a zero
    diagonal."""
    values = np.zeros((len(ids), len(ids)))
    for i, j, d in _context_tiles(ids, keyframes):
        values[i, j] = d
        values[j, i] = d
    return values


def build_context_matrix(ids, keyframes: dict[str, np.ndarray]
                         ) -> DistanceMatrix:
    """Pairwise context distances; d(X, X) = 0 by convention."""
    ids = tuple(ids)
    return DistanceMatrix(ids=ids, values=_context_values(ids, keyframes))


def build_issue_matrix(ids, texts: dict[str, np.ndarray],
                       keyframes: dict[str, np.ndarray],
                       alpha: float) -> DistanceMatrix:
    """Pairwise alpha * cosine text distance + (1 - alpha) * context
    distance: alpha 1 needs no keyframes, alpha 0 no texts."""
    check_shape(alpha, blend_weight, "alpha")
    ids = tuple(ids)
    n = len(ids)
    text_term = (_cosine_values([texts[i] for i in ids]) if alpha > 0
                 else np.zeros((n, n)))
    visual_term = (_context_values(ids, keyframes) if alpha < 1
                   else np.zeros((n, n)))
    return DistanceMatrix(
        ids=ids, values=alpha * text_term + (1.0 - alpha) * visual_term)


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


def _dbscan(ids: tuple[str, ...], indptr: np.ndarray, indices: np.ndarray,
            eps: float, min_pts: int) -> ClusterAssignment:
    """`dbscan` given each point's eps-neighbourhood, itself included:
    point i's neighbours are indices[indptr[i]:indptr[i + 1]]."""
    n = len(ids)
    core = np.diff(indptr) >= min_pts
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
            near = indices[indptr[i]:indptr[i + 1]]
            near = near[core[near] & ~seen[near]]
            seen[near] = True
            stack.extend(near.tolist())
        component += 1
    # each border point joins its core neighbour of lowest id rank
    rank = np.empty(n, dtype=np.intp)
    rank[id_order] = np.arange(n)
    for i in np.flatnonzero(~core).tolist():
        near = indices[indptr[i]:indptr[i + 1]]
        near = near[core[near]]
        if near.size:
            raw[ids[i]] = raw[ids[near[rank[near].argmin()]]]
    return ClusterAssignment(ids=ids, labels=_renumber(ids, raw),
                             algorithm="dbscan",
                             params={"eps": eps, "min_pts": min_pts})


def _indptr(sources: np.ndarray, n: int) -> np.ndarray:
    """Offsets into `sources` sorted: point i's run is out[i]:out[i + 1]."""
    return np.concatenate([[0], np.cumsum(np.bincount(sources,
                                                      minlength=n))])


def dbscan(matrix: DistanceMatrix, eps: float, min_pts: int
           ) -> ClusterAssignment:
    """Density clustering on a precomputed dissimilarity matrix.

    A point's eps-neighborhood includes itself. Core points within eps of
    each other share a cluster; border points attach to the core neighbor
    with the lowest id; the rest is noise.
    """
    check_params("dbscan", {"eps": eps, "min_pts": min_pts}, "dbscan")
    # row-major, so each point's neighbours are one run of `near`
    points, near = np.nonzero(matrix.values <= eps)
    return _dbscan(matrix.ids, _indptr(points, len(matrix.ids)), near, eps,
                   min_pts)


def _context_dbscan(ids: tuple[str, ...], keyframes: dict[str, np.ndarray],
                    eps: float, min_pts: int) -> ClusterAssignment:
    """`dbscan` on the context measure, keeping of each tile only the
    pairs within eps: memory is O(n + pairs within eps), never n x n."""
    check_params("dbscan", {"eps": eps, "min_pts": min_pts}, "dbscan")
    n = len(ids)
    firsts, seconds = [], []
    for i, j, d in _context_tiles(ids, keyframes):
        within = d <= eps
        firsts.append(np.broadcast_to(i, d.shape)[within])
        seconds.append(np.broadcast_to(j, d.shape)[within])
    # each pair in both directions, and each point in its own neighbourhood
    itself = [np.arange(n, dtype=np.int32)]
    points = np.concatenate(firsts + seconds + itself)
    near = np.concatenate(seconds + firsts + itself)
    # each buffer goes once read, so the sort's int64 order sets the peak
    del firsts, seconds
    by_point = np.argsort(points)
    indptr = _indptr(points, n)
    del points
    near = near[by_point]
    del by_point
    return _dbscan(ids, indptr, near, eps, min_pts)


def optics(matrix: DistanceMatrix, min_pts: int, eps_max: float,
           eps_cut: float) -> ClusterAssignment:
    """OPTICS ordering with reachability capped at eps_max, then a flat
    extraction at eps_cut (DBSCAN-equivalent up to border ties)."""
    check_params("optics", {"min_pts": min_pts, "eps_max": eps_max,
                            "eps_cut": eps_cut}, "optics")
    ids = matrix.ids
    n = len(ids)
    d = matrix.values
    core_dist = np.full(n, np.inf)
    if n >= min_pts:
        # each row includes self at distance 0
        kth = np.partition(d, min_pts - 1, axis=1)[:, min_pts - 1]
        core_dist = np.where(kth <= eps_max, kth, np.inf)

    processed = np.zeros(n, dtype=bool)
    reach = np.full(n, np.inf)
    order: list[int] = []
    id_rank = sorted(range(n), key=lambda i: ids[i])

    def update_seeds(center: int, heap: list):
        """Lower the reachability of every unprocessed point within eps_max
        of a core point, and push the improved ones in index order."""
        if not np.isfinite(core_dist[center]):
            return
        new_reach = np.maximum(core_dist[center], d[center])
        better = np.flatnonzero(~processed & (d[center] <= eps_max)
                                & (new_reach < reach))
        reach[better] = new_reach[better]
        for j, r in zip(better.tolist(), new_reach[better].tolist()):
            heapq.heappush(heap, (r, ids[j], j))

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


def mean_shift(ids, points: np.ndarray, bandwidth: float
               ) -> ClusterAssignment:
    """Flat-kernel mean shift on dense vectors; every point gets a cluster.

    Each point iterates to the mean of the original points within bandwidth
    until it moves less than _MEAN_SHIFT_TOL, for at most
    _MEAN_SHIFT_MAX_ITER steps; converged modes closer than bandwidth / 2
    merge. No noise: modes always exist.
    """
    check_params("mean_shift", {"bandwidth": bandwidth}, "mean_shift")
    ids = tuple(ids)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] != len(ids):
        raise DataError("points must be (n, d) matching ids")
    n = points.shape[0]
    modes = np.empty_like(points)
    for i in range(n):
        x = points[i].copy()
        for _ in range(_MEAN_SHIFT_MAX_ITER):
            mask = np.linalg.norm(points - x, axis=1) <= bandwidth
            new = points[mask].mean(axis=0)
            shift = float(np.linalg.norm(new - x))
            x = new
            if shift < _MEAN_SHIFT_TOL:
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
        params={"bandwidth": bandwidth, "tol": _MEAN_SHIFT_TOL,
                "max_iter": _MEAN_SHIFT_MAX_ITER})


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
    if algorithm == "dbscan":
        return _context_dbscan(segment_ids, keyframes, **params)
    return optics(build_context_matrix(segment_ids, keyframes), **params)


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
