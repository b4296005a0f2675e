import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelid import clustering
from gelid.clustering import (NOISE, DistanceMatrix, build_context_matrix,
                              build_issue_matrix, cluster_issues, dbscan,
                              group_by_context, mean_shift, optics,
                              segment_embedding)
from gelid.config import RunConfig
from gelid.errors import DataError
from gelid.stats import Partition, mojo_fm


def _hist(dominant, value=1.0):
    h = np.zeros(48)
    for c in range(3):
        h[c * 16 + dominant] = value
    return h


BLACK = _hist(0)
WHITE = _hist(15)


# --- distances ---------------------------------------------------------------

def context_distance(keyframes_a, keyframes_b):
    """The context distance of two segments, from the matrix kernel."""
    return build_context_matrix(["a", "b"], {"a": keyframes_a,
                                             "b": keyframes_b}).values[0, 1]


def issue_distance(text_a, keyframes_a, text_b, keyframes_b, alpha):
    """The issue distance of two segments, from the matrix kernel."""
    return build_issue_matrix(["a", "b"], {"a": text_a, "b": text_b},
                              {"a": keyframes_a, "b": keyframes_b},
                              alpha).values[0, 1]


def test_identical_keyframes_distance_zero():
    assert context_distance(np.array([BLACK]), np.array([BLACK])) == 0.0


def test_black_vs_white_distance_one():
    assert context_distance(np.array([BLACK]), np.array([WHITE])) == 1.0


def test_mixed_keyframes_average_pairwise():
    # pairs: (black, black) sim 1; (black, white) sim 0 -> distance 0.5
    a = np.array([BLACK])
    b = np.array([BLACK, WHITE])
    assert context_distance(a, b) == 0.5


def test_histogram_intersection_bounds():
    # one keyframe each: the distance is 1 minus their intersection
    assert 1.0 - context_distance(BLACK, BLACK) == 1.0
    assert 1.0 - context_distance(BLACK, WHITE) == 0.0


def test_context_distance_requires_keyframes():
    with pytest.raises(DataError):
        context_distance(np.zeros((0, 48)), np.array([BLACK]))


def test_issue_distance_alpha_one_is_cosine():
    ta, tb = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    got = issue_distance(ta, np.array([BLACK]), tb, np.array([WHITE]),
                         alpha=1.0)
    assert got == 1.0 - 1.0 / math.sqrt(2.0)


def test_issue_distance_blend_arithmetic():
    # text distance 0.4, visual distance 0.6, alpha 0.5 -> blended 0.5
    ta = np.array([1.0, 0.0])
    tb = np.array([0.6, 0.8])  # cosine similarity 0.6 -> text distance 0.4
    a_kf = np.array([0.6 * _hist(0) + 0.4 * _hist(1)])  # intersection 0.4
    b_kf = np.array([_hist(1)])
    assert issue_distance(ta, a_kf, tb, b_kf, alpha=1.0) == pytest.approx(0.4)
    assert context_distance(a_kf, b_kf) == pytest.approx(0.6)
    got = issue_distance(ta, a_kf, tb, b_kf, alpha=0.5)
    assert got == pytest.approx(0.5)


def test_issue_distance_zero_text_vector_is_max_text_distance():
    ta = np.zeros(3)
    tb = np.array([1.0, 0.0, 0.0])
    got = issue_distance(ta, np.array([BLACK]), tb, np.array([BLACK]),
                         alpha=1.0)
    assert got == 1.0


def test_identical_segments_issue_distance_zero():
    t = np.array([0.5, 0.5])
    kf = np.array([BLACK])
    assert issue_distance(t, kf, t, kf, alpha=0.5) == 0.0


# --- distance matrices ----------------------------------------------------------

def test_context_matrix_valid_and_zero_diagonal():
    keyframes = {"a": np.array([BLACK]), "b": np.array([WHITE]),
                 "c": np.array([BLACK, WHITE])}
    matrix = build_context_matrix(["a", "b", "c"], keyframes)
    matrix.validate()
    assert matrix.values[0, 0] == 0.0
    assert matrix.values[0, 1] == 1.0
    assert matrix.values[0, 2] == 0.5


@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_random_context_matrices_always_valid(n_segments, seed):
    rng = np.random.default_rng(seed)
    keyframes = {}
    for i in range(n_segments):
        k = int(rng.integers(1, 4))
        raw = rng.random((k, 3, 16))
        keyframes[f"s{i}"] = (raw / raw.sum(axis=2, keepdims=True)).reshape(
            k, 48)
    matrix = build_context_matrix(sorted(keyframes), keyframes)
    matrix.validate()  # symmetry, zero diagonal, [0, 1], finite


@pytest.mark.parametrize("values,message", [
    (np.zeros((2, 3)), "does not match 2 ids"),
    ([[0.0, np.nan], [np.nan, 0.0]], "non-finite"),
    ([[0.0, 1.5], [1.5, 0.0]], r"must lie in \[0, 1\]"),
    ([[0.0, 0.2], [0.3, 0.0]], "symmetric"),
    ([[0.1, 0.2], [0.2, 0.0]], "diagonal"),
], ids=["shape", "nan", "above_one", "asymmetric", "diagonal"])
def test_malformed_distance_matrix_is_refused_when_made(values, message):
    with pytest.raises(DataError, match=message):
        DistanceMatrix(ids=("a", "b"), values=np.array(values, dtype=float))


# --- dbscan -----------------------------------------------------------------------

def _matrix(ids, table):
    return DistanceMatrix(ids=tuple(ids), values=np.array(table, dtype=float))


def test_dbscan_two_tight_pairs():
    # hand distance table: a-b close, c-d close, pairs far apart
    m = _matrix("abcd", [[0.0, 0.1, 0.9, 0.9],
                         [0.1, 0.0, 0.9, 0.9],
                         [0.9, 0.9, 0.0, 0.1],
                         [0.9, 0.9, 0.1, 0.0]])
    out = dbscan(m, eps=0.2, min_pts=2)
    assert out.clusters() == {0: ["a", "b"], 1: ["c", "d"]}
    assert out.noise() == []


def test_dbscan_eps_below_every_distance_is_all_noise():
    m = _matrix("abc", [[0.0, 0.5, 0.6], [0.5, 0.0, 0.7], [0.6, 0.7, 0.0]])
    out = dbscan(m, eps=0.1, min_pts=2)
    assert out.noise() == ["a", "b", "c"]
    assert out.clusters() == {}


def test_dbscan_min_pts_one_gives_eps_components():
    m = _matrix("abc", [[0.0, 0.3, 0.9], [0.3, 0.0, 0.9], [0.9, 0.9, 0.0]])
    out = dbscan(m, eps=0.4, min_pts=1)
    assert out.clusters() == {0: ["a", "b"], 1: ["c"]}


def test_dbscan_border_point_attaches_to_lowest_id_core():
    # b and d are cores of two clusters; x is border-reachable from both
    m = _matrix(["b", "c", "x", "d", "e"], [
        [0.0, 0.05, 0.2, 0.9, 0.9],
        [0.05, 0.0, 0.9, 0.9, 0.9],
        [0.2, 0.9, 0.0, 0.2, 0.9],
        [0.9, 0.9, 0.2, 0.0, 0.05],
        [0.9, 0.9, 0.9, 0.05, 0.0]])
    out = dbscan(m, eps=0.21, min_pts=3)
    assert out.labels["x"] == out.labels["b"]  # "b" < "d"


def test_dbscan_border_anchor_is_lowest_id_not_first_row():
    # cores "d" (row 0) and "b" (row 4) both reach border point "x"
    ids = ["d", "c", "f", "x", "b", "e", "g"]
    table = np.full((7, 7), 0.9)
    for group in ([0, 1, 2], [4, 5, 6]):
        table[np.ix_(group, group)] = 0.05
    table[3, [0, 4]] = table[[0, 4], 3] = 0.2
    np.fill_diagonal(table, 0.0)
    out = dbscan(_matrix(ids, table), eps=0.21, min_pts=4)
    assert out.labels["x"] == out.labels["b"] != out.labels["d"]


def test_dbscan_permutation_invariance():
    rng = np.random.default_rng(8)
    n = 10
    base = rng.random((n, 2))
    ids = [f"s{i}" for i in range(n)]
    dist = np.sqrt(((base[:, None] - base[None, :]) ** 2).sum(-1))
    dist = np.clip(dist / dist.max(), 0, 1)
    np.fill_diagonal(dist, 0.0)
    m1 = DistanceMatrix(ids=tuple(ids), values=dist)
    order = rng.permutation(n)
    m2 = DistanceMatrix(ids=tuple(ids[i] for i in order),
                        values=dist[np.ix_(order, order)])
    out1 = dbscan(m1, eps=0.35, min_pts=3)
    out2 = dbscan(m2, eps=0.35, min_pts=3)
    assert out1.labels == out2.labels
    if out1.clusters():
        pa = Partition.from_mapping({k: v for k, v in out1.labels.items()
                                     if v != NOISE})
        pb = Partition.from_mapping({k: v for k, v in out2.labels.items()
                                     if v != NOISE})
        if pa.n_objects >= 2:
            assert mojo_fm(pa, pb) == 100.0
            assert mojo_fm(pb, pa) == 100.0


# --- optics ------------------------------------------------------------------------

def test_optics_matches_dbscan_on_planted_pairs():
    m = _matrix("abcd", [[0.0, 0.1, 0.9, 0.9],
                         [0.1, 0.0, 0.9, 0.9],
                         [0.9, 0.9, 0.0, 0.1],
                         [0.9, 0.9, 0.1, 0.0]])
    d_out = dbscan(m, eps=0.2, min_pts=2)
    o_out = optics(m, min_pts=2, eps_max=1.0, eps_cut=0.2)
    assert o_out.clusters() == d_out.clusters()
    pa = Partition.from_mapping(d_out.labels)
    pb = Partition.from_mapping(o_out.labels)
    assert mojo_fm(pa, pb) == 100.0


def test_optics_tiny_eps_cut_all_noise():
    m = _matrix("abc", [[0.0, 0.3, 0.6], [0.3, 0.0, 0.5], [0.6, 0.5, 0.0]])
    out = optics(m, min_pts=2, eps_max=1.0, eps_cut=1e-6)
    assert out.noise() == ["a", "b", "c"]


def test_optics_single_point_is_noise():
    m = _matrix("a", [[0.0]])
    out = optics(m, min_pts=2, eps_max=1.0, eps_cut=0.5)
    assert out.noise() == ["a"]


def test_optics_core_and_noise_sets_match_dbscan_randomized():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        pts = rng.random((n, 2))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        dist = np.clip(dist / max(dist.max(), 1e-9), 0, 1)
        np.fill_diagonal(dist, 0.0)
        dist = (dist + dist.T) / 2
        ids = tuple(f"s{i}" for i in range(n))
        m = DistanceMatrix(ids=ids, values=dist)
        eps = float(rng.uniform(0.05, 0.6))
        min_pts = int(rng.integers(1, 4))
        d_out = dbscan(m, eps=eps, min_pts=min_pts)
        o_out = optics(m, min_pts=min_pts, eps_max=1.0, eps_cut=eps)
        # core points agree exactly; border points may differ
        within = dist <= eps
        core = within.sum(axis=1) >= min_pts
        for i, sid in enumerate(ids):
            if core[i]:
                assert o_out.labels[sid] != NOISE
                d_members = {s for s, lbl in d_out.labels.items()
                             if lbl == d_out.labels[sid]}
                o_members = {s for s, lbl in o_out.labels.items()
                             if lbl == o_out.labels[sid]}
                d_core = {s for s in d_members if core[ids.index(s)]}
                o_core = {s for s in o_members if core[ids.index(s)]}
                assert d_core == o_core
        # dbscan noise is optics noise; extra optics noise is only borders
        d_noise, o_noise = set(d_out.noise()), set(o_out.noise())
        assert d_noise <= o_noise
        for sid in o_noise - d_noise:
            assert not core[ids.index(sid)]
            assert d_out.labels[sid] != NOISE


# --- mean shift ----------------------------------------------------------------------

def test_mean_shift_identical_points_single_cluster():
    pts = np.zeros((4, 3))
    out = mean_shift(["a", "b", "c", "d"], pts, bandwidth=0.5)
    assert out.clusters() == {0: ["a", "b", "c", "d"]}
    assert out.noise() == []


def test_mean_shift_two_far_blobs():
    rng = np.random.default_rng(3)
    blob1 = rng.normal(0.0, 0.01, size=(5, 2))
    blob2 = rng.normal(5.0, 0.01, size=(5, 2))
    ids = [f"s{i}" for i in range(10)]
    out = mean_shift(ids, np.vstack([blob1, blob2]), bandwidth=0.5)
    clusters = out.clusters()
    assert len(clusters) == 2
    assert clusters[0] == ids[:5]
    assert clusters[1] == ids[5:]


def test_mean_shift_single_point():
    out = mean_shift(["only"], np.array([[1.0, 2.0]]), bandwidth=1.0)
    assert out.clusters() == {0: ["only"]}


def test_mean_shift_rejects_bad_bandwidth():
    with pytest.raises(DataError):
        mean_shift(["a"], np.zeros((1, 2)), bandwidth=0.0)


def test_mean_shift_modes_are_fixed_points():
    rng = np.random.default_rng(9)
    pts = np.vstack([rng.normal(0, 0.05, size=(6, 2)),
                     rng.normal(3, 0.05, size=(6, 2))])
    ids = [f"s{i}" for i in range(12)]
    bandwidth, tol = 0.5, clustering._MEAN_SHIFT_TOL
    out = mean_shift(ids, pts, bandwidth=bandwidth)
    # recompute each cluster's mode by one more flat-kernel step
    for cid, members in out.clusters().items():
        rows = [ids.index(m) for m in members]
        mode = pts[rows].mean(axis=0)
        mask = np.linalg.norm(pts - mode, axis=1) <= bandwidth
        assert np.linalg.norm(pts[mask].mean(axis=0) - mode) < tol * 10


# --- grouping entry points --------------------------------------------------------------

def test_group_by_context_identity():
    out = group_by_context(["s1"], {"s1": np.array([BLACK])},
                           algorithm="dbscan", params={"eps": 0.2,
                                                       "min_pts": 1})
    assert out.clusters() == {0: ["s1"]}


def test_group_by_context_identical_segments_share_context():
    keyframes = {"s1": np.array([BLACK]), "s2": np.array([BLACK])}
    out = group_by_context(["s1", "s2"], keyframes, algorithm="dbscan",
                           params={"eps": 0.2, "min_pts": 1})
    assert out.clusters() == {0: ["s1", "s2"]}


def test_group_by_context_empty_warns(caplog):
    with caplog.at_level("WARNING"):
        out = group_by_context([], {}, algorithm="dbscan",
                               params={"eps": 0.3, "min_pts": 3})
    assert out.labels == {}


def _planted_scenes(n_scenes=3, per_scene=4, seed=0):
    rng = np.random.default_rng(seed)
    keyframes = {}
    truth = {}
    for scene in range(n_scenes):
        base = np.zeros((3, 16))
        base[:, scene * 3] = 1.0
        for i in range(per_scene):
            noise = rng.random((3, 16)) * 0.02
            hist = base + noise
            hist /= hist.sum(axis=1, keepdims=True)
            sid = f"scene{scene}_seg{i}"
            keyframes[sid] = hist.reshape(1, 48)
            truth[sid] = scene
    return keyframes, truth


@pytest.mark.parametrize("algorithm", ["dbscan", "optics", "mean_shift"])
def test_group_by_context_recovers_planted_scenes(algorithm):
    keyframes, truth = _planted_scenes()
    out = group_by_context(
        sorted(keyframes), keyframes, algorithm=algorithm,
        params=RunConfig(
            context_algorithm=algorithm).cluster_params("context"))
    assert len(out.clusters()) == 3
    got = Partition.from_mapping(out.labels)
    want = Partition.from_mapping(truth)
    assert mojo_fm(got, want) == 100.0


# --- issue clustering ---------------------------------------------------------------------

def test_cluster_issues_single_segment_is_its_own_medoid():
    texts = {"s1": np.array([1.0, 0.0])}
    keyframes = {"s1": np.array([BLACK])}
    out = cluster_issues(["s1"], texts, keyframes, alpha=0.5,
                         algorithm="dbscan",
                         params={"eps": 0.3, "min_pts": 1})
    assert out.clusters() == {0: ["s1"]}
    assert out.medoids[0] == "s1"


def test_cluster_issues_duplicate_pair_one_cluster():
    texts = {"s1": np.array([1.0, 0.0]), "s2": np.array([1.0, 0.0])}
    keyframes = {"s1": np.array([BLACK]), "s2": np.array([BLACK])}
    out = cluster_issues(["s1", "s2"], texts, keyframes, alpha=0.5,
                         algorithm="dbscan",
                         params={"eps": 0.3, "min_pts": 1})
    assert out.clusters() == {0: ["s1", "s2"]}
    assert out.medoids[0] == "s1"  # tie -> lowest segment id


def test_cluster_issues_two_topics_two_clusters():
    texts = {
        "s1": np.array([1.0, 0.0, 0.0]), "s2": np.array([0.9, 0.1, 0.0]),
        "s3": np.array([0.0, 0.0, 1.0]), "s4": np.array([0.0, 0.1, 0.9]),
    }
    keyframes = {"s1": np.array([BLACK]), "s2": np.array([BLACK]),
                 "s3": np.array([WHITE]), "s4": np.array([WHITE])}
    out = cluster_issues(sorted(texts), texts, keyframes, alpha=0.5,
                         algorithm="dbscan",
                         params={"eps": 0.3, "min_pts": 1})
    assert out.clusters() == {0: ["s1", "s2"], 1: ["s3", "s4"]}


def test_cluster_issues_medoid_minimizes_summed_distance():
    # s2 sits between s1 and s3 in text space -> medoid
    texts = {"s1": np.array([1.0, 0.0]),
             "s2": np.array([0.9, 0.45]),
             "s3": np.array([0.5, 0.87])}
    keyframes = {k: np.array([BLACK]) for k in texts}
    out = cluster_issues(sorted(texts), texts, keyframes, alpha=1.0,
                         algorithm="dbscan",
                         params={"eps": 0.9, "min_pts": 1})
    assert out.clusters() == {0: ["s1", "s2", "s3"]}
    assert out.medoids[0] == "s2"


def test_segment_embedding_is_mean_of_keyframes():
    kf = np.stack([BLACK, WHITE])
    assert np.allclose(segment_embedding(kf), (BLACK + WHITE) / 2)
