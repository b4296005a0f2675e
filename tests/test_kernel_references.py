"""The vectorized kernels against plain loop references.

Each reference is the straightforward loop over frames, cues, probes,
segment pairs or split thresholds that the vectorized code replaced. The
vectorized versions must agree exactly (==, not a tolerance) on random
tracks, transcripts and keyframe sets, including empty tracks, 0- and
1-frame windows, windows that reach past either end of the track, windows
longer than the track, cues that straddle a segment boundary, cue
midpoints and probes on a segment boundary, identical segments, zero text
vectors and distance matrices computed one segment block at a time.
Forest trees must serialize to the same JSON, on tied, adjacent-float,
constant, overflowing and single-class columns. The softmax and the
logistic and feed-forward training loops must give the same bits, on one
row, all-equal logits, logits far enough apart that exp underflows to 0,
absent classes, zero or one step and no L2 penalty.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gelid import clustering
from gelid.clustering import (build_context_matrix, build_issue_matrix,
                              cosine_distance)
from gelid.errors import DataError
from gelid.features import (BLANK_LUMINANCE, cue_columns, speech_features,
                            video_features)
from gelid.frames import VideoTrack, read_descriptor_csv, write_descriptor_csv
from gelid import models
from gelid.models import (KIND_FFN, KIND_LOGISTIC, LABEL_ORDER, N_LABELS,
                          _gini, _grow_tree, _leaf, _softmax, _train_logistic,
                          logistic_loss_and_grad)
from gelid import pipeline
from gelid.pipeline import keyframe_lookup, match_probes
from gelid.segmentation import (CutPoint, SegmenterConfig, Segment,
                                ShotTransition, SnapRule, adaptive_thresholds,
                                build_segments, detect_shot_transitions)
from gelid.subtitles import Cue, Transcript

# --- loop references ---------------------------------------------------------


def ref_video_values(segment, track):
    inside = [f for f in track.frames
              if segment.start_ms <= f.timestamp_ms < segment.end_ms]
    n = len(inside)
    if n >= 2:
        hists = np.stack([f.histogram for f in inside])
        motion = np.abs(np.diff(hists, axis=0)).sum(axis=1)
        motion_mean, motion_std = float(motion.mean()), float(motion.std())
        had_video = 1.0
    else:
        motion_mean = motion_std = 0.0
        had_video = 0.0
    luminance = np.array([f.luminance_mean for f in inside])
    return np.array([
        segment.duration_ms / 1000.0, float(n), motion_mean, motion_std,
        float(luminance.mean()) if n else 0.0,
        float((luminance < BLANK_LUMINANCE).mean()) if n else 0.0,
        had_video])


def ref_speech_values(segment, transcript):
    duration_ms = segment.duration_ms
    overlap_ms = words = n_cues = 0
    for cue in transcript.cues:
        lo = max(cue.start_ms, segment.start_ms)
        hi = min(cue.end_ms, segment.end_ms)
        if hi <= lo:
            continue
        n_cues += 1
        overlap_ms += hi - lo
        words += len(cue.text.split())
    density = overlap_ms / duration_ms if duration_ms else 0.0
    wps = words / (duration_ms / 1000.0) if duration_ms else 0.0
    return np.array([density, wps, float(n_cues)])


def ref_thresholds(dists, window, alpha):
    out = [np.nan]
    for i in range(1, len(dists)):
        w = dists[max(0, i - window):i]
        out.append(w.mean() + alpha * w.std())
    return np.array(out[:len(dists)])


def ref_shot_transitions(track, cfg):
    frames = track.frames
    if len(frames) < 2:
        return []
    hists = np.stack([f.histogram for f in frames])
    stamps = [f.timestamp_ms for f in frames]
    dists = np.abs(np.diff(hists, axis=0)).sum(axis=1)
    transitions, prev_ms = [], None
    for i in range(1, len(dists)):
        window = dists[max(0, i - cfg.window):i]
        if dists[i] <= window.mean() + cfg.alpha * window.std():
            continue
        ts = stamps[i + 1]
        if prev_ms is not None and ts - prev_ms < cfg.min_shot_ms:
            continue
        transitions.append(ShotTransition(ts, float(dists[i])))
        prev_ms = ts
    return transitions


def ref_keyframe_lookup(segments, tracks):
    lookup = {}
    for seg in segments:
        by_ts = {f.timestamp_ms: f.histogram
                 for f in tracks[seg.video_id].frames}
        rows = [by_ts[ts] for ts in seg.keyframe_timestamps if ts in by_ts]
        if rows:
            lookup[seg.segment_id] = np.stack(rows)
    return lookup


def ref_segment_cues(segment, transcript):
    return tuple(c.index for c in transcript.cues
                 if segment.start_ms <= (c.start_ms + c.end_ms) // 2
                 < segment.end_ms)


def ref_match_probes(probes, segments):
    """The labels, and the arguments of every warning logged."""
    labels, warnings = {}, []
    for probe in probes:
        hit = next((s for s in segments
                    if s.video_id == probe["video_id"]
                    and s.start_ms <= probe["at_ms"] < s.end_ms), None)
        if hit is None:
            warnings.append(("probe at %s ms in video %s matches no segment",
                             probe["at_ms"], probe["video_id"]))
            continue
        previous = labels.get(hit.segment_id)
        if previous is not None and previous != probe["label"]:
            warnings.append(("segment %s labeled both %s and %s by probes; "
                             "keeping the later (%s)", hit.segment_id,
                             previous, probe["label"], probe["label"]))
        labels[hit.segment_id] = probe["label"]
    return labels, warnings


def ref_context_matrix(ids, keyframes):
    """Per segment pair: 1 minus the mean histogram intersection (the sum
    of bin minima / 3) over every pair of their keyframes, clipped to
    [0, 1]."""
    n = len(ids)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a = np.atleast_2d(keyframes[ids[i]])
            b = np.atleast_2d(keyframes[ids[j]])
            sims = np.minimum(a[:, None, :], b[None, :, :]).sum(axis=2) / 3
            values[i, j] = values[j, i] = np.clip(1.0 - sims.mean(), 0.0, 1.0)
    return values


def ref_issue_matrix(ids, texts, keyframes, alpha):
    """Per segment pair: alpha * the cosine distance of their texts
    + (1 - alpha) * their context distance, each term computed only when
    its weight is not 0."""
    n = len(ids)
    visual = (ref_context_matrix(ids, keyframes) if alpha < 1
              else np.zeros((n, n)))
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            text = (cosine_distance(texts[ids[i]], texts[ids[j]])
                    if alpha > 0 else 0.0)
            values[i, j] = values[j, i] = (alpha * text
                                           + (1.0 - alpha) * visual[i, j])
    return values


def ref_grow_tree(x, y_idx, rng, min_leaf, max_depth, depth=0):
    n, d = x.shape
    counts = np.bincount(y_idx, minlength=N_LABELS)
    if (n < min_leaf or np.count_nonzero(counts) <= 1
            or (max_depth is not None and depth >= max_depth)):
        return _leaf(y_idx)
    n_candidates = max(1, math.isqrt(d) + (0 if math.isqrt(d) ** 2 == d else 1))
    features = rng.choice(d, size=min(n_candidates, d), replace=False)
    parent_gini = _gini(counts)
    best = None  # (gain, feature, threshold)
    for f in sorted(features.tolist()):
        values = np.unique(x[:, f])
        if values.size < 2:
            continue
        thresholds = (values[:-1] + values[1:]) / 2.0
        for threshold in thresholds:
            mask = x[:, f] <= threshold
            n_left = int(mask.sum())
            if n_left == 0 or n_left == n:
                continue
            left = np.bincount(y_idx[mask], minlength=N_LABELS)
            right = counts - left
            weighted = (n_left * _gini(left)
                        + (n - n_left) * _gini(right)) / n
            gain = parent_gini - weighted
            if best is None or gain > best[0] + 1e-15:
                best = (gain, f, float(threshold))
    if best is None or best[0] <= 1e-15:
        return _leaf(y_idx)
    _, f, threshold = best
    mask = x[:, f] <= threshold
    return {
        "feature": int(f),
        "threshold": threshold,
        "left": ref_grow_tree(x[mask], y_idx[mask], rng, min_leaf, max_depth,
                              depth + 1),
        "right": ref_grow_tree(x[~mask], y_idx[~mask], rng, min_leaf,
                               max_depth, depth + 1),
    }


def ref_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ref_train_logistic(x, y_idx, hyper, seed):
    """One step on `logistic_loss_and_grad` at a time, with `ref_softmax`."""
    d = x.shape[1]
    wb = np.zeros((d + 1, N_LABELS))
    lr = hyper["learning_rate"]
    with mock.patch.object(models, "_softmax", ref_softmax):
        for _ in range(hyper["iterations"]):
            _, grad = logistic_loss_and_grad(wb, x, y_idx, hyper["l2"])
            wb -= lr * grad
    return {"weights": wb[:-1], "bias": wb[-1]}


# --- random inputs -----------------------------------------------------------


def _random_track(seed, n_frames, repeat=0.5, bins=4):
    """Frames 1..400 ms apart; scenes repeat a histogram, so many distance
    windows are all-zero or tie their threshold."""
    rng = np.random.default_rng(seed)
    stamps = np.cumsum(rng.integers(1, 400, size=n_frames)) - 1
    hists = np.empty((n_frames, 3 * bins))
    for i in range(n_frames):
        if i and rng.random() < repeat:
            hists[i] = hists[i - 1]
        else:
            raw = rng.integers(0, 5, size=(3, bins)).astype(float) + 0.5
            hists[i] = (raw / raw.sum(axis=1, keepdims=True)).ravel()
    luminance = rng.choice([0.0, 0.01, 0.04, 0.05, 0.5, 1.0], size=n_frames)
    duration = int(stamps[-1]) + 1 if n_frames else 1000
    return VideoTrack("vid", stamps.astype(np.int64), hists, luminance,
                      duration)


def _windows(rng, track, count):
    """Segments around and beyond the frames, some empty or one frame."""
    top = int(track.duration_ms) + 500
    out = []
    for k in range(count):
        start = int(rng.integers(-500, top))
        end = start + int(rng.choice([0, 1, int(rng.integers(1, top + 1))]))
        if track.timestamps_ms.size and k % 4 == 0:
            at = int(rng.choice(track.timestamps_ms))
            start, end = at, at + 1  # exactly one frame
        out.append(Segment(f"vid_{k:04d}", "vid", start, end))
    return out


_tracks = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 60),
                    st.sampled_from([0.0, 0.5, 0.9]))


@given(_tracks)
@settings(max_examples=80, deadline=None)
def test_video_features_match_loop_reference(spec):
    seed, n_frames, repeat = spec
    track = _random_track(seed, n_frames, repeat)
    rng = np.random.default_rng(seed + 1)
    for segment in _windows(rng, track, 12):
        values = video_features(segment, track)
        assert values.tobytes() == ref_video_values(segment, track).tobytes()


@given(st.lists(st.floats(0, 10, allow_nan=False), max_size=200)
       .map(np.array), st.integers(1, 150), st.floats(0.01, 10))
@settings(max_examples=150, deadline=None)
def test_adaptive_thresholds_match_loop_reference(dists, window, alpha):
    assert adaptive_thresholds(dists, window, alpha).tobytes() == \
        ref_thresholds(dists, window, alpha).tobytes()


@given(_tracks, st.integers(1, 80), st.sampled_from([0.5, 1.0, 3.0]),
       st.sampled_from([0, 300, 2000]))
@settings(max_examples=120, deadline=None)
def test_shot_transitions_match_loop_reference(spec, window, alpha,
                                               min_shot_ms):
    track = _random_track(*spec)
    cfg = SegmenterConfig(window=window, alpha=alpha, min_shot_ms=min_shot_ms)
    assert detect_shot_transitions(track, cfg) == \
        ref_shot_transitions(track, cfg)


_cue_specs = st.lists(
    st.tuples(st.integers(0, 20000), st.integers(0, 6000),
              st.integers(0, 6)), max_size=25)


@given(_cue_specs, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_speech_features_match_loop_reference(specs, seed):
    cues = [Cue(i + 1, start, start + length, " ".join(["w"] * words))
            for i, (start, length, words) in enumerate(specs)]
    transcript = Transcript("vid", cues)
    columns = cue_columns(transcript)
    rng = np.random.default_rng(seed)
    edges = [c.start_ms for c in cues] + [c.end_ms for c in cues] + [0]
    segments = []
    for k in range(10):
        # segment edges on, just inside or just past cue edges, so some
        # cues straddle a segment boundary
        start = int(rng.choice(edges)) + int(rng.integers(-1, 2))
        end = start + int(rng.integers(0, 8000))
        segments.append(Segment(f"vid_{k:04d}", "vid", start, end))
    for segment in segments:
        values = speech_features(segment, columns)
        assert values.tobytes() == \
            ref_speech_values(segment, transcript).tobytes()


@given(_tracks, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_keyframe_lookup_matches_loop_reference(spec, seed):
    track = _random_track(*spec)
    rng = np.random.default_rng(seed)
    segments = []
    for k in range(8):
        present = (list(rng.choice(track.timestamps_ms, size=3))
                   if track.timestamps_ms.size else [])
        absent = [-1, int(track.duration_ms) + 7, 10 ** 12]
        picked = [int(t) for t in present + absent
                  if rng.random() < 0.6]
        segments.append(Segment(f"vid_{k:04d}", "vid", 0, 1,
                                keyframe_timestamps=tuple(picked)))
    tracks = {"vid": track}
    got = keyframe_lookup(segments, tracks)
    want = ref_keyframe_lookup(segments, tracks)
    assert got.keys() == want.keys()
    for sid, rows in want.items():
        assert got[sid].tobytes() == rows.tobytes()
        assert got[sid].shape == rows.shape


@given(_tracks)
@settings(max_examples=40, deadline=None)
def test_descriptor_csv_matches_per_cell_format_and_parse(tmp_path_factory,
                                                          spec):
    track = _random_track(*spec)
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(write_descriptor_csv(track))
    assert path.read_text().splitlines()[1:] == [
        ",".join([str(f.timestamp_ms)] + [f"{v:.9f}" for v in f.histogram]
                 + [f"{f.luminance_mean:.9f}"])
        for f in track.frames]
    again = read_descriptor_csv(path, "vid", track.duration_ms)
    rows = [line.split(",")
            for line in path.read_text().splitlines()[1:]]
    assert again.timestamps_ms.tolist() == [int(r[0]) for r in rows]
    assert again.histograms.tolist() == \
        [[float(v) for v in r[1:-1]] for r in rows]
    assert again.luminance.tolist() == [float(r[-1]) for r in rows]
    assert again.histograms.shape == (len(rows), track.histograms.shape[1])


@given(_tracks, st.integers(0, 2 ** 32 - 1), st.integers(0, 12),
       st.sampled_from([0, 3000]))
@settings(max_examples=100, deadline=None)
def test_segment_cues_match_loop_reference(spec, seed, n_cuts,
                                           min_segment_ms):
    track = _random_track(*spec)
    rng = np.random.default_rng(seed)
    duration = int(track.duration_ms)
    cut_ms = sorted({int(c) for c in rng.integers(1, max(duration, 2),
                                                  size=n_cuts)
                     if 0 < c < duration})
    cuts = [CutPoint(c, c, c, SnapRule.SENTENCE_END) for c in cut_ms]
    edges = [0, duration] + cut_ms
    cues = []
    for k in range(int(rng.integers(0, 30))):
        # midpoints on, just before or just after a boundary, anywhere in
        # (or past) the video, and cues sharing a midpoint
        mid = int(rng.choice(edges)) + int(rng.integers(-1, 2))
        if rng.random() < 0.3:
            mid = int(rng.integers(0, duration + 2000))
        if cues and rng.random() < 0.2:
            prev = cues[int(rng.integers(len(cues)))]
            mid = (prev.start_ms + prev.end_ms) // 2
        half = int(rng.integers(0, 3000))
        cues.append(Cue(k + 1, max(0, mid - half),
                        mid + half + int(rng.integers(0, 2)), "w"))
    # transcript order is not time order
    transcript = Transcript("vid", [cues[i]
                                    for i in rng.permutation(len(cues))])
    cfg = SegmenterConfig(min_segment_ms=min_segment_ms)
    for segment in build_segments(track, cuts, transcript, cfg):
        assert segment.cue_indices == ref_segment_cues(segment, transcript)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 25))
@settings(max_examples=150, deadline=None)
def test_match_probes_match_loop_reference(seed, n_probes):
    rng = np.random.default_rng(seed)
    segments = []
    for v in range(int(rng.integers(0, 4))):
        lengths = rng.integers(1, 5000, size=int(rng.integers(1, 6)))
        # some videos have no segment at their start
        bounds = (int(rng.integers(0, 3)) * 1000
                  + np.concatenate([[0], np.cumsum(lengths)])).tolist()
        segments += [Segment(f"v{v}_{k:04d}", f"v{v}", start, end)
                     for k, (start, end) in enumerate(zip(bounds,
                                                          bounds[1:]))]
    segments = [segments[i] for i in rng.permutation(len(segments))]
    edges = [s.start_ms for s in segments] + [s.end_ms for s in segments]
    probes = []
    for _ in range(n_probes):
        # probes on a segment boundary or 1 ms either side of it, far past
        # every segment, and in videos with no segments
        at_ms = max(0, int(rng.choice(edges or [0]))
                    + int(rng.integers(-1, 2)))
        if rng.random() < 0.1:
            at_ms = 10 ** 6
        probes.append({"video_id": f"v{int(rng.integers(0, 5))}",
                       "at_ms": at_ms,
                       "label": str(rng.choice(["Logic", "Balance"]))})
    with mock.patch.object(pipeline.log, "warning") as warning:
        got = match_probes(probes, segments)
    want, warnings = ref_match_probes(probes, segments)
    assert got == want
    assert [c.args for c in warning.call_args_list] == warnings


def _random_segments(seed, n, bins, max_keyframes, vocab=6):
    """Keyframes and text vectors for n segments. Some segments copy an
    earlier one's keyframes or text, some texts are zero vectors, and
    keyframe counts mix within one set."""
    rng = np.random.default_rng(seed)
    ids = [f"seg_{k:03d}" for k in rng.permutation(n)]
    keyframes, texts = {}, {}
    for k, sid in enumerate(ids):
        if k and rng.random() < 0.2:
            keyframes[sid] = keyframes[ids[int(rng.integers(k))]].copy()
        else:
            count = int(rng.integers(1, max_keyframes + 1))
            raw = rng.random((count, 3, bins)) * (rng.random() < 0.8)
            raw += rng.integers(0, 2, size=(count, 3, bins)) + 1e-3
            keyframes[sid] = (raw / raw.sum(axis=2, keepdims=True)).reshape(
                count, 3 * bins)
        draw = rng.random()
        if draw < 0.2:
            texts[sid] = np.zeros(vocab)
        elif k and draw < 0.4:
            texts[sid] = texts[ids[int(rng.integers(k))]].copy()
        else:
            texts[sid] = rng.random(vocab) * rng.integers(0, 2, size=vocab)
    return ids, keyframes, texts


def _one_segment_blocks(enabled):
    """A block budget of one byte puts every segment in its own block."""
    budget = 1 if enabled else clustering._BLOCK_BYTES
    return mock.patch.object(clustering, "_BLOCK_BYTES", budget)


_segment_sets = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 9),
                          st.sampled_from([2, 16]), st.integers(1, 12))


@given(_segment_sets, st.booleans())
@settings(max_examples=120, deadline=None)
def test_context_matrix_matches_loop_reference(spec, one_row_blocks):
    ids, keyframes, _ = _random_segments(*spec)
    with _one_segment_blocks(one_row_blocks):
        got = build_context_matrix(ids, keyframes)
    assert got.ids == tuple(ids)
    assert np.array_equal(got.values, ref_context_matrix(ids, keyframes))


@given(_segment_sets, st.sampled_from([0.0, 0.5, 1.0]), st.booleans())
@settings(max_examples=120, deadline=None)
def test_issue_matrix_matches_loop_reference(spec, alpha, one_row_blocks):
    ids, keyframes, texts = _random_segments(*spec)
    with _one_segment_blocks(one_row_blocks):
        got = build_issue_matrix(ids, texts, keyframes, alpha)
    assert got.ids == tuple(ids)
    assert np.array_equal(got.values,
                          ref_issue_matrix(ids, texts, keyframes, alpha))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_small_matrices_match_loop_reference(n, alpha):
    ids, keyframes, texts = _random_segments(7, n, 16, 4)
    assert np.array_equal(build_context_matrix(ids, keyframes).values,
                          ref_context_matrix(ids, keyframes))
    assert np.array_equal(build_issue_matrix(ids, texts, keyframes,
                                             alpha).values,
                          ref_issue_matrix(ids, texts, keyframes, alpha))


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_segment_without_keyframes_raises(alpha):
    ids, keyframes, texts = _random_segments(3, 4, 2, 3)
    keyframes[ids[2]] = np.empty((0, 6))
    with pytest.raises(DataError, match="at least one keyframe"):
        build_context_matrix(ids, keyframes)
    with pytest.raises(DataError, match="at least one keyframe"):
        build_issue_matrix(ids, texts, keyframes, alpha)


_COLUMN_KINDS = ("ties", "adjacent", "constant", "continuous", "huge")


def _random_training_set(seed, n, kinds, n_classes):
    """Columns of tied small integers, of floats a few ulps apart (their
    midpoints round onto a neighbour), constant columns, continuous values
    and values near the float maximum (their midpoints overflow)."""
    rng = np.random.default_rng(seed)
    columns = []
    for kind in kinds:
        if kind == "ties":
            col = rng.integers(0, 4, size=n).astype(float)
        elif kind == "adjacent":
            base = rng.choice([1.0, -3.0, 0.1, 1e-300, 2.0 ** 40])
            col = base + rng.integers(0, 5, size=n) * np.spacing(base)
        elif kind == "constant":
            col = np.full(n, rng.normal())
        elif kind == "continuous":
            col = rng.normal(size=n)
        else:
            col = rng.choice([-1.0, 1.0]) * np.finfo(float).max * (
                1.0 - rng.integers(0, 3, size=n) * 2.0 ** -52)
        columns.append(col)
    x = np.stack(columns, axis=1)
    y_idx = rng.choice(rng.permutation(N_LABELS)[:n_classes], size=n)
    return x, y_idx


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=10),
       st.integers(1, N_LABELS), st.integers(1, 5),
       st.sampled_from([None, 0, 1, 3]))
@settings(max_examples=300, deadline=None)
def test_grow_tree_matches_loop_reference(seed, n, kinds, n_classes,
                                          min_leaf, max_depth):
    x, y_idx = _random_training_set(seed, n, kinds, n_classes)
    rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    with np.errstate(over="ignore"):  # the "huge" midpoints overflow
        got = _grow_tree(x, y_idx, rng, min_leaf, max_depth)
        want = ref_grow_tree(x, y_idx, ref_rng, min_leaf, max_depth)
    assert json.dumps(got) == json.dumps(want)
    assert rng.random() == ref_rng.random()  # the same draws were made


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


_LOGIT_KINDS = ("normal", "equal", "underflow", "ties")


def _random_logits(seed, n, kind):
    """Logits of every scale, rows of one value, rows whose entries lie
    more than 1,500 apart (exp underflows to 0) and small-integer ties."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=(n, N_LABELS)) * 10.0 ** rng.uniform(-3, 3)
    if kind == "equal":
        return np.repeat(rng.normal(size=(n, 1)) * 100.0, N_LABELS, axis=1)
    if kind == "underflow":
        offsets = rng.integers(0, 3, size=(n, N_LABELS)) * 1600.0
        offsets[:, :2] = [0.0, 1600.0]  # every row spans more than 1,500
        return (rng.normal(size=(n, N_LABELS))
                + rng.permuted(offsets, axis=1))
    return rng.integers(-2, 3, size=(n, N_LABELS)).astype(float)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from(_LOGIT_KINDS))
@settings(max_examples=200, deadline=None)
def test_softmax_matches_reference(seed, n, kind):
    z = _random_logits(seed, n, kind)
    want = ref_softmax(z)
    got = _softmax(z.copy())
    assert _same_bits(got, want)
    assert kind != "underflow" or (want == 0).any(axis=1).all()


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(0, 6),
       st.integers(1, N_LABELS), st.sampled_from([0, 1, 2, 7, 25]),
       st.sampled_from([0.0, 1e-4, 0.1]), st.sampled_from([0.1, 1.0, 3.0]),
       st.sampled_from([1e-3, 1.0, 1e3]))
@example(seed=0, n=1, d=3, n_classes=1, iterations=7, l2=0.0,
         learning_rate=0.1, scale=1.0)
@example(seed=1, n=12, d=4, n_classes=2, iterations=0, l2=1e-4,
         learning_rate=0.1, scale=1.0)
@example(seed=2, n=12, d=4, n_classes=3, iterations=1, l2=1e-4,
         learning_rate=0.1, scale=1.0)
@example(seed=3, n=20, d=5, n_classes=2, iterations=25, l2=0.0,
         learning_rate=3.0, scale=1e3)
@settings(max_examples=200, deadline=None)
def test_train_logistic_matches_reference(seed, n, d, n_classes, iterations,
                                          l2, learning_rate, scale):
    """Absent classes (n_classes < 5), zero or one step, no L2 penalty, and
    inputs of 1e3 whose logits soon lie far enough apart to underflow."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * scale
    y_idx = rng.choice(rng.permutation(N_LABELS)[:n_classes], size=n)
    hyper = {"l2": l2, "iterations": iterations,
             "learning_rate": learning_rate}
    got = _train_logistic(x, y_idx, hyper, seed=0)
    want = ref_train_logistic(x, y_idx, hyper, seed=0)
    assert _same_bits(got["weights"], want["weights"])
    assert _same_bits(got["bias"], want["bias"])


def test_ffn_and_predictions_match_ref_softmax():
    """The feed-forward net trains, and both softmax branches of
    `predict_proba` predict, to the same bits with `ref_softmax` in."""
    x, y_idx = _random_training_set(5, 60, ["continuous"] * 6, N_LABELS)
    labels = [LABEL_ORDER[i] for i in y_idx]
    ffn_hyper = {"hidden": 8, "epochs": 4, "batch_size": 7}
    ffn = models.train(KIND_FFN, x, labels, seed=3, hyper=ffn_hyper)
    logistic = models.train(KIND_LOGISTIC, x, labels, seed=3)
    got = [models.predict_proba(model, x) for model in (ffn, logistic)]
    with mock.patch.object(models, "_softmax", ref_softmax):
        ref_ffn = models.train(KIND_FFN, x, labels, seed=3, hyper=ffn_hyper)
        want = [models.predict_proba(model, x) for model in (ffn, logistic)]
    for key, value in ffn.parameters.items():
        assert _same_bits(value, ref_ffn.parameters[key]), key
    for probs, ref_probs in zip(got, want):
        assert _same_bits(probs, ref_probs)
