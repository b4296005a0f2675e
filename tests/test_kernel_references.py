"""The vectorized kernels against plain loop references.

Each reference is the straightforward loop over frames, cues, probes,
segment pairs or split thresholds that the vectorized code replaced. The
vectorized versions must agree exactly (==, not a tolerance) on random
tracks, transcripts and keyframe sets, including empty tracks, 0- and
1-frame windows, windows that reach past either end of the track, windows
longer than the track, cues that straddle a segment boundary, cue
midpoints and probes on a segment boundary, identical segments, zero text
vectors, texts that permute another (equal norm, not equal), -0.0 entries,
sets of up to 40 segments whose keyframe counts run in an order unlike the
ids', and distance matrices computed one segment block at a time; the
`cosine_distance` oracle is the scalar text distance the issue matrix
replaced. OPTICS must give the labels of its per-point seed-update loop on
matrices full of tied distances.
Forest trees must serialize to the same JSON, on tied, adjacent-float,
constant, overflowing and single-class columns, and forest probabilities
must be the bits of a walk per row and tree, on rows that sit exactly on
a split's threshold too. The softmax must give
its reference's bits, and the logistic and feed-forward trainers the bits
of plain steps on their reference objectives, on one row or column, all-equal
logits, logits far enough apart that exp underflows to 0, absent classes,
zero or one step, one-row batches and no L2 penalty. The SRT and WebVTT
parsers must return the transcript their index-loop references return, or
raise the same ParseError message and line, on random documents, and the
PPM parser the image its byte-at-a-time reference returns, or the same
ParseError message. Sentence bounds must equal those of a loop that
groups cues one at a time, and cut points those of a scan over the
sentences for each shot, and segments those of a merge that rescans its
pieces and a keyframe search over every shot for each piece, on seeded
random tracks, shots, cuts and transcripts. A segment's text, read by
cue position, must equal the scan over every cue of a parsed transcript,
for cue indices that repeat, run out of order, are 0 or lie past the last
cue. A descriptor CSV must give the column bytes of one np.loadtxt in
text mode, or the same ParseError message and line, on random files of
every layout the block decoder takes or leaves to np.loadtxt, read whole
or through windows of a few rows, and the descriptor CSV writer the
bytes of `%d` and `%.9f` row by row. A track's motion column, taken in
row blocks, must give the bits of one difference over the whole track.
The video, speech and text feature blocks must give each segment's row
of a per-segment loop, for segments of several videos in any order,
empty texts, out-of-vocabulary words, stopwords, repeated terms and
bigrams. SMOTE, its neighbour distances taken in row blocks, must give
the bytes, or the overflow message, of one whole-class difference array.
"""

import codecs
import dataclasses
import heapq
import json
import math
import re
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gelid import clustering, errors, features, frames
from gelid.clustering import (NOISE, DistanceMatrix, build_context_matrix,
                              build_issue_matrix, optics)
from gelid.errors import DataError, ParseError, naming, utf8_text
from gelid.features import (BLANK_LUMINANCE, Vocabulary, document_terms,
                            fit_vocabulary, segment_text, smote_oversample,
                            speech_features, text_features, video_features)
from gelid.frames import (VideoTrack, descriptor_csv_header, parse_ppm_frame,
                          read_descriptor_csv, write_descriptor_csv)
from gelid import models
from gelid.models import (DEFAULT_HYPER, KIND_FFN, KIND_FOREST, KIND_LOGISTIC,
                          LABEL_ORDER, N_LABELS, TrainedModel, _gini,
                          _grow_tree, _nest_trees, _new_nodes, _node_arrays,
                          _softmax, _train_ffn, _train_forest,
                          _train_logistic, ffn_shapes, model_to_dict,
                          predict_proba)
from gelid import pipeline, segmentation
from gelid.pipeline import keyframe_lookup, match_probes
from gelid.segmentation import (CutPoint, SegmenterConfig, Segment,
                                SnapRule, adaptive_thresholds, build_segments,
                                derive_cut_points, detect_shot_transitions)
from gelid import subtitles
from gelid.subtitles import (TERMINAL_PUNCTUATION, Cue, Transcript,
                             parse_srt, parse_vtt, sentence_bounds, write_srt)

# --- loop references ---------------------------------------------------------


def ref_video_values(segment, track):
    rows = zip(track.timestamps_ms, track.histograms, track.luminance)
    inside = [(hist, lum) for ts, hist, lum in rows
              if segment.start_ms <= ts < segment.end_ms]
    n = len(inside)
    if n >= 2:
        hists = np.stack([hist for hist, _ in inside])
        motion = np.abs(np.diff(hists, axis=0)).sum(axis=1)
        motion_mean, motion_std = float(motion.mean()), float(motion.std())
        had_video = 1.0
    else:
        motion_mean = motion_std = 0.0
        had_video = 0.0
    luminance = np.array([lum for _, lum in inside])
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


def ref_text_values(text, vocab, ngram_max, stopwords):
    """One text's tf-idf row: a count per occurrence of a vocabulary
    term, times idf, over the row's np.linalg.norm unless that is 0."""
    index = {t: i for i, t in enumerate(vocab.terms)}
    idf = np.log((1 + vocab.n_documents)
                 / (1 + np.asarray(vocab.document_frequencies))) + 1.0
    row = np.zeros(len(vocab.terms))
    for term in document_terms([text], ngram_max, stopwords)[0]:
        i = index.get(term)
        if i is not None:
            row[i] += 1.0
    row *= idf
    norm = np.linalg.norm(row)
    if norm > 0:
        row /= norm
    return row


def ref_thresholds(dists, window, alpha):
    out = [np.nan]
    for i in range(1, len(dists)):
        w = dists[max(0, i - window):i]
        out.append(w.mean() + alpha * w.std())
    return np.array(out[:len(dists)])


def ref_shot_transitions(track, cfg):
    stamps = track.timestamps_ms.tolist()
    if len(stamps) < 2:
        return []
    dists = np.abs(np.diff(track.histograms, axis=0)).sum(axis=1)
    transitions, prev_ms = [], None
    for i in range(1, len(dists)):
        window = dists[max(0, i - cfg.window):i]
        if dists[i] <= window.mean() + cfg.alpha * window.std():
            continue
        ts = stamps[i + 1]
        if prev_ms is not None and ts - prev_ms < cfg.min_shot_ms:
            continue
        transitions.append(ts)
        prev_ms = ts
    return transitions


def ref_keyframe_lookup(segments, tracks):
    lookup = {}
    for seg in segments:
        track = tracks[seg.video_id]
        by_ts = dict(zip(track.timestamps_ms.tolist(), track.histograms))
        rows = [by_ts[ts] for ts in seg.keyframe_timestamps if ts in by_ts]
        if rows:
            lookup[seg.segment_id] = np.stack(rows)
    return lookup


def ref_segment_cues(segment, transcript):
    return tuple(i for i, c in enumerate(transcript.cues, 1)
                 if segment.start_ms <= (c.start_ms + c.end_ms) // 2
                 < segment.end_ms)


def ref_segment_text(segment: Segment, transcript: Transcript) -> str:
    wanted = set(segment.cue_indices)
    return " ".join(c.text for i, c in enumerate(transcript.cues, 1)
                    if i in wanted)


def ref_sentence_spans(transcript, gap_ms):
    """(start_ms, end_ms) of each sentence: a run of cues that closes
    after cue i when its text ends with terminal punctuation, when the
    silence before cue i+1 exceeds gap_ms, or at the last cue."""
    spans, group = [], []
    cues = transcript.cues
    for pos, cue in enumerate(cues):
        group.append(cue)
        last = pos == len(cues) - 1
        gap_after = (cues[pos + 1].start_ms - cue.end_ms) if not last else 0
        if (last or cue.text.rstrip().endswith(TERMINAL_PUNCTUATION)
                or gap_after > gap_ms):
            spans.append((group[0].start_ms, group[-1].end_ms))
            group = []
    return spans


def _ref_sentence_end_for(spans, shifted_ms, silence_ms):
    for start_ms, end_ms in spans:
        if start_ms <= shifted_ms < end_ms:
            return end_ms
        if shifted_ms < start_ms <= shifted_ms + silence_ms:
            return end_ms
        if start_ms > shifted_ms + silence_ms:
            break
    return None


def ref_derive_cut_points(shots, transcript, cfg):
    spans = ref_sentence_spans(transcript, cfg.gap_ms)
    cuts = {}
    for shot in shots:
        shifted = shot + cfg.k_seconds * 1000
        end_ms = _ref_sentence_end_for(spans, shifted, cfg.silence_ms)
        if end_ms is not None:
            cut = CutPoint(cut_ms=end_ms, source_shot_ms=shot,
                           snap_rule=SnapRule.SENTENCE_END)
        else:
            cut = CutPoint(cut_ms=shifted, source_shot_ms=shot,
                           snap_rule=SnapRule.SILENCE_PASSTHROUGH)
        cuts.setdefault(cut.cut_ms, cut)
    return [cuts[ms] for ms in sorted(cuts)]


def _ref_keyframes_for(start_ms, end_ms, shot_times, stamps, k_max):
    chosen = []
    for shot_ms in shot_times:
        if not start_ms <= shot_ms < end_ms:
            continue
        pos = int(np.searchsorted(stamps, shot_ms, side="left"))
        if pos < len(stamps) and stamps[pos] < end_ms:
            ts = int(stamps[pos])
            if ts not in chosen:
                chosen.append(ts)
    if not chosen:
        inside = stamps[np.searchsorted(stamps, start_ms):
                        np.searchsorted(stamps, end_ms)]
        if inside.size:
            mid = (start_ms + end_ms) // 2
            ts = int(inside[np.argmin(np.abs(inside - mid))])
            chosen.append(ts)
    return tuple(sorted(chosen)[:k_max])


def ref_build_segments(track, cuts, transcript, cfg):
    """The segments, and the arguments of every warning logged; each
    segment's cues come from `ref_segment_cues`."""
    duration = track.duration_ms
    bounds = [0] + sorted({c.cut_ms for c in cuts}) + [duration]
    pieces = [[bounds[i], bounds[i + 1]] for i in range(len(bounds) - 1)]
    # leftmost-first merge until every piece is long enough
    while len(pieces) > 1:
        short = next((i for i, (s, e) in enumerate(pieces)
                      if e - s < cfg.min_segment_ms), None)
        if short is None:
            break
        if short == 0:
            pieces[1][0] = pieces[0][0]
        else:
            pieces[short - 1][1] = pieces[short][1]
        del pieces[short]
    shot_times = sorted({c.source_shot_ms for c in cuts})
    segments, warnings = [], []
    for idx, (start, end) in enumerate(pieces):
        keyframes = _ref_keyframes_for(start, end, shot_times,
                                       track.timestamps_ms, cfg.max_keyframes)
        if not keyframes:
            warnings.append(("segment %s_%04d [%d, %d) contains no frames",
                             track.video_id, idx, start, end))
        segment = Segment(f"{track.video_id}_{idx:04d}", track.video_id,
                          start, end, keyframe_timestamps=keyframes)
        segments.append(dataclasses.replace(
            segment, cue_indices=ref_segment_cues(segment, transcript)))
    return segments, warnings


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


def cosine_distance(a, b):
    """1 - cosine similarity; a zero vector is maximally distant (1.0)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 1.0
    if np.array_equal(a, b):
        return 0.0
    return float(np.clip(1.0 - (a @ b) / (na * nb), 0.0, 1.0))


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


def ref_optics(matrix, min_pts, eps_max, eps_cut):
    """OPTICS with a per-point seed update: each unprocessed point within
    eps_max of a core point gets reachability max(core distance,
    distance) when that is lower, and enters the heap as (reach, id,
    index); then a flat extraction at eps_cut."""
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
    order = []
    id_rank = sorted(range(n), key=lambda i: ids[i])

    def update_seeds(center, heap):
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
        heap = []
        update_seeds(start, heap)
        while heap:
            _, _, j = heapq.heappop(heap)
            if processed[j]:
                continue
            processed[j] = True
            order.append(j)
            update_seeds(j, heap)

    raw = {}
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
    return clustering._renumber(ids, raw)


def ref_leaf(y_idx):
    dist = np.bincount(y_idx, minlength=N_LABELS).astype(float)
    return {"leaf": (dist / dist.sum()).tolist()}


def ref_grow_tree(x, y_idx, rng, min_leaf, max_depth, depth=0):
    n, d = x.shape
    counts = np.bincount(y_idx, minlength=N_LABELS)
    if (n < min_leaf or np.count_nonzero(counts) <= 1
            or (max_depth is not None and depth >= max_depth)):
        return ref_leaf(y_idx)
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
        return ref_leaf(y_idx)
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


def ref_tree_predict(node, row):
    while "leaf" not in node:
        node = (node["left"] if row[node["feature"]] <= node["threshold"]
                else node["right"])
    return np.asarray(node["leaf"])


def ref_train_forest(x, y_idx, hyper, seed):
    """The nested trees of one `ref_grow_tree` per bootstrap sample."""
    n = x.shape[0]
    trees = []
    for child in np.random.SeedSequence(seed).spawn(hyper["n_trees"]):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, size=n)
        trees.append(ref_grow_tree(x[rows], y_idx[rows], rng,
                                   hyper["min_leaf"], hyper["max_depth"]))
    return trees


def ref_forest_proba(trees, x):
    """Each tree's leaf added row by row, tree by tree."""
    votes = np.zeros((x.shape[0], N_LABELS))
    for tree in trees:
        for i, row in enumerate(x):
            votes[i] += ref_tree_predict(tree, row)
    return votes / len(trees)


def ref_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def logistic_loss_and_grad(wb, x, y_idx, l2):
    """Mean cross-entropy + l2*||W||^2 (bias unpenalized) and its gradient:
    the objective `_train_logistic` descends, through `models._softmax`.

    wb is (d+1, K): weight rows then a final bias row; x is unaugmented.
    """
    n = x.shape[0]
    w, b = wb[:-1], wb[-1]
    probs = models._softmax(x @ w + b)
    ll = -np.log(probs[np.arange(n), y_idx] + 1e-300).mean()
    loss = ll + l2 * float((w ** 2).sum())
    delta = probs.copy()
    delta[np.arange(n), y_idx] -= 1.0
    delta /= n
    grad = np.vstack([x.T @ delta + 2 * l2 * w, delta.sum(axis=0)])
    return float(loss), grad


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


def ffn_pack(params):
    return np.concatenate([p.ravel() for p in params])


def ffn_unpack(flat, shapes):
    out = []
    pos = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(flat[pos:pos + size].reshape(shape))
        pos += size
    return out


def ffn_loss_and_grad(flat, shapes, x, y_idx):
    """Mean cross-entropy of the one-hidden-layer ReLU net and its
    gradient: the objective `_train_ffn` descends, through
    `models._softmax`.

    flat is w1, b1, w2 and b2 packed in that order (`ffn_pack`)."""
    w1, b1, w2, b2 = ffn_unpack(flat, shapes)
    n = x.shape[0]
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    probs = models._softmax(hidden @ w2 + b2)
    loss = -np.log(probs[np.arange(n), y_idx] + 1e-300).mean()
    delta = probs.copy()
    delta[np.arange(n), y_idx] -= 1.0
    delta /= n
    g_w2 = hidden.T @ delta
    g_b2 = delta.sum(axis=0)
    back = (delta @ w2.T) * (pre > 0)
    g_w1 = x.T @ back
    g_b1 = back.sum(axis=0)
    return float(loss), ffn_pack([g_w1, g_b1, g_w2, g_b2])


def ref_train_ffn(x, y_idx, hyper, seed):
    """One step on `ffn_loss_and_grad` at a time over one flat parameter
    vector, with `ref_softmax`: `_train_ffn`'s seeded draws, epoch
    permutations and batches."""
    rng = np.random.default_rng(seed)
    d, h = x.shape[1], hyper["hidden"]
    shapes = ffn_shapes(d, h)
    flat = ffn_pack([rng.normal(0.0, math.sqrt(2.0 / d), size=(d, h)),
                     np.zeros(h),
                     rng.normal(0.0, math.sqrt(2.0 / h), size=(h, N_LABELS)),
                     np.zeros(N_LABELS)])
    n = x.shape[0]
    batch = min(hyper["batch_size"], n)
    lr = hyper["learning_rate"]
    with mock.patch.object(models, "_softmax", ref_softmax):
        for _ in range(hyper["epochs"]):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start:start + batch]
                _, grad = ffn_loss_and_grad(flat, shapes, x[rows],
                                            y_idx[rows])
                flat -= lr * grad
    return dict(zip(("w1", "b1", "w2", "b2"), ffn_unpack(flat, shapes)))


# the SRT and WebVTT parsers as index loops, each with its own timestamp rule

_REF_SRT_TIME_RE = re.compile(
    r"^(\d{1,4}):([0-5]?\d):([0-5]?\d)[,.](\d{3})$")
_REF_VTT_TIME_RE = re.compile(
    r"^(?:(\d{1,4}):)?([0-5]?\d):([0-5]?\d)\.(\d{3})$")


def _ref_srt_timestamp(token, line_no):
    m = _REF_SRT_TIME_RE.match(token.strip())
    if not m:
        raise ParseError(f"malformed SRT timestamp {token.strip()!r}", line_no)
    h, mi, s, ms = (int(x) for x in m.groups())
    return ((h * 60 + mi) * 60 + s) * 1000 + ms


def _ref_vtt_timestamp(token, line_no):
    m = _REF_VTT_TIME_RE.match(token.strip())
    if not m:
        raise ParseError(f"malformed WebVTT timestamp {token.strip()!r}",
                         line_no)
    h = int(m.group(1)) if m.group(1) is not None else 0
    mi, s, ms = int(m.group(2)), int(m.group(3)), int(m.group(4))
    return ((h * 60 + mi) * 60 + s) * 1000 + ms


def ref_parse_srt(data, video_id=""):
    text = data.replace("\r\n", "\n")
    raw_cues = []
    lines = text.split("\n")
    i = 0
    n = len(lines)
    while i < n:
        if not lines[i].strip():
            i += 1
            continue
        block_start = i
        # optional numeric index line
        if lines[i].strip().isdigit() and i + 1 < n and "-->" in lines[i + 1]:
            i += 1
        if i >= n or "-->" not in lines[i]:
            raise ParseError("expected timestamp line with '-->'",
                             block_start + 1)
        timing_line_no = i + 1
        left, _, right = lines[i].partition("-->")
        start_ms = _ref_srt_timestamp(left, timing_line_no)
        end_ms = _ref_srt_timestamp(right, timing_line_no)
        i += 1
        body = []
        while i < n and lines[i].strip():
            body.append(lines[i])
            i += 1
        raw_cues.append((start_ms, end_ms, timing_line_no,
                         subtitles._clean_text(" ".join(body))))
    return subtitles._finalize(raw_cues, video_id)


def ref_parse_vtt(data, video_id=""):
    text = data.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines or not lines[0].startswith("WEBVTT"):
        raise ParseError("missing WEBVTT header", 1)
    raw_cues = []
    i = 1
    n = len(lines)
    # skip the rest of the header block
    while i < n and lines[i].strip():
        i += 1
    while i < n:
        if not lines[i].strip():
            i += 1
            continue
        first = lines[i].strip()
        if first.startswith(("NOTE", "STYLE", "REGION")):
            while i < n and lines[i].strip():
                i += 1
            continue
        if "-->" not in lines[i]:
            i += 1  # cue identifier line
            if i >= n or "-->" not in lines[i]:
                raise ParseError("expected cue timing line with '-->'", i)
        timing_line_no = i + 1
        left, _, right = lines[i].partition("-->")
        # cue settings (e.g. "align:start") follow the end timestamp
        right = right.strip().split(" ", 1)[0] if right.strip() else right
        start_ms = _ref_vtt_timestamp(left, timing_line_no)
        end_ms = _ref_vtt_timestamp(right, timing_line_no)
        i += 1
        body = []
        while i < n and lines[i].strip():
            body.append(lines[i])
            i += 1
        raw_cues.append((start_ms, end_ms, timing_line_no,
                         subtitles._clean_text(" ".join(body))))
    return subtitles._finalize(raw_cues, video_id)


# the PPM parser with its byte-at-a-time header tokenizer

_REF_WS_SPLIT = re.compile(rb"\s+")


def _ref_ppm_tokens(data, limit):
    """Yield whitespace-separated header/ASCII tokens, skipping # comments."""
    pos = 0
    count = 0
    while pos < len(data) and count < limit:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
            continue
        if pos >= len(data):
            break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        count += 1
        yield data[start:pos], pos


def ref_parse_ppm_frame(data):
    header = []
    body_at = 0
    for token, pos in _ref_ppm_tokens(data, 4):
        header.append(token)
        body_at = pos
    if len(header) < 4:
        raise ParseError("truncated PPM header")
    magic = header[0]
    if magic not in (b"P6", b"P3"):
        raise ParseError(f"not a PPM image (magic {magic!r})")
    try:
        width, height, maxval = (int(t) for t in header[1:4])
    except ValueError:
        raise ParseError("non-numeric PPM header field") from None
    if width < 1 or height < 1:
        raise ParseError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise ParseError(f"unsupported PPM maxval {maxval} (must be 255)")
    expected = width * height * 3
    if magic == b"P6":
        payload = data[body_at + 1:body_at + 1 + expected]
        if len(payload) < expected:
            raise ParseError(f"truncated P6 payload: expected {expected} "
                             f"bytes, found {len(payload)}")
        flat = np.frombuffer(payload, dtype=np.uint8)
    else:
        values = [v for v in _REF_WS_SPLIT.split(data[body_at:]) if v and
                  not v.startswith(b"#")]
        if len(values) < expected:
            raise ParseError(f"truncated P3 payload: expected {expected} "
                             f"values, found {len(values)}")
        try:
            flat = np.array([int(v) for v in values[:expected]], dtype=np.int64)
        except ValueError:
            raise ParseError("non-numeric P3 sample") from None
        if flat.min() < 0 or flat.max() > 255:
            raise ParseError("P3 sample outside [0, 255]")
        flat = flat.astype(np.uint8)
    return flat.reshape(height, width, 3)


def _ref_load_rows(lines, row_dtype):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header-only file
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=row_dtype, delimiter=",",
                          comments=None, ndmin=1)


def _ref_data_lines(path):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no > 1 and line.strip("\r\n"):
                yield line_no, line


def _ref_parses(kind, text):
    try:
        kind(text)
    except ValueError:
        return False
    return True


def _ref_unparsable_row(path, row_dtype):
    n_fields = row_dtype["hist"].shape[0] + 2
    for line_no, line in _ref_data_lines(path):
        try:
            _ref_load_rows([line], row_dtype)
        except (ValueError, DeprecationWarning) as exc:
            cells = line.rstrip("\r\n").split(",")
            if len(cells) != n_fields:
                reason = f"row has {len(cells)} fields, expected {n_fields}"
            elif not _ref_parses(int, cells[0]):
                reason = f"timestamp {cells[0]!r} is not an integer"
            else:
                reason = next((f"non-numeric value {c!r}" for c in cells[1:]
                               if not _ref_parses(float, c)), str(exc))
            return ParseError(reason, line_no, path)
    raise AssertionError(f"{path}: parse failed but every row parses")


def ref_parse_descriptor_csv(path):
    """The columns of a descriptor CSV read in text mode by one np.loadtxt
    over a structured row dtype."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header == [""]:
            raise ParseError("empty descriptor CSV", 1, path)
        width = len(header) - 2
        if (header[0] != "timestamp_ms" or header[-1] != "luminance"
                or width < 3 or width % 3):
            raise ParseError("bad descriptor CSV header", 1, path)
        row_dtype = np.dtype([("ts", np.int64), ("hist", np.float64, (width,)),
                              ("lum", np.float64)])
        try:
            table = _ref_load_rows(fh, row_dtype)
        except (ValueError, DeprecationWarning):
            table = None
    if table is None:
        raise _ref_unparsable_row(path, row_dtype)
    return (table["ts"].copy(),
            np.ascontiguousarray(table["hist"]).reshape(len(table), width),
            table["lum"].copy())


def ref_read_descriptor_csv(path):
    """`ref_parse_descriptor_csv`, a not-UTF-8 byte named by its line and
    the track invariants checked, as `read_descriptor_csv` does."""
    try:
        timestamps, histograms, luminance = ref_parse_descriptor_csv(path)
    except UnicodeDecodeError:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})",
                             data.count(b"\n", 0, exc.start) + 1,
                             path) from None
        raise
    track = VideoTrack("vid", timestamps, histograms, luminance,
                       int(timestamps[-1]) if timestamps.size else 0)
    fault = track._first_fault()
    if fault is not None:
        row, message = fault
        line_no = next(line_no for index, (line_no, _) in enumerate(
            _ref_data_lines(path)) if index == row)
        raise ParseError(message, line_no, path)
    return timestamps, histograms, luminance


def ref_write_descriptor_csv(track):
    """The descriptor CSV text, every row formatted with `%`."""
    width = track.histograms.shape[1]
    row_format = ",".join(["%d"] + ["%.9f"] * (width + 1))
    rows = [row_format % (ts, *hist, lum) for ts, hist, lum in zip(
        track.timestamps_ms.tolist(), track.histograms.tolist(),
        track.luminance.tolist())]
    header = ",".join(descriptor_csv_header(width // 3))
    return "\n".join([header] + rows) + "\n"


# --- random inputs -----------------------------------------------------------


def _random_track(seed, n_frames, repeat=0.5, bins=4, video_id="vid"):
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
    return VideoTrack(video_id, stamps.astype(np.int64), hists, luminance,
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
        out.append(Segment(f"{track.video_id}_{k:04d}", track.video_id,
                           start, end))
    return out


_tracks = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 60),
                    st.sampled_from([0.0, 0.5, 0.9]))


@given(_tracks)
@settings(max_examples=80, deadline=None)
def test_video_features_match_loop_reference(spec):
    seed, n_frames, repeat = spec
    track = _random_track(seed, n_frames, repeat)
    rng = np.random.default_rng(seed + 1)
    segments = _windows(rng, track, 12)
    values = video_features(segments, {"vid": track})
    assert values.shape == (12, 7)
    for row, segment in zip(values, segments):
        assert row.tobytes() == ref_video_values(segment, track).tobytes()


@given(st.lists(st.floats(0, 10, allow_nan=False), max_size=200)
       .map(np.array), st.integers(1, 150), st.floats(0.01, 10),
       st.sampled_from([1, 7, 2048]))
@settings(max_examples=150, deadline=None)
def test_adaptive_thresholds_match_loop_reference(dists, window, alpha,
                                                  chunk):
    """Every threshold, with the full windows taken in chunks of one, of
    seven or all at once."""
    with mock.patch.object(segmentation, "_THRESHOLD_ROWS", chunk):
        assert adaptive_thresholds(dists, window, alpha).tobytes() == \
            ref_thresholds(dists, window, alpha).tobytes()


@given(_tracks, st.sampled_from([1, 5, 1024]))
@settings(max_examples=80, deadline=None)
def test_track_motion_matches_whole_track_reference(spec, block):
    """`VideoTrack.motion`, taken in row blocks of one, of five or all at
    once: the bits of one np.diff, np.abs and sum over the whole track."""
    track = _random_track(*spec)
    with mock.patch.object(frames, "_MOTION_ROWS", block):
        motion = track.motion
    hists = track.histograms
    assert motion.tobytes() == \
        np.abs(np.diff(hists, axis=0)).sum(axis=1).tobytes()
    assert motion is track.motion


@given(_tracks, st.integers(1, 80), st.sampled_from([0.5, 1.0, 3.0]),
       st.sampled_from([0, 300, 2000]))
@settings(max_examples=120, deadline=None)
def test_shot_transitions_match_loop_reference(spec, window, alpha,
                                               min_shot_ms):
    track = _random_track(*spec)
    cfg = SegmenterConfig(window=window, alpha=alpha, min_shot_ms=min_shot_ms)
    got = detect_shot_transitions(track, cfg)
    assert got == ref_shot_transitions(track, cfg)
    assert all(type(ts) is int for ts in got)


@given(_tracks, _tracks, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_video_features_of_two_videos_match_loop_reference(spec_a, spec_b,
                                                           seed):
    """Segments of two videos in a random order: each row is its own
    segment's, in input order."""
    tracks = {video_id: _random_track(*spec, video_id=video_id)
              for video_id, spec in (("a", spec_a), ("b", spec_b))}
    rng = np.random.default_rng(seed)
    segments = [s for track in tracks.values() for s in _windows(rng, track, 8)]
    segments = [segments[i] for i in rng.permutation(len(segments))]
    values = video_features(segments, tracks)
    assert values.shape == (16, 7)
    for row, segment in zip(values, segments):
        assert row.tobytes() == ref_video_values(
            segment, tracks[segment.video_id]).tobytes()


_cue_specs = st.lists(
    st.tuples(st.integers(0, 20000), st.integers(0, 6000),
              st.integers(0, 6)), max_size=25)


def _transcript(video_id, specs):
    """Cues of (start, length, words) specs, in start order, as a
    Transcript holds its cues."""
    return Transcript(video_id, [
        Cue(start, start + length, " ".join(["w"] * words))
        for start, length, words in sorted(specs)])


def _speech_windows(rng, transcript, count):
    """Segments whose edges lie on, just inside or just past cue edges, so
    some cues straddle a segment boundary."""
    cues = transcript.cues
    edges = [c.start_ms for c in cues] + [c.end_ms for c in cues] + [0]
    segments = []
    for k in range(count):
        start = int(rng.choice(edges)) + int(rng.integers(-1, 2))
        end = start + int(rng.integers(0, 8000))
        segments.append(Segment(f"{transcript.video_id}_{k:04d}",
                                transcript.video_id, start, end))
    return segments


@given(_cue_specs, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_speech_features_match_loop_reference(specs, seed):
    transcript = _transcript("vid", specs)
    segments = _speech_windows(np.random.default_rng(seed), transcript, 10)
    values = speech_features(segments, {"vid": transcript})
    assert values.shape == (10, 3)
    for row, segment in zip(values, segments):
        assert row.tobytes() == \
            ref_speech_values(segment, transcript).tobytes()


@given(_cue_specs, _cue_specs, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_speech_features_of_two_videos_match_loop_reference(specs_a, specs_b,
                                                            seed):
    """Segments of two videos in a random order: each row is its own
    segment's, in input order."""
    transcripts = {video_id: _transcript(video_id, specs)
                   for video_id, specs in (("a", specs_a), ("b", specs_b))}
    rng = np.random.default_rng(seed)
    segments = [s for transcript in transcripts.values()
                for s in _speech_windows(rng, transcript, 6)]
    segments = [segments[i] for i in rng.permutation(len(segments))]
    values = speech_features(segments, transcripts)
    assert values.shape == (12, 3)
    for row, segment in zip(values, segments):
        assert row.tobytes() == ref_speech_values(
            segment, transcripts[segment.video_id]).tobytes()


# words in and out of any vocabulary, stopwords, and a case and
# punctuation the tokenizer drops
_TEXT_WORDS = ("lag", "spike", "boss", "crash", "hud", "the", "a", "Lag,",
               "SPIKE!", "zzz", "qux")
_phrases = st.lists(st.sampled_from(_TEXT_WORDS), max_size=14).map(" ".join)


@st.composite
def _vocabularies(draw):
    """Any terms of _TEXT_WORDS, or bigrams of them, in any order, each
    with any document frequency."""
    words = sorted({w.strip(",!").lower() for w in _TEXT_WORDS})
    candidates = words + [f"{a} {b}" for a in words for b in words]
    terms = draw(st.lists(st.sampled_from(candidates), unique=True,
                          max_size=30))
    n_documents = draw(st.integers(1, 60))
    return Vocabulary(tuple(terms), tuple(
        draw(st.integers(1, n_documents)) for _ in terms), n_documents)


@given(st.lists(_phrases, max_size=12), _vocabularies(),
       st.sampled_from([1, 2]), st.sets(st.sampled_from(["the", "a", "boss"])))
@settings(max_examples=200, deadline=None)
@example(texts=["", "zzz qux", "lag lag lag spike", "the a the",
                "Lag, spike lag SPIKE!", "boss"],
         vocab=fit_vocabulary(document_terms(
             ["lag spike the lag", "boss crash"], 2, {"the", "a"}), 1),
         ngram_max=2, stopwords={"the", "a"})
@example(texts=["lag", ""], vocab=Vocabulary((), (), 1), ngram_max=1,
         stopwords=set())
def test_text_features_match_loop_reference(texts, vocab, ngram_max,
                                            stopwords):
    """Empty text, text of out-of-vocabulary words or stopwords only,
    repeated terms and bigrams: each row the bits of its own loop."""
    values = text_features(document_terms(texts, ngram_max, stopwords),
                           vocab)
    assert values.shape == (len(texts), len(vocab.terms))
    for row, text in zip(values, texts):
        assert row.tobytes() == \
            ref_text_values(text, vocab, ngram_max, stopwords).tobytes()


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
    path.write_bytes(write_descriptor_csv(track))
    assert path.read_text().splitlines()[1:] == [
        ",".join([str(ts)] + [f"{v:.9f}" for v in hist] + [f"{lum:.9f}"])
        for ts, hist, lum in zip(track.timestamps_ms.tolist(),
                                 track.histograms, track.luminance.tolist())]
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
    cuts = [CutPoint(c, c, SnapRule.SENTENCE_END) for c in cut_ms]
    edges = [0, duration] + cut_ms
    cues = []
    for _ in range(int(rng.integers(0, 30))):
        # midpoints on, just before or just after a boundary, anywhere in
        # (or past) the video, and cues sharing a midpoint
        mid = int(rng.choice(edges)) + int(rng.integers(-1, 2))
        if rng.random() < 0.3:
            mid = int(rng.integers(0, duration + 2000))
        if cues and rng.random() < 0.2:
            prev = cues[int(rng.integers(len(cues)))]
            mid = (prev.start_ms + prev.end_ms) // 2
        half = int(rng.integers(0, 3000))
        cues.append(Cue(max(0, mid - half),
                        mid + half + int(rng.integers(0, 2)), "w"))
    # transcript order is not time order
    transcript = Transcript("vid", [cues[i]
                                    for i in rng.permutation(len(cues))])
    cfg = SegmenterConfig(min_segment_ms=min_segment_ms)
    for segment in build_segments(track, cuts, transcript, cfg):
        assert segment.cue_indices == ref_segment_cues(segment, transcript)


def _tiling_case(rng):
    """A track, cuts, cues and settings for build_segments: tracks with no
    frames, one frame or frames from well past 0; shots before the first
    frame, past the last, between frames (so that several find one frame)
    and on their cut; cuts on a frame and repeated cuts; minimum lengths
    that equal a piece's length, so that every piece is short or the
    first one alone is."""
    n_frames = int(rng.choice([0, 1, 2, int(rng.integers(3, 40))]))
    stamps = (int(rng.integers(0, 3000))
              + np.cumsum(rng.integers(1, 600, size=n_frames)))
    duration = (int(stamps[-1]) if n_frames else 0) + int(rng.integers(2, 3000))
    track = VideoTrack("vid", stamps.astype(np.int64),
                       np.ones((n_frames, 3)), np.zeros(n_frames), duration)
    frames = stamps.tolist() or [int(rng.integers(1, duration))]
    cut_ms = [int(rng.choice(frames)) if rng.random() < 0.3 else int(cut)
              for cut in rng.integers(1, duration,
                                      size=int(rng.integers(0, 12)))]
    shots = []
    for cut in cut_ms:
        shots.append(int(rng.choice([
            cut, int(rng.choice(frames)) + int(rng.integers(-2, 3)),
            int(rng.integers(0, frames[0] + 1)),
            frames[-1] + int(rng.integers(1, 2000)),
            int(rng.integers(0, duration + 1)),
            shots[-1] if shots else cut])))
    if cut_ms and rng.random() < 0.3:
        cut_ms[-1] = cut_ms[0]
    cuts = [CutPoint(c, shot, SnapRule.SENTENCE_END)
            for c, shot in zip(cut_ms, shots)]
    pieces = np.diff([0] + sorted(set(cut_ms)) + [duration]).tolist()
    cfg = SegmenterConfig(
        min_segment_ms=int(rng.choice([0, 1, int(rng.choice(pieces)),
                                       int(rng.choice(pieces)) + 1,
                                       int(rng.integers(0, duration + 2)),
                                       duration, duration + 1])),
        max_keyframes=int(rng.choice([1, 2, 3, 10])))
    cues = []
    for _ in range(int(rng.integers(0, 8))):
        start = int(rng.integers(0, duration + 1000))
        cues.append(Cue(start, start + int(rng.integers(1, 4000)),
                        "w"))
    return track, cuts, Transcript("vid", cues), cfg


@pytest.mark.parametrize("block", range(4))
def test_build_segments_matches_loop_reference(block):
    """500 cases a block; see `_tiling_case`."""
    rng = np.random.default_rng(block)
    for _ in range(500):
        track, cuts, transcript, cfg = _tiling_case(rng)
        with mock.patch.object(segmentation.log, "warning") as warning:
            got = build_segments(track, cuts, transcript, cfg)
        want, warnings = ref_build_segments(track, cuts, transcript, cfg)
        assert got == want
        assert [c.args for c in warning.call_args_list] == warnings
        for segment in got:
            assert all(type(v) is int for v in (
                segment.start_ms, segment.end_ms, *segment.cue_indices,
                *segment.keyframe_timestamps))


def _snapping_case(rng):
    """Shots, a transcript and settings for derive_cut_points: cues that
    overlap or nest, with and without terminal punctuation, and gaps of
    gap_ms and one either side of it; shifted times on, one before and
    one past every sentence's start, end and silence window."""
    gap_ms = int(rng.choice([0, 400, 1500]))
    cues, at = [], int(rng.integers(0, 3000))
    for _ in range(int(rng.integers(0, 12))):
        length = int(rng.integers(1, 3000))
        cues.append(Cue(at, at + length, "w" + str(rng.choice(
            ["", "", ".", "!", "?", "\u2026"]))))
        at += int(rng.choice([int(rng.integers(0, length)),
                              length + gap_ms + int(rng.integers(-1, 2)),
                              length + int(rng.integers(0, 6000))]))
    transcript = parse_srt(write_srt(Transcript("vid", cues)), "vid")
    cfg = SegmenterConfig(k_seconds=int(rng.choice([0, 1, 5])),
                          silence_ms=int(rng.choice([0, 1, 300, 3000])),
                          gap_ms=gap_ms)
    edges = [int(rng.integers(0, 20000))]
    for start_ms, end_ms in ref_sentence_spans(transcript, gap_ms):
        edges += [start_ms, end_ms, start_ms - cfg.silence_ms]
    shifted = {int(rng.choice(edges)) + int(rng.integers(-1, 2))
               for _ in range(int(rng.integers(0, 10)))}
    shots = [t - cfg.k_seconds * 1000
             for t in sorted(shifted) if t >= cfg.k_seconds * 1000]
    return shots, transcript, cfg


@st.composite
def _sentence_cases(draw):
    """A transcript in start order and a gap_ms: cues that nest, overlap,
    touch or leave a silence of gap_ms or one either side of it, their
    texts ending in each terminal mark, in none, or in a mark and then
    whitespace, which the parsers would have stripped."""
    gap_ms = draw(st.sampled_from([0, 500, 1500, 3000]))
    cues, at = [], draw(st.integers(0, 3000))
    for _ in range(draw(st.integers(0, 12))):
        length = draw(st.integers(1, 3000))
        mark = draw(st.sampled_from(["", ",", *TERMINAL_PUNCTUATION]))
        space = draw(st.sampled_from(["", " ", "\t"])) if mark else ""
        cues.append(Cue(at, at + length, "w" + mark + space))
        at += length + draw(st.one_of(
            st.integers(-length, 0),
            st.sampled_from([gap_ms - 1, gap_ms, gap_ms + 1]),
            st.integers(0, 6000)))
    return Transcript("vid", cues), gap_ms


@given(_sentence_cases())
@example((Transcript("vid"), 1500))
@example((Transcript("vid", [Cue(0, 10, "w")]), 0))
@example((Transcript("vid", [Cue(0, 10, "w"), Cue(1510, 1600, "w")]),
          1500))
@example((Transcript("vid", [Cue(0, 10, "w. "), Cue(10, 20, "w")]),
          1500))
@example((Transcript("vid", [Cue(0, 10, "w\u2026"),
                             Cue(10, 20, "w")]), 1500))
@settings(max_examples=300, deadline=None)
def test_sentence_bounds_match_loop_reference(case):
    transcript, gap_ms = case
    starts, ends = sentence_bounds(transcript, gap_ms)
    assert starts.dtype == ends.dtype == np.int64
    assert list(zip(starts.tolist(), ends.tolist())) == \
        ref_sentence_spans(transcript, gap_ms)


@pytest.mark.parametrize("block", range(4))
def test_derive_cut_points_matches_loop_reference(block):
    """500 cases a block; see `_snapping_case`."""
    rng = np.random.default_rng(block)
    for _ in range(500):
        shots, transcript, cfg = _snapping_case(rng)
        got = derive_cut_points(shots, transcript, cfg)
        assert got == ref_derive_cut_points(shots, transcript, cfg)
        assert all(type(v) is int for cut in got
                   for v in (cut.cut_ms, cut.source_shot_ms))


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


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_segment_text_matches_loop_reference(seed, n_cues):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 60000, size=n_cues)
    cues = [Cue(int(start), int(start) + int(rng.integers(1, 4000)),
                " ".join([f"c{k}"] + [str(w) for w in rng.choice(
                    ["lag", "bug", "boss", "fps"],
                    size=int(rng.integers(0, 4)))]))
            for k, start in enumerate(starts)]
    # parsing sorts the cues by start
    transcript = parse_srt(write_srt(Transcript("vid", cues)), "vid")
    assert len(transcript.cues) == n_cues
    past = [n_cues + 1, n_cues + 2, 10 ** 6]
    picks = [(), (0,), tuple(past), (1, 1, 1)]
    for _ in range(12):
        # any mix of known indices, repeats, 0 and indices past the last
        # cue, in any order
        known = rng.integers(1, n_cues + 1, size=int(rng.integers(0, 8))) \
            if n_cues else []
        extra = rng.choice([0] + past, size=int(rng.integers(0, 3)))
        indices = [int(i) for i in np.concatenate([known, extra])]
        picks.append(tuple(indices[i] for i in rng.permutation(len(indices))))
    for k, cue_indices in enumerate(picks):
        segment = Segment(f"vid_{k:04d}", "vid", 0, 1,
                          cue_indices=cue_indices)
        assert segment_text(segment, transcript) == \
            ref_segment_text(segment, transcript)


def _random_segments(seed, n, bins, max_keyframes, vocab=6):
    """Keyframes and text vectors for n segments. Some segments copy an
    earlier one's keyframes or text, some texts are zero vectors or
    permute an earlier text (an equal norm, but not equal), some entries
    are -0.0, and keyframe counts mix within one set in an order unlike
    the ids'."""
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
            if rng.random() < 0.2:
                keyframes[sid][rng.random((count, 3 * bins)) < 0.2] = -0.0
        draw = rng.random()
        if draw < 0.2:
            texts[sid] = np.zeros(vocab)
        elif k and draw < 0.4:
            texts[sid] = texts[ids[int(rng.integers(k))]].copy()
        elif k and draw < 0.5:
            texts[sid] = rng.permutation(texts[ids[int(rng.integers(k))]])
        elif draw < 0.7:
            # small whole numbers: a permuted copy has exactly equal norm
            texts[sid] = rng.integers(0, 3, size=vocab).astype(float)
        else:
            texts[sid] = rng.random(vocab) * rng.integers(0, 2, size=vocab)
        # -0.0 in place of some zeros, equal to 0.0 but of another sign
        texts[sid][(texts[sid] == 0) & (rng.random(vocab) < 0.5)] = -0.0
    return ids, keyframes, texts


def _one_segment_blocks(enabled):
    """A block budget of one byte puts every segment in its own block."""
    budget = 1 if enabled else clustering._BLOCK_BYTES
    return mock.patch.object(clustering, "_BLOCK_BYTES", budget)


_segment_sets = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 40),
                          st.sampled_from([2, 16]), st.integers(1, 12))


@given(_segment_sets, st.booleans())
@settings(max_examples=120, deadline=None)
def test_context_matrix_matches_loop_reference(spec, one_row_blocks):
    ids, keyframes, _ = _random_segments(*spec)
    with _one_segment_blocks(one_row_blocks):
        got = build_context_matrix(ids, keyframes)
    assert got.ids == tuple(ids)
    assert np.array_equal(got.values, ref_context_matrix(ids, keyframes))


@given(_segment_sets, st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
       st.booleans())
@settings(max_examples=120, deadline=None)
def test_issue_matrix_matches_loop_reference(spec, alpha, one_row_blocks):
    """Any alpha in [0, 1]: away from 0, 0.5 and 1 the blend rounds, so
    only the reference's order of operations gives the same bits."""
    ids, keyframes, texts = _random_segments(*spec)
    with _one_segment_blocks(one_row_blocks):
        got = build_issue_matrix(ids, texts, keyframes, alpha)
    assert got.ids == tuple(ids)
    assert np.array_equal(got.values,
                          ref_issue_matrix(ids, texts, keyframes, alpha))


def _deep_segments(seed):
    """100-150 segments of 1-10 keyframes with 48 bins: at the default
    block budget several blocks, each holding several runs of equal
    keyframe count."""
    n = int(np.random.default_rng(seed).integers(100, 151))
    return _random_segments(seed, n, 16, 10)


@pytest.mark.exhaustive
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("one_row_blocks", [False, True])
def test_deep_context_matrix_matches_loop_reference(seed, one_row_blocks):
    ids, keyframes, _ = _deep_segments(seed)
    with _one_segment_blocks(one_row_blocks):
        got = build_context_matrix(ids, keyframes)
    assert np.array_equal(got.values, ref_context_matrix(ids, keyframes))


@pytest.mark.exhaustive
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("alpha", [0.5, 1 / 3])
def test_deep_issue_matrix_matches_loop_reference(seed, alpha):
    ids, keyframes, texts = _deep_segments(seed)
    assert np.array_equal(build_issue_matrix(ids, texts, keyframes,
                                             alpha).values,
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


def _tied_matrix(seed, n, levels):
    """A random dissimilarity matrix whose entries take only `levels`
    values in (0, 1], so reachabilities and core distances tie often."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(1, levels + 1, size=(n, n)) / levels, 1)
    ids = tuple(f"p{k:02d}" for k in rng.permutation(n))
    return DistanceMatrix(ids=ids, values=upper + upper.T)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 5),
       st.integers(1, 6), st.sampled_from([0.5, 1.0]), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_optics_matches_loop_reference(seed, n, levels, min_pts, eps_max,
                                       cut):
    matrix = _tied_matrix(seed, n, levels)
    eps_cut = eps_max * cut / 4 or 1e-6
    got = optics(matrix, min_pts=min_pts, eps_max=eps_max, eps_cut=eps_cut)
    assert got.labels == ref_optics(matrix, min_pts, eps_max, eps_cut)


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
        got = _grow_one_tree(x, y_idx, rng, min_leaf, max_depth)
        want = ref_grow_tree(x, y_idx, ref_rng, min_leaf, max_depth)
    assert json.dumps(got) == json.dumps(want)
    assert rng.random() == ref_rng.random()  # the same draws were made


def _grow_one_tree(x, y_idx, rng, min_leaf, max_depth):
    """`_grow_tree`'s tree, nested as model.json holds it."""
    nodes = _new_nodes()
    _grow_tree(x, y_idx, rng, min_leaf, max_depth, nodes)
    return _nest_trees(_node_arrays(nodes))[0]


def _thresholds(trees):
    """(feature, threshold) of every split of nested trees."""
    nodes, splits = list(trees), []
    while nodes:
        node = nodes.pop()
        if "leaf" not in node:
            splits.append((node["feature"], node["threshold"]))
            nodes += [node["left"], node["right"]]
    return splits


def _check_forest(x, y_idx, hyper, seed):
    """The flat forest against its loop references: the same model.json
    trees, and the same probability bits on the training rows and on rows
    moved onto each split's threshold."""
    with np.errstate(over="ignore"):  # the "huge" midpoints overflow
        forest = _train_forest(x, y_idx, hyper, seed)
        want = ref_train_forest(x, y_idx, hyper, seed)
    d = x.shape[1]
    model = TrainedModel(kind=KIND_FOREST,
                         feature_names=tuple(f"f{i}" for i in range(d)),
                         mean=np.zeros(d), std=np.ones(d), hyper=hyper,
                         parameters=forest)
    assert (json.dumps(model_to_dict(model)["parameters"]["trees"])
            == json.dumps(want))
    splits = _thresholds(want)
    on_threshold = x[np.arange(len(splits)) % x.shape[0]]  # a copy
    for row, (f, threshold) in zip(on_threshold, splits):
        row[f] = threshold
    probe = np.vstack([x, on_threshold])
    assert _same_bits(predict_proba(model, probe),
                      ref_forest_proba(want, probe))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=10),
       st.integers(1, N_LABELS), st.integers(1, 5),
       st.sampled_from([None, 0, 1, 3]), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_forest_matches_loop_reference(seed, n, kinds, n_classes, min_leaf,
                                       max_depth, n_trees):
    x, y_idx = _random_training_set(seed, n, kinds, n_classes)
    _check_forest(x, y_idx, {"n_trees": n_trees, "min_leaf": min_leaf,
                             "max_depth": max_depth}, seed)


@pytest.mark.exhaustive
@pytest.mark.parametrize("seed", range(4))
def test_deep_forest_matches_loop_reference(seed):
    kinds = [_COLUMN_KINDS[i % len(_COLUMN_KINDS)] for i in range(60)]
    x, y_idx = _random_training_set(seed, 300, kinds, N_LABELS)
    _check_forest(x, y_idx, dict(DEFAULT_HYPER[KIND_FOREST], n_trees=20),
                  seed)


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
@example(seed=0, n=2, d=1, n_classes=1, iterations=1, l2=1e-4,
         learning_rate=0.1, scale=1e-3)
@example(seed=4, n=1, d=6, n_classes=1, iterations=7, l2=1e-4,
         learning_rate=1.0, scale=1.0)
@settings(max_examples=200, deadline=None)
def test_train_logistic_matches_reference(seed, n, d, n_classes, iterations,
                                          l2, learning_rate, scale):
    """Absent classes (n_classes < 5), zero or one step, no L2 penalty, and
    inputs of 1e3 whose logits soon lie far enough apart to underflow. With
    one column the gradient's product must keep the reference's operands,
    as NumPy's other forms of it round differently there; with one row the
    logits' product is a matrix-vector one."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * scale
    y_idx = rng.choice(rng.permutation(N_LABELS)[:n_classes], size=n)
    hyper = {"l2": l2, "iterations": iterations,
             "learning_rate": learning_rate}
    got = _train_logistic(x, y_idx, hyper, seed=0)
    want = ref_train_logistic(x, y_idx, hyper, seed=0)
    assert _same_bits(got["weights"], want["weights"])
    assert _same_bits(got["bias"], want["bias"])


@pytest.mark.parametrize("n, d", [(250, 341), (510, 106)])
def test_train_logistic_matches_reference_at_benchmark_shapes(n, d):
    """The training matrices of the catalog and longplay workloads, whose
    products BLAS blocks as no small hypothesis case does."""
    rng = np.random.default_rng(n + d)
    x = rng.normal(size=(n, d))
    y_idx = rng.integers(0, N_LABELS, size=n)
    hyper = dict(DEFAULT_HYPER[KIND_LOGISTIC], iterations=4)
    got = _train_logistic(x, y_idx, hyper, seed=0)
    want = ref_train_logistic(x, y_idx, hyper, seed=0)
    assert _same_bits(got["weights"], want["weights"])
    assert _same_bits(got["bias"], want["bias"])


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 90), st.integers(1, 30),
       st.integers(1, N_LABELS), st.integers(1, 20), st.integers(0, 5),
       st.integers(1, 40), st.sampled_from([1e-3, 0.01, 1.0]),
       st.sampled_from([0.1, 1.0, 3.0]))
@example(seed=0, n=1, d=1, n_classes=1, hidden=1, epochs=3, batch_size=1,
         learning_rate=0.01, scale=1.0)
@example(seed=1, n=33, d=5, n_classes=5, hidden=7, epochs=2, batch_size=32,
         learning_rate=0.01, scale=1.0)
@example(seed=7, n=90, d=30, n_classes=5, hidden=20, epochs=5,
         batch_size=1, learning_rate=1.0, scale=3.0)  # ends in NaN
@settings(max_examples=100, deadline=None)
def test_train_ffn_matches_reference(seed, n, d, n_classes, hidden, epochs,
                                     batch_size, learning_rate, scale):
    """Absent classes, batches of one row, of the whole set and a short
    last batch, zero epochs, and a learning rate of 1 whose steps diverge,
    so that weights overflow to inf and NaN, which must match too."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * scale
    y_idx = rng.choice(rng.permutation(N_LABELS)[:n_classes], size=n)
    hyper = {"hidden": hidden, "epochs": epochs, "batch_size": batch_size,
             "learning_rate": learning_rate}
    with np.errstate(over="ignore", invalid="ignore"):
        got = _train_ffn(x, y_idx, hyper, seed=seed)
        want = ref_train_ffn(x, y_idx, hyper, seed=seed)
    for key in ("w1", "b1", "w2", "b2"):
        assert _same_bits(got[key], want[key]), key


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




def _stamp(ms, sep, hours):
    """`ms` as hh:mm:ss<sep>fff, as h:mm:ss<sep>fff when `hours` is
    "short", or as mm:ss<sep>fff when it is "none"."""
    h, rem = divmod(ms, 3_600_000)
    mi, rem = divmod(rem, 60_000)
    s, frac = divmod(rem, 1000)
    lead = {"none": "", "short": f"{h}:", "padded": f"{h:02d}:"}[hours]
    return f"{lead}{mi:02d}:{s:02d}{sep}{frac:03d}"


def _pick(rng, weighted):
    """One of the keys of `weighted`, with the odds its values give."""
    keys = list(weighted)
    return keys[rng.choice(len(keys), p=np.array(list(weighted.values()))
                           / sum(weighted.values()))]


_BAD_TIMINGS = [
    "-->", "00:00:01,000 -->", "--> 00:00:02,000", "1 --> 2",
    "00:00:01,000 -> 00:00:02,000", "00:00:01:000 --> 00:00:02:000",
    "00:00:01,0000 --> 00:00:02,000", "00:01.000 --> 00:02.000x",
    "000:00:01,000 --> 00:00:02,000", "00:01.00 --> 00:02.000",
    "00:00:75,000 --> 00:01:99,5", "00:75.000 --> 00:76.000",
    "00:60:01,000 --> 00:60:02,000", "00:00:01,5 --> 00:00:02,000"]
_TEXT_LINES = ["hello there", "<b>the boss</b> clips through", "Wait!",
               "  so ", "<i></i>", "1", "NOTE inside a cue", "a --> b",
               "WEBVTT"]
_SKIPPED_BLOCKS = [["NOTE a comment"], ["NOTE", "spans two lines"],
                   ["STYLE", "::cue { color: red }"],
                   ["REGION", "id:fred width:40%"], ["  NOTE indented"]]
# per format: the odds of each separator, hours form, cue settings and
# lead lines before a timing line
_FORMATS = {
    "srt": ({",": 18, ".": 2}, {"padded": 90, "short": 7, "none": 3},
            {"": 95, " x:1": 5},
            {(): 50, ("1",): 35, ("12",): 5, (" 7 ",): 6, ("intro",): 2,
             ("1", "2"): 2}),
    "vtt": ({".": 97, ",": 3}, {"none": 30, "short": 20, "padded": 50},
            {"": 50, " align:start": 30, " line:0 position:20%": 15,
             "\tsize:50%": 3, "  ": 2},
            {(): 50, ("intro",): 25, ("3",): 15, ("cue-2",): 8,
             ("a", "b"): 2})}


def _random_document(seed, fmt):
    """Cue blocks (lead lines, a timing line, text lines), now and then a
    block of such lines in any order or, in WebVTT, a block the parser
    skips, separated by runs of blank lines. Most timing lines are well
    formed, with an end no earlier than the start; WebVTT documents mostly
    start with a header and its metadata lines."""
    rng = np.random.default_rng(seed)
    seps, hours, settings, leads = _FORMATS[fmt]

    def timing():
        if rng.random() < 0.04:
            return str(rng.choice(_BAD_TIMINGS))
        start = int(rng.integers(0, 10 ** 7))
        end = max(0, start + int(rng.choice([0, -500, 1, 2000, 4999],
                                            p=[.03, .03, .04, .5, .4])))
        form, sep = _pick(rng, hours), _pick(rng, seps)
        arrow = _pick(rng, {" --> ": 8, "-->": 1, " -->\t": 1})
        return (_stamp(start, sep, form) + arrow + _stamp(end, sep, form)
                + _pick(rng, settings))

    def text():
        return [str(rng.choice(_TEXT_LINES))
                for _ in range(int(rng.integers(0, 4)))]

    if fmt == "srt":
        lines = [""] * int(rng.choice([0, 0, 0, 1, 2]))
    else:
        lines = [_pick(rng, {"WEBVTT": 90, "WEBVTT - a title": 3,
                              "WEBVTTX": 2, "webvtt": 2, " WEBVTT": 2,
                              "": 1})]
        lines += list(rng.choice(["Kind: captions", "Language: en"],
                                 size=int(rng.integers(0, 3))))
    for _ in range(int(rng.integers(0, 9))):
        lines += [str(rng.choice(["", "", "", " ", "\t"]))
                  for _ in range(int(rng.integers(1, 3)))]
        kind = _pick(rng, {"cue": 90, "jumble": 4, "skipped": 6})
        if kind == "cue":
            lines += [*_pick(rng, leads), timing(), *text()]
        elif kind == "jumble":
            lines += list(rng.permutation(
                [*_pick(rng, leads), timing(), *text()]))
        elif fmt == "vtt":
            lines += _SKIPPED_BLOCKS[int(rng.integers(len(_SKIPPED_BLOCKS)))]
    return _pick(rng, {"\n": 4, "\r\n": 1}).join(lines)


@pytest.mark.parametrize("fmt, parse, reference", [
    ("srt", parse_srt, ref_parse_srt), ("vtt", parse_vtt, ref_parse_vtt)])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=400, deadline=None)
def test_parsers_match_loop_reference(fmt, parse, reference, seed):
    """An equal transcript, or a ParseError with the same message and
    line."""
    text = _random_document(seed, fmt)
    normalized = utf8_text(text.encode())
    try:
        want = reference(text, "v")
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse(normalized, "v")
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        assert parse(normalized, "v") == want


_PPM_WHITESPACE = b" \t\n\r\x0b\x0c"
_PPM_COMMENTS = [b"", b" camera dump", b"#", b" a # b", b"\tx\r", b" 255 3",
                 b"P6 1 1 255", b" \x0b\x0c "]
_PPM_FIELDS = {"size": {b"1": 30, b"2": 30, b"3": 15, b"0": 3, b"-1": 2,
                        b"+2": 3, b"1_0": 1, b"02": 3, b"x": 2, b"2#c": 2,
                        b"\xff": 1},
               "maxval": {b"255": 85, b"+255": 3, b"0255": 3, b"256": 2,
                          b"65535": 2, b"25_5": 2, b"2.5e2": 1, b"x": 1,
                          b"255#c": 1}}


def _random_ppm(seed):
    """A header of up to four tokens between runs of the six whitespace
    bytes and '#' comments, then a P6 payload of random bytes, many of them
    '#' and whitespace, or P3 samples between such runs, a few samples
    short or past the end. Most headers are well formed."""
    rng = np.random.default_rng(seed)

    def whitespace():
        return bytes(rng.choice(list(_PPM_WHITESPACE),
                                size=int(rng.integers(1, 4))).astype(np.uint8))

    def gap():
        """Whitespace, or now and then a comment, which may abut the token
        before it or miss its LF and run on."""
        parts = [whitespace() if rng.random() < 0.95 else b""]
        while rng.random() < 0.3:
            parts += [b"#", _pick(rng, dict.fromkeys(_PPM_COMMENTS, 1)),
                      _pick(rng, {b"\n": 30, b"": 1, b"\r\n": 3}),
                      whitespace() if rng.random() < 0.5 else b""]
        return b"".join(parts)

    magic = _pick(rng, {b"P6": 45, b"P3": 45, b"P5": 3, b"p6": 1, b"P3#x": 2,
                        b"P": 1, b"#P3": 1})
    fields = [magic, _pick(rng, _PPM_FIELDS["size"]),
              _pick(rng, _PPM_FIELDS["size"]), _pick(rng, _PPM_FIELDS["maxval"])]
    fields = fields[:_pick(rng, {4: 92, 3: 3, 2: 2, 1: 2, 0: 1})]
    data = _pick(rng, {b"": 4, b"\n": 1, b"# lead\n": 1})
    data += b"".join(f + gap() for f in fields[:-1]) + b"".join(fields[-1:])
    try:
        expected = int(fields[1]) * int(fields[2]) * 3
    except (IndexError, ValueError):
        expected = 3
    count = max(0, expected + _pick(rng, {0: 80, -1: 8, 2: 8, -expected: 4}))
    if magic == b"P6" or rng.random() < 0.1:
        data += _pick(rng, {b"\n": 80, b" ": 5, b"\r\n": 5, b"": 5,
                            b" # c\n": 5})
        noisy = rng.random(count) < 0.5
        body = np.where(noisy, rng.choice(list(b"#" + _PPM_WHITESPACE),
                                          size=count),
                        rng.integers(0, 256, size=count))
        return data + bytes(body.astype(np.uint8))
    samples = {str(v).encode(): 20 for v in rng.integers(0, 256, size=8)}
    samples.update({b"256": 1, b"-1": 1, b"+7": 1, b"x": 1, b"1_0": 1})
    return data + b"".join(gap() + _pick(rng, samples) for _ in range(count))


@pytest.mark.parametrize("block", range(5))
def test_ppm_parser_matches_loop_reference(block):
    """An equal array, or a ParseError with the same message, on 500 random
    documents per block, among them well-formed P3 and P6 images."""
    decoded = set()
    for seed in range(500 * block, 500 * block + 500):
        data = _random_ppm(seed)
        try:
            want = ref_parse_ppm_frame(data)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_ppm_frame(data)
            assert str(got.value) == str(exc), data
        else:
            got = parse_ppm_frame(data)
            assert got.dtype == want.dtype and np.array_equal(got, want), data
            decoded.add(next(_ref_ppm_tokens(data, 1))[0])
    assert decoded == {b"P3", b"P6"}


_CSV_FORMATS = {"%.9f": 40, "%.6f": 8, "%.14f": 6, "%.15f": 6, "%.3f": 4,
                "%.1f": 3, "%g": 3, "per column": 10}
_CSV_FAULTS = {
    None: 40, "crlf": 3, "lone cr": 3, "blank line": 3, "no final lf": 3,
    "exponent": 2, "plus": 2, "minus": 2, "space": 2, "16 digits": 2,
    "15 digits": 2, "short for long": 3, "last row": 4, "not utf-8": 2,
    "not ascii": 2, "fraction stamp": 2, "wide stamp": 3, "empty field": 2,
    "extra field": 2, "missing field": 2, "swapped rows": 2, "nul": 1,
    "lone cr in header": 1, "bad header": 1, "luminance": 2}


def _random_descriptor_csv(seed):
    """A descriptor CSV of 0-11 rows and (bins, fault) as drawn. Histogram
    blocks are normalized floats, dyadic fractions that every format
    writes exactly, or unnormalized digits. Timestamps cross digit widths
    (9 to 10, 999 to 1000, 18 to 19 digits), some with leading zeros, and
    values are written with one format, or one per column. About half the
    files then get one fault: another line ending, a blank line, a sign,
    an exponent or a space, a field of 15 or 16 digits, `0.5` for
    `0.500`, a last row of another layout, a byte that is not UTF-8 or not
    ASCII, a cell too many or too few, and more."""
    rng = np.random.default_rng(seed)
    bins = _pick(rng, {1: 4, 2: 4, 16: 1})
    n = int(rng.integers(0, 12))
    kind = _pick(rng, {"normalized": 5, "dyadic": 3, "digits": 2})
    values = rng.random((n, 3, bins))
    if kind == "dyadic":
        values = rng.integers(0, 65, size=(n, 3, bins)) / 64.0
    if kind != "digits":
        values[:, :, -1] = 0.0
        values[:, :, -1] = 1.0 - values.sum(axis=2)
        if kind == "normalized":
            values /= values.sum(axis=2, keepdims=True)
    values = np.column_stack([values.reshape(n, 3 * bins),
                              rng.choice([0.0, 1.0, 0.25, 0.123456789],
                                         size=n)])
    fmt = _pick(rng, _CSV_FORMATS)
    formats = ([_pick(rng, {"%.9f": 3, "%.6f": 1, "%.1f": 1, "%.3f": 1})
                for _ in range(values.shape[1])] if fmt == "per column"
               else [fmt] * values.shape[1])
    first = _pick(rng, {0: 3, 7: 3, 95: 3, 996: 3, 99_996: 2, 10 ** 17 - 3: 1,
                        10 ** 18 - 3: 1})
    stamps = [first + step for step in
              np.cumsum(rng.integers(1, 4, size=n)).tolist()]
    pad = _pick(rng, {0: 8, 4: 2, 20: 1})
    rows = [[f"{stamp:0{pad}d}"] + [f % v for f, v in zip(formats, row)]
            for stamp, row in zip(stamps, values.tolist())]
    header = ["timestamp_ms"] + [f"h{i}" for i in range(3 * bins)] + [
        "luminance"]
    fault = _pick(rng, _CSV_FAULTS)
    r = int(rng.integers(0, n)) if n else 0
    c = int(rng.integers(1, 3 * bins + 2))
    if n and fault in ("exponent", "plus", "minus", "space", "16 digits",
                       "15 digits", "short for long", "not ascii",
                       "empty field", "nul"):
        cell, value = rows[r][c], values[r, c - 1]
        rows[r][c] = {"exponent": f"{value:.2e}", "plus": "+" + cell,
                      "minus": "-" + cell, "space": _pick(rng, {
                          " " + cell: 1, cell + " ": 1}),
                      "16 digits": f"{value:.15f}",
                      "15 digits": f"{value:.14f}",
                      "short for long": cell.rstrip("0"),
                      "not ascii": cell.replace("0", "٣", 1) + "é",
                      "empty field": "", "nul": cell + "\x00"}[fault]
    elif n and fault == "last row":
        rows[-1][1:] = [f"{v:.8f}" for v in values[-1]]
    elif n and fault == "fraction stamp":
        rows[r][0] += ".5"
    elif n and fault == "wide stamp":
        rows[r][0] = rows[r][0].zfill(len(rows[r][0]) + 2)
    elif n and fault == "extra field":
        rows[r].append("0.5")
    elif n and fault == "missing field":
        rows[r].pop()
    elif n > 1 and fault == "swapped rows":
        rows[r], rows[r - 1] = rows[r - 1], rows[r]
    elif n and fault == "luminance":
        rows[r][-1] = "1.500000000"
    elif fault == "bad header":
        header.pop(1)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if fault == "blank line":
        lines.insert(int(rng.integers(1, len(lines) + 1)), "")
    ends = ["\n"] * len(lines)
    if fault == "crlf":
        ends = ["\r\n"] * len(lines)
    elif fault == "lone cr":
        ends[int(rng.integers(0, len(lines)))] = "\r"
    elif fault == "lone cr in header":
        lines[0] = lines[0].replace(",", ",\r", 1)
    elif fault == "no final lf":
        ends[-1] = ""
    data = "".join(line + end for line, end in zip(lines, ends)).encode()
    if fault == "not utf-8":
        at = int(rng.integers(0, len(data) + 1))
        data = data[:at] + b"\xff" + data[at:]
    return data, bins, fault


def _csv_outcome(parse, path):
    """The bytes of each column `parse` returns, or its ParseError."""
    try:
        columns = parse(path)
    except ParseError as exc:
        return str(exc), exc.line
    return [(c.dtype.str, c.shape, c.tobytes()) for c in columns]


def _read_columns(path):
    track = read_descriptor_csv(path)
    return track.timestamps_ms, track.histograms, track.luminance


def _parse_columns(path):
    """The columns as `read_descriptor_csv` parses them, before the track
    checks, without their rows' line numbers."""
    with naming(path):
        return frames._parse_descriptor_csv(path)[:3]


@given(seed=st.integers(0, 2 ** 32 - 1),
       block_bytes=st.sampled_from([1 << 18, 700, 1]))
@settings(max_examples=400, deadline=None)
def test_descriptor_csv_matches_loadtxt_reference(tmp_path_factory, seed,
                                                  block_bytes):
    """The column bytes of one np.loadtxt in text mode, or the same
    ParseError message and line, with row blocks of every size; the
    columns before the track checks too, whenever the file is UTF-8."""
    data, _, _ = _random_descriptor_csv(seed)
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(data)
    with mock.patch.object(frames, "_ROW_BLOCK_BYTES", block_bytes):
        assert (_csv_outcome(_read_columns, path)
                == _csv_outcome(ref_read_descriptor_csv, path)), data
        if b"\xff" not in data:
            assert (_csv_outcome(_parse_columns, path)
                    == _csv_outcome(ref_parse_descriptor_csv, path)), data


def test_random_descriptor_csvs_reach_both_readers():
    """The oracle's files take the block decoder and np.loadtxt, and both
    end in columns and in errors."""
    seen = set()
    for seed in range(400):
        data, bins, fault = _random_descriptor_csv(seed)
        decoded = frames._decode_fixed_rows([data], 3 * bins,
                                            len(data)) is not None
        seen.add((decoded, fault is None))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def _window_of(data, rows, shift):
    """`rows` times the length of the first data line of `data`, plus
    `shift` bytes: a window that lines straddle."""
    lines = data.split(b"\n")
    line = len(lines[1]) + 1 if len(lines) > 1 else 16
    return max(1, rows * line + shift)


@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 3),
       shift=st.integers(-40, 40))
@settings(max_examples=300, deadline=None)
def test_windowed_descriptor_csv_matches_loadtxt_reference(
        tmp_path_factory, seed, rows, shift):
    """Read through windows of a few rows, so that lines straddle windows
    and a run of one timestamp width starts mid-window: the column bytes
    of one np.loadtxt in text mode, or the same ParseError message and
    line; the columns before the track checks too."""
    data, _, _ = _random_descriptor_csv(seed)
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(data)
    with mock.patch.object(errors, "WINDOW_BYTES",
                           _window_of(data, rows, shift)):
        assert (_csv_outcome(_read_columns, path)
                == _csv_outcome(ref_read_descriptor_csv, path)), data
        if b"\xff" not in data:
            assert (_csv_outcome(_parse_columns, path)
                    == _csv_outcome(ref_parse_descriptor_csv, path)), data


def _written_csv_lines(n=40):
    """The lines of a `write_descriptor_csv` file of n rows, timestamps of
    1 to 5 digits, and the bytes of a window of 3.5 rows."""
    rng = np.random.default_rng(3)
    raw = rng.random((n, 3, 16))
    stamps = np.arange(n, dtype=np.int64) ** 2 * 7
    track = VideoTrack("vid", stamps,
                       (raw / raw.sum(axis=2, keepdims=True)).reshape(n, 48),
                       rng.random(n), int(stamps[-1]))
    lines = write_descriptor_csv(track).split(b"\n")
    return lines, 7 * len(lines[-2]) // 2


def _refuse(*args):
    raise AssertionError("np.loadtxt fallback reached")


def test_windowed_descriptor_csv_takes_the_block_decoder(tmp_path,
                                                         monkeypatch):
    """A `write_descriptor_csv` file read 3.5 rows at a time, with and
    without a byte-order mark, gives the columns of np.loadtxt and never
    reaches it."""
    lines, window = _written_csv_lines()
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"\n".join(lines))
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    want = _csv_outcome(ref_read_descriptor_csv, plain)
    monkeypatch.setattr(errors, "WINDOW_BYTES", window)
    monkeypatch.setattr(frames, "_load_rows", _refuse)
    for path in (plain, marked):
        assert _csv_outcome(_read_columns, path) == want


def _eighths_track(n=30):
    """A track of n frames, timestamps of 1 to 5 digits, whose values are
    multiples of 1/8: `%.3f`, `%.6f` and `%.9f` all write them exactly."""
    rng = np.random.default_rng(9)
    hists = rng.multinomial(8, [1 / 16] * 16, size=(n, 3)) / 8
    stamps = np.arange(n, dtype=np.int64) ** 3 * 3
    return VideoTrack("vid", stamps, hists.reshape(n, 48),
                      rng.integers(0, 9, size=n) / 8, int(stamps[-1]))


@pytest.mark.parametrize("layout", ["written", "%.6f", "%.3f", "per column"])
def test_the_block_decoder_takes_only_the_written_layout(tmp_path,
                                                         monkeypatch, layout):
    """The rows `write_descriptor_csv` writes are decoded as byte blocks,
    without np.loadtxt; the same track written with `%.6f`, `%.3f` or one
    format per column is declined, and np.loadtxt reads it to the same
    columns as the reference, the written file's."""
    track = _eighths_track()
    path = tmp_path / "d.csv"
    if layout == "written":
        path.write_bytes(write_descriptor_csv(track))
    else:
        formats = [("%.9f", "%.6f", "%.3f")[c % 3] if layout == "per column"
                   else layout for c in range(49)]
        values = np.column_stack([track.histograms, track.luminance])
        rows = [",".join([str(ts)] + [f % v for f, v in zip(formats, row)])
                for ts, row in zip(track.timestamps_ms.tolist(),
                                   values.tolist())]
        path.write_text(
            "\n".join([",".join(descriptor_csv_header())] + rows) + "\n")
    data = path.read_bytes()
    decoded = frames._decode_fixed_rows([data], 48, len(data))
    assert (decoded is not None) == (layout == "written")
    want = _csv_outcome(ref_read_descriptor_csv, path)
    assert isinstance(want, list)
    if decoded is not None:
        monkeypatch.setattr(frames, "_load_rows", _refuse)
    assert _csv_outcome(_read_columns, path) == want
    written = tmp_path / "written.csv"
    written.write_bytes(write_descriptor_csv(track))
    assert want == _csv_outcome(ref_read_descriptor_csv, written)


@pytest.mark.parametrize("fault, line", [
    ("crlf", None), ("no final lf", None), ("non-digit", 31),
    ("not utf-8", 31)])
def test_windowed_descriptor_csv_declined_in_a_later_window(
        tmp_path, monkeypatch, fault, line):
    """A fault the block decoder declines, only in the ninth window: a CR,
    no final LF, a byte that is not a digit or not UTF-8. The file is read
    whole for np.loadtxt and gives its columns or its ParseError line."""
    lines, window = _written_csv_lines()
    if fault == "crlf":
        lines[30] += b"\r"
    elif fault != "no final lf":
        lines[30] = (lines[30][:-3] + (b"x" if fault == "non-digit"
                                       else b"\xff") + lines[30][-2:])
    data = b"\n".join(lines)
    path = tmp_path / "d.csv"
    path.write_bytes(data.removesuffix(b"\n") if fault == "no final lf"
                     else data)
    assert len(b"\n".join(lines[:30])) > 8 * window
    monkeypatch.setattr(errors, "WINDOW_BYTES", window)
    got = _csv_outcome(_read_columns, path)
    assert got == _csv_outcome(ref_read_descriptor_csv, path)
    if line is None:
        path.write_bytes(b"\n".join(_written_csv_lines()[0]))
        assert got == _csv_outcome(_read_columns, path)
    else:
        assert got[1] == line


@pytest.mark.parametrize("end", [b"\n", b""])
def test_header_only_descriptor_csv_through_a_small_window(
        tmp_path, monkeypatch, end):
    """A header line longer than the window, with or without its LF: no
    rows, as np.loadtxt reads them."""
    path = tmp_path / "d.csv"
    path.write_bytes(",".join(descriptor_csv_header()).encode() + end)
    monkeypatch.setattr(errors, "WINDOW_BYTES", 8)
    got = _csv_outcome(_parse_columns, path)
    assert got == _csv_outcome(ref_parse_descriptor_csv, path)
    assert [shape for _, shape, _ in got] == [(0,), (0, 48), (0,)]


def _long_track(seconds, fps, seed):
    """A track of random normalized 48-bin histograms, one frame every
    1000 / fps ms for `seconds`."""
    rng = np.random.default_rng(seed)
    n = seconds * fps
    raw = rng.random((n, 3, 16))
    return VideoTrack("vid", np.arange(n, dtype=np.int64) * (1000 // fps),
                      (raw / raw.sum(axis=2, keepdims=True)).reshape(n, 48),
                      rng.random(n), seconds * 1000)


@pytest.mark.exhaustive
@pytest.mark.parametrize("seconds, fps", [(8 * 3600, 1), (1800, 5)])
@pytest.mark.parametrize("fault", [None, "luminance", "last row"])
def test_long_descriptor_csv_matches_loadtxt_reference(tmp_path, seconds,
                                                       fps, fault):
    """An 8-hour 1 fps track (28,800 rows) and a 30-minute 5 fps track,
    many row blocks over timestamps of 1 to 8 digits: the same column
    bytes as np.loadtxt, or the same error, late in the file."""
    track = _long_track(seconds, fps, seed=seconds + fps)
    lines = write_descriptor_csv(track).split(b"\n")
    if fault == "luminance":
        lines[-100] = lines[-100].rsplit(b",", 1)[0] + b",1.500000000"
    elif fault == "last row":
        lines[-2] = lines[-2].replace(b",", b", ", 1)
    path = tmp_path / "d.csv"
    path.write_bytes(b"\n".join(lines))
    data = path.read_bytes()
    assert (frames._decode_fixed_rows([data], 48, len(data)) is None) == (
        fault == "last row")
    assert (_csv_outcome(_read_columns, path)
            == _csv_outcome(ref_read_descriptor_csv, path))


def _written_values(rng, shape, kinds):
    """Values in [0, 1] of the kinds named, each cell of a kind drawn
    alike: uniform floats; exact ties k/2**m with m >= 10, whose 1e9
    multiple can end in exactly .5; 9-decimal strings as parsed; 10-decimal
    strings ending in 5, within an ulp of a tie once scaled; and the edges
    0, 1, 0.9999999995, 5e-10 and 1/1024."""
    m = rng.integers(10, 41, size=shape)
    nine = rng.integers(0, 10 ** 9 + 1, size=shape)
    drawn = {
        "uniform": rng.random(shape),
        "dyadic": rng.integers(0, 2 ** m + 1) / 2.0 ** m,
        "nine decimals": nine / 1e9,  # the double strtod gives the string
        "near ties": (10 * np.minimum(nine, 10 ** 9 - 1) + 5) / 1e10,
        "edges": rng.choice([0.0, 1.0, 0.9999999995, 5e-10, 1 / 1024],
                            size=shape),
    }
    pick = rng.choice(kinds, size=shape)
    return np.choose(np.searchsorted(sorted(drawn), pick),
                     [drawn[kind] for kind in sorted(drawn)])


# a value or a timestamp that sends the whole track to `%`
_WRITER_FAULTS = (None, "-0.0", "negative", "nan", "inf", "-inf", "above 1",
                  "negative stamp")


@given(bins=st.integers(2, 64),
       stamps=st.lists(st.one_of(
           st.integers(0, 2 ** 63 - 1), st.integers(0, 10 ** 6),
           st.sampled_from([0, 9, 10, 999, 1000, 10 ** 18 - 1, 10 ** 18,
                            2 ** 63 - 1])), max_size=12),
       ordered=st.booleans(),
       kinds=st.lists(st.sampled_from(["uniform", "dyadic", "nine decimals",
                                       "near ties", "edges"]),
                      min_size=1, max_size=5, unique=True),
       fault=st.sampled_from(_WRITER_FAULTS),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
@example(bins=16, stamps=[0, 5, 40, 700, 1500, 9999], ordered=True,
         kinds=["dyadic", "near ties", "edges"], fault=None, seed=1)
def test_descriptor_csv_writes_the_bytes_of_per_row_format(
        bins, stamps, ordered, kinds, fault, seed):
    """The bytes of `%d` and `%.9f` row by row: timestamps of 1-19 digits
    in runs of one width, or in any order; values of every kind, exact
    and near ties among them; and one value or timestamp, perhaps, that
    only `%` writes."""
    rng = np.random.default_rng(seed)
    n = len(stamps)
    values = _written_values(rng, (n, 3 * bins + 1), kinds)
    stamps = np.array(sorted(stamps) if ordered else stamps, dtype=np.int64)
    if n and fault == "negative stamp":
        stamps[rng.integers(n)] = -int(rng.integers(1, 10 ** 6))
    elif n and fault is not None:
        values[rng.integers(n), rng.integers(3 * bins + 1)] = {
            "-0.0": -0.0, "negative": -rng.random(), "nan": np.nan,
            "inf": np.inf, "-inf": -np.inf,
            "above 1": 1 + rng.random() * 10.0 ** rng.integers(-12, 7),
        }[fault]
    track = VideoTrack("vid", stamps, values[:, :-1].copy(),
                       values[:, -1].copy())
    assert (write_descriptor_csv(track)
            == ref_write_descriptor_csv(track).encode())


@pytest.mark.exhaustive
@pytest.mark.parametrize("seconds, fps", [(8 * 3600, 1), (1800, 5)])
@pytest.mark.parametrize("dyadic", [False, True])
def test_long_descriptor_csv_writes_the_bytes_of_per_row_format(
        seconds, fps, dyadic):
    """An 8-hour 1 fps track (28,800 rows) and a 30-minute 5 fps track of
    real-valued bins, whose few near-ties are formatted apart, or of bins
    in 1/1024 steps, as from a 32 x 32 frame, among them many exact ties:
    the bytes of `%`, row by row."""
    track = _long_track(seconds, fps, seed=seconds + fps)
    if dyadic:
        track.histograms = np.floor(track.histograms * 1024) / 1024
    assert (write_descriptor_csv(track)
            == ref_write_descriptor_csv(track).encode())


@pytest.mark.exhaustive
def test_long_features_match_loop_references():
    """Three 30-minute 5 fps videos (9,000 frames each) with dense, partly
    overlapping cues, cut into about 1,000 segments whose rows come in a
    random order: the video, speech and text rows of the loop references,
    bit for bit."""
    rng = np.random.default_rng(29)
    tracks, transcripts, segments = {}, {}, []
    for v in range(3):
        video_id = f"vid_{v}"
        tracks[video_id] = dataclasses.replace(
            _long_track(1800, 5, seed=v), video_id=video_id)
        starts = np.cumsum(rng.integers(500, 4000, size=700))
        starts = starts[starts < 1_800_000]
        transcripts[video_id] = _transcript(video_id, zip(
            starts.tolist(), rng.integers(0, 5000, size=starts.size).tolist(),
            rng.integers(0, 12, size=starts.size).tolist()))
        # cuts that tile the video, a few of them equal: empty segments
        cuts = np.sort(rng.integers(0, 1_800_000, size=332)).tolist()
        for k, (start, end) in enumerate(zip([0] + cuts, cuts + [1_800_000])):
            segments.append(Segment(f"{video_id}_{k:04d}", video_id, start,
                                    end))
    segments = [segments[i] for i in rng.permutation(len(segments))]
    texts = [" ".join(rng.choice(_TEXT_WORDS, size=rng.integers(0, 30)))
             for _ in segments]
    documents = document_terms(texts, 2, {"the", "a"})
    vocab = fit_vocabulary(documents, 2)
    assert len(segments) == 999 and len(vocab.terms) > 50
    video = video_features(segments, tracks)
    speech = speech_features(segments, transcripts)
    text = text_features(documents, vocab)
    # each track's columns as lists, made once for the reference to scan
    columns_of = {video_id: SimpleNamespace(
        timestamps_ms=track.timestamps_ms.tolist(),
        histograms=list(track.histograms),
        luminance=track.luminance.tolist())
        for video_id, track in tracks.items()}
    for k, segment in enumerate(segments):
        assert video[k].tobytes() == ref_video_values(
            segment, columns_of[segment.video_id]).tobytes()
        assert speech[k].tobytes() == ref_speech_values(
            segment, transcripts[segment.video_id]).tobytes()
        assert text[k].tobytes() == ref_text_values(
            texts[k], vocab, 2, {"the", "a"}).tobytes()


def ref_smote_oversample(x, y, k_neighbors, seed, names=None):
    """`smote_oversample` with each class's pairwise differences as one
    m x m x d array."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    majority = counts.max()
    rng = np.random.default_rng(seed)
    synth_x, synth_y = [], []
    for cls, count in zip(classes, counts):
        if count == majority:
            continue
        members = x[y == cls]
        k = min(k_neighbors, count - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = members[:, None, :] - members[None, :, :]
            dists = np.sqrt((diffs ** 2).sum(axis=2))
        if not np.isfinite(dists).all():
            gaps = np.abs(diffs).max(axis=(0, 1))
            j = int(np.argmax(gaps))
            name = names[j] if names is not None else f"f{j}"
            raise DataError(f"feature {name!r} is too large for SMOTE: the "
                            f"distances between class {cls!r} rows overflow")
        np.fill_diagonal(dists, np.inf)
        neighbor_ids = np.argsort(dists, axis=1, kind="stable")[:, :k]
        for _ in range(majority - count):
            base = int(rng.integers(count))
            nn = members[neighbor_ids[base][int(rng.integers(k))]]
            u = rng.random()
            synth_x.append(members[base] + u * (nn - members[base]))
            synth_y.append(cls)
    if not synth_x:
        return x.copy(), y.copy()
    return (np.vstack([x, np.array(synth_x)]),
            np.concatenate([y, np.array(synth_y, dtype=y.dtype)]))


def _smote_outcome(smote, *args):
    """The bytes of each array `smote` returns, or its DataError."""
    try:
        return [a.tobytes() for a in smote(*args)]
    except DataError as exc:
        return str(exc)


@given(seed=st.integers(0, 2 ** 32 - 1),
       block=st.sampled_from([1, 300, 4 << 20]),
       big=st.sampled_from([0, 1, 2]))
@settings(max_examples=150, deadline=None)
def test_smote_matches_whole_class_reference(seed, block, big):
    """Classes of 2 to 14 rows, with tied rows and zero cells, in blocks
    of one row, of a few rows or whole: the bytes of the reference. With
    one or two columns so large that the distances overflow, the same
    column named."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(2, 15, size=int(rng.integers(2, 4)))
    y = np.repeat(np.array(["a", "b", "c"])[:counts.size], counts)
    d = int(rng.integers(1, 6))
    x = rng.normal(size=(y.size, d)) * rng.choice([1.0, 1e3], size=d)
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.integers(y.size)] = x[0]
    for j in rng.choice(d, size=min(big, d), replace=False):
        x[:, j] *= float(rng.choice([1e160, 1e170]))
    k = int(rng.integers(1, 6))
    names = [f"col{j}" for j in range(d)]
    with mock.patch.object(features, "_BLOCK_BYTES", block):
        got = _smote_outcome(smote_oversample, x, y, k, seed, names)
    assert got == _smote_outcome(ref_smote_oversample, x, y, k, seed, names)
    if not big:
        assert not isinstance(got, str)
