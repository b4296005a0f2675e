"""Cut a video into segments: shot transitions, reaction shift, sentence snap.

Shot transitions alone make bad cut points for gameplay footage: the
streamer's verbal reaction to an anomaly lags the visual event and then runs
past it. Each detected transition is therefore shifted by k seconds and, if
someone is speaking at (or shortly after) the shifted time, the cut snaps to
the end of that sentence. The segments between consecutive cuts tile
[0, duration) exactly.

The shot detector flags frame i when the L1 histogram distance to frame
i-1 exceeds mean + alpha * std of the preceding window of distances.
"""

from __future__ import annotations

import enum
import json
import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DataError, check_shape, count, file_name, positive,
                     positive_int)
from .frames import VideoTrack
from .subtitles import DEFAULT_GAP_MS, Transcript, sentence_bounds

log = logging.getLogger(__name__)


class SnapRule(enum.Enum):
    SENTENCE_END = "sentence_end"
    SILENCE_PASSTHROUGH = "silence_passthrough"


@dataclass(frozen=True)
class CutPoint:
    cut_ms: int
    source_shot_ms: int
    snap_rule: SnapRule


@dataclass(frozen=True)
class Segment:
    segment_id: str
    video_id: str
    start_ms: int
    end_ms: int
    cue_indices: tuple[int, ...] = ()
    keyframe_timestamps: tuple[int, ...] = ()

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms


# a segments.jsonl row, as write_segments_jsonl writes it
SEGMENT_SHAPE = {"segment_id": file_name, "video_id": str,
                 "start_ms": count, "end_ms": count, "cue_indices": [count],
                 "keyframe_timestamps": [count]}


@dataclass
class SegmenterConfig:
    k_seconds: int = 5          # streamer reaction shift; evaluated set {0, 5, 10}
    alpha: float = 3.0          # adaptive threshold multiplier
    window: int = 24            # sliding window length, in distances
    min_shot_ms: int = 2000
    min_segment_ms: int = 3000
    silence_ms: int = 3000
    gap_ms: int = DEFAULT_GAP_MS
    max_keyframes: int = 10

    def validate(self) -> None:
        check_shape(vars(self), SEGMENTER_SHAPE, "segmenter")


# the range of each SegmenterConfig field (see check_shape)
SEGMENTER_SHAPE = {"k_seconds": count, "alpha": positive,
                   "window": positive_int, "min_shot_ms": count,
                   "min_segment_ms": count, "silence_ms": count,
                   "gap_ms": count, "max_keyframes": positive_int}


_THRESHOLD_ROWS = 2048  # the windows `adaptive_thresholds` reduces at once


def adaptive_thresholds(dists: np.ndarray, window: int,
                        alpha: float) -> np.ndarray:
    """mean + alpha * std of the `window` distances before each one.

    dists[j] = d(j, j+1). The first window - 1 thresholds see fewer
    distances; thresholds[0] sees none and is NaN. Each value is
    bit-identical to `w.mean() + alpha * w.std()` over its own window;
    the full windows are taken _THRESHOLD_ROWS at a time.
    """
    thresholds = np.full(dists.size, np.nan)
    for i in range(1, min(window, dists.size)):
        head = dists[:i]
        thresholds[i] = head.mean() + alpha * head.std()
    if dists.size > window:
        windows = sliding_window_view(dists[:-1], window)
        for at in range(0, windows.shape[0], _THRESHOLD_ROWS):
            chunk = windows[at:at + _THRESHOLD_ROWS]
            thresholds[window + at:window + at + chunk.shape[0]] = (
                chunk.mean(axis=1) + alpha * chunk.std(axis=1))
    return thresholds


def detect_shot_transitions(track: VideoTrack,
                            cfg: SegmenterConfig) -> list[int]:
    """Adaptive-threshold histogram-difference shot detection: the
    timestamps of the accepted transitions.

    Frame i is a transition when d(h_i, h_{i-1}) > mu_w + alpha * sigma_w
    over the previous `window` distances (at least one required) and the
    previous accepted transition is at least min_shot_ms back.
    """
    cfg.validate()
    stamps = track.timestamps_ms
    if stamps.size < 2:
        log.warning("track %s has %d frame(s); no transitions detectable",
                    track.video_id, stamps.size)
        return []
    dists = track.motion
    thresholds = adaptive_thresholds(dists, cfg.window, cfg.alpha)
    shots: list[int] = []
    for ts in stamps[np.flatnonzero(dists > thresholds) + 1].tolist():
        if not shots or ts - shots[-1] >= cfg.min_shot_ms:
            shots.append(ts)
    return shots


def derive_cut_points(shots: list[int], transcript: Transcript,
                      cfg: SegmenterConfig) -> list[CutPoint]:
    """Shift each shot time by k seconds and snap to the active sentence's
    end.

    If no sentence is active at the shifted time and none starts within
    silence_ms after it, nobody is speaking: cut exactly at the shifted time.
    The cues must be in start order, as `Transcript` holds them, so that
    sentence starts never decrease.
    """
    cfg.validate()
    starts, ends = sentence_bounds(transcript, cfg.gap_ms)
    shifted = np.array(shots, dtype=np.int64) + cfg.k_seconds * 1000
    # the running maximum of ends first passes t at the first sentence
    # that ends after t; with starts in order, that sentence starts at or
    # before t, and so is active, just when it comes before the first
    # sentence starting after t
    active = np.searchsorted(np.maximum.accumulate(ends), shifted,
                             side="right").tolist()
    later = np.searchsorted(starts, shifted, side="right").tolist()
    starts, ends = starts.tolist(), ends.tolist()
    cuts: dict[int, CutPoint] = {}
    for shot, at, i, j in zip(shots, shifted.tolist(), active, later):
        if i < j or (j < len(starts) and starts[j] <= at + cfg.silence_ms):
            cut = CutPoint(cut_ms=ends[min(i, j)], source_shot_ms=shot,
                           snap_rule=SnapRule.SENTENCE_END)
        else:
            cut = CutPoint(cut_ms=at, source_shot_ms=shot,
                           snap_rule=SnapRule.SILENCE_PASSTHROUGH)
        cuts.setdefault(cut.cut_ms, cut)  # collapse duplicate cut times
    return [cuts[ms] for ms in sorted(cuts)]


def build_segments(track: VideoTrack, cuts: list[CutPoint],
                   transcript: Transcript, cfg: SegmenterConfig) -> list[Segment]:
    """Tile [0, duration) between cuts; merge sub-minimum segments.

    Each segment carries the cues whose midpoint falls inside it and up to
    max_keyframes keyframes: the first frame at or after each shot inside
    it, else the frame nearest its middle. A segment shorter than
    min_segment_ms merges into its predecessor (into its successor when it
    is the first).
    """
    cfg.validate()
    duration = track.duration_ms
    if duration <= 0:
        raise DataError(f"video {track.video_id} has no duration")
    for cut in cuts:
        if not 0 < cut.cut_ms < duration:
            raise DataError(f"cut at {cut.cut_ms} ms outside (0, {duration})")
    bounds = [0] + sorted({c.cut_ms for c in cuts}) + [duration]
    # a piece joins its predecessor when either is short, so only the
    # first piece can stay short, and only when it is the only one
    pieces = [[0, bounds[1]]]
    for start, end in zip(bounds[1:], bounds[2:]):
        last = pieces[-1]
        if min(last[1] - last[0], end - start) < cfg.min_segment_ms:
            last[1] = end
        else:
            pieces.append([start, end])

    stamps = track.timestamps_ms
    shots = np.unique(np.array([c.source_shot_ms for c in cuts],
                               dtype=np.int64))
    # a shot's keyframe is the first frame at or after it, when that frame
    # lies in the shot's piece. Of the shots that find one frame, only the
    # last can lie in the frame's piece, so the others drop out, and so do
    # the shots past the last frame, which find none
    frame_rows = np.searchsorted(stamps, shots)
    kept = np.diff(frame_rows, append=stamps.size) != 0
    shots, shot_frames = shots[kept], stamps[frame_rows[kept]].tolist()
    edges = np.array(pieces)
    shot_runs = np.searchsorted(shots, edges).tolist()
    frame_runs = [slice(*run) for run in np.searchsorted(stamps, edges)]
    mids = np.array([(c.start_ms + c.end_ms) // 2 for c in transcript.cues],
                    dtype=np.int64)
    by_mid = np.argsort(mids, kind="stable")
    # the cues of each piece: a run of by_mid, put back in transcript order
    cue_runs = np.searchsorted(mids[by_mid], edges).tolist()
    by_mid = by_mid.tolist()
    segments = []
    for idx, ((start, end), (lo, hi), (first, stop), rows) in enumerate(
            zip(pieces, cue_runs, shot_runs, frame_runs)):
        keyframes = [ts for ts in shot_frames[first:stop] if ts < end]
        if not keyframes:  # the frame nearest the middle, if any
            inside = stamps[rows]
            if inside.size:
                keyframes = [int(inside[np.argmin(
                    np.abs(inside - (start + end) // 2))])]
            else:
                log.warning("segment %s_%04d [%d, %d) contains no frames",
                            track.video_id, idx, start, end)
        segments.append(Segment(
            segment_id=f"{track.video_id}_{idx:04d}",
            video_id=track.video_id,
            start_ms=start, end_ms=end,
            cue_indices=tuple(i + 1 for i in sorted(by_mid[lo:hi])),
            keyframe_timestamps=tuple(keyframes[:cfg.max_keyframes]),
        ))
    return segments


def segment_video(track: VideoTrack, transcript: Transcript,
                  cfg: SegmenterConfig) -> list[Segment]:
    shots = detect_shot_transitions(track, cfg)
    cuts = derive_cut_points(shots, transcript, cfg)
    # subtitles can outlast the track: a cut snapped to a sentence ending
    # at or past the video end adds no boundary
    cuts = [c for c in cuts if c.cut_ms < track.duration_ms]
    return build_segments(track, cuts, transcript, cfg)


def segment_from_dict(row: dict) -> Segment:
    """The segment of a SEGMENT_SHAPE row."""
    return Segment(**{key: tuple(row[key]) if isinstance(row[key], list)
                      else row[key] for key in SEGMENT_SHAPE})


def write_segments_jsonl(segments: list[Segment]) -> str:
    return "".join(json.dumps(vars(s), sort_keys=True) + "\n"
                   for s in segments)
