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

from .errors import DataError
from .frames import VideoTrack
from .subtitles import DEFAULT_GAP_MS, SentenceSpan, Transcript, sentence_spans

log = logging.getLogger(__name__)


class SnapRule(enum.Enum):
    SENTENCE_END = "sentence_end"
    SILENCE_PASSTHROUGH = "silence_passthrough"


@dataclass(frozen=True)
class ShotTransition:
    timestamp_ms: int
    score: float


@dataclass(frozen=True)
class CutPoint:
    cut_ms: int
    source_shot_ms: int
    shifted_ms: int
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
        if self.k_seconds < 0:
            raise DataError("k_seconds must be >= 0")
        if self.alpha <= 0:
            raise DataError("alpha must be > 0")
        if self.window < 1:
            raise DataError("window must be >= 1")
        for name in ("min_shot_ms", "min_segment_ms", "silence_ms", "gap_ms"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        if self.max_keyframes < 1:
            raise DataError("max_keyframes must be >= 1")


def adaptive_thresholds(dists: np.ndarray, window: int,
                        alpha: float) -> np.ndarray:
    """mean + alpha * std of the `window` distances before each one.

    dists[j] = d(j, j+1). The first window - 1 thresholds see fewer
    distances; thresholds[0] sees none and is NaN. Each value is
    bit-identical to `w.mean() + alpha * w.std()` over its own window.
    """
    thresholds = np.full(dists.size, np.nan)
    for i in range(1, min(window, dists.size)):
        head = dists[:i]
        thresholds[i] = head.mean() + alpha * head.std()
    if dists.size > window:
        windows = sliding_window_view(dists[:-1], window)
        thresholds[window:] = (windows.mean(axis=1)
                               + alpha * windows.std(axis=1))
    return thresholds


def detect_shot_transitions(track: VideoTrack,
                            cfg: SegmenterConfig) -> list[ShotTransition]:
    """Adaptive-threshold histogram-difference shot detection.

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
    dists = np.abs(np.diff(track.histograms, axis=0)).sum(axis=1)
    thresholds = adaptive_thresholds(dists, cfg.window, cfg.alpha)
    transitions: list[ShotTransition] = []
    prev_ms: int | None = None
    for i in np.flatnonzero(dists > thresholds):
        ts = int(stamps[i + 1])
        if prev_ms is not None and ts - prev_ms < cfg.min_shot_ms:
            continue
        transitions.append(ShotTransition(timestamp_ms=ts, score=float(dists[i])))
        prev_ms = ts
    return transitions


def _span_for_shifted(spans: list[SentenceSpan], shifted_ms: int,
                      silence_ms: int) -> SentenceSpan | None:
    for span in spans:
        if span.start_ms <= shifted_ms < span.end_ms:
            return span
        if shifted_ms < span.start_ms <= shifted_ms + silence_ms:
            return span
        if span.start_ms > shifted_ms + silence_ms:
            break
    return None


def derive_cut_points(shots: list[ShotTransition], transcript: Transcript,
                      cfg: SegmenterConfig) -> list[CutPoint]:
    """Shift each shot by k seconds and snap to the active sentence's end.

    If no sentence is active at the shifted time and none starts within
    silence_ms after it, nobody is speaking: cut exactly at the shifted time.
    """
    cfg.validate()
    spans = sentence_spans(transcript, cfg.gap_ms)
    cuts: dict[int, CutPoint] = {}
    for shot in shots:
        shifted = shot.timestamp_ms + cfg.k_seconds * 1000
        span = _span_for_shifted(spans, shifted, cfg.silence_ms)
        if span is not None:
            cut = CutPoint(cut_ms=span.end_ms, source_shot_ms=shot.timestamp_ms,
                           shifted_ms=shifted, snap_rule=SnapRule.SENTENCE_END)
        else:
            cut = CutPoint(cut_ms=shifted, source_shot_ms=shot.timestamp_ms,
                           shifted_ms=shifted,
                           snap_rule=SnapRule.SILENCE_PASSTHROUGH)
        cuts.setdefault(cut.cut_ms, cut)  # collapse duplicate cut times
    return [cuts[ms] for ms in sorted(cuts)]


def _keyframes_for(start_ms: int, end_ms: int, shot_times: list[int],
                   stamps: np.ndarray, k_max: int) -> tuple[int, ...]:
    """First frame at/after each shot inside the segment; middle fallback."""
    chosen: list[int] = []
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


def build_segments(track: VideoTrack, cuts: list[CutPoint],
                   transcript: Transcript, cfg: SegmenterConfig) -> list[Segment]:
    """Tile [0, duration) between cuts; merge sub-minimum segments.

    Each segment carries the cues whose midpoint falls inside it and up to
    max_keyframes keyframes. A segment shorter than min_segment_ms merges
    into its predecessor (into its successor when it is the first).
    """
    cfg.validate()
    duration = track.duration_ms
    if duration <= 0:
        raise DataError(f"video {track.video_id} has no duration")
    for cut in cuts:
        if not 0 < cut.cut_ms < duration:
            raise DataError(f"cut at {cut.cut_ms} ms outside (0, {duration})")
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

    stamps = track.timestamps_ms
    shot_times = sorted({c.source_shot_ms for c in cuts})
    segments = []
    for idx, (start, end) in enumerate(pieces):
        cue_indices = tuple(
            c.index for c in transcript.cues
            if start <= (c.start_ms + c.end_ms) // 2 < end)
        keyframes = _keyframes_for(start, end, shot_times, stamps,
                                   cfg.max_keyframes)
        if not keyframes:
            log.warning("segment %s_%04d [%d, %d) contains no frames",
                        track.video_id, idx, start, end)
        segments.append(Segment(
            segment_id=f"{track.video_id}_{idx:04d}",
            video_id=track.video_id,
            start_ms=start, end_ms=end,
            cue_indices=cue_indices,
            keyframe_timestamps=keyframes,
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


def segment_to_dict(seg: Segment) -> dict:
    return {
        "segment_id": seg.segment_id,
        "video_id": seg.video_id,
        "start_ms": seg.start_ms,
        "end_ms": seg.end_ms,
        "cue_indices": list(seg.cue_indices),
        "keyframe_timestamps": list(seg.keyframe_timestamps),
    }


def segment_from_dict(obj: dict) -> Segment:
    return Segment(
        segment_id=obj["segment_id"],
        video_id=obj["video_id"],
        start_ms=obj["start_ms"],
        end_ms=obj["end_ms"],
        cue_indices=tuple(obj.get("cue_indices", ())),
        keyframe_timestamps=tuple(obj.get("keyframe_timestamps", ())),
    )


def write_segments_jsonl(segments: list[Segment]) -> str:
    return "".join(json.dumps(segment_to_dict(s), sort_keys=True) + "\n"
                   for s in segments)
