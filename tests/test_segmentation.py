import re
from pathlib import Path

import numpy as np
import pytest
from conftest import THREE_VIDEO_WORLD, write_world
from hypothesis import given, settings
from hypothesis import strategies as st

from gelid.errors import DataError
from gelid.frames import VideoTrack
from gelid.pipeline import load_segments
from gelid.segmentation import (CutPoint, SegmenterConfig, SnapRule,
                                build_segments, derive_cut_points,
                                detect_shot_transitions, segment_video,
                                write_segments_jsonl)
from gelid.subtitles import Cue, Transcript, sentence_bounds


def _hist(dominant_bin):
    h = np.zeros(48)
    for c in range(3):
        h[c * 16 + dominant_bin] = 1.0
    return h


def _track(stamps_and_bins, duration=None, video_id="vid"):
    stamps = [ts for ts, _ in stamps_and_bins]
    bins = [b for _, b in stamps_and_bins]
    return VideoTrack(video_id, np.array(stamps),
                      np.array([_hist(b) for b in bins]),
                      np.array([1.0 if b == 15 else 0.0 for b in bins]),
                      duration or max(stamps))


def _constant_track(n=20, step=1000):
    return _track([(i * step, 0) for i in range(n)])


EMPTY_T = Transcript(video_id="vid")


def test_constant_track_has_no_transitions():
    assert detect_shot_transitions(_constant_track(), SegmenterConfig()) == []


def test_single_abrupt_change_detected_at_its_frame():
    # black frames up to 4000 ms, white from 5000 ms on
    spec = [(i * 1000, 0) for i in range(5)] + \
           [(i * 1000, 15) for i in range(5, 11)]
    track = _track(spec)
    assert detect_shot_transitions(track, SegmenterConfig()) == [5000]
    # the distance it crossed: the L1 of disjoint unit blocks
    dists = np.abs(np.diff(track.histograms, axis=0)).sum(axis=1)
    assert dists[4] == pytest.approx(6.0)


def test_min_shot_ms_suppresses_second_nearby_change():
    spec = ([(i * 1000, 0) for i in range(5)]
            + [(5000, 15), (5100, 7), (5200, 7), (6000, 7), (7000, 7),
               (8000, 7)])
    track = _track(spec)
    # with no minimum both abrupt changes fire at this alpha ...
    free = detect_shot_transitions(track,
                                   SegmenterConfig(alpha=0.5, min_shot_ms=0))
    assert free == [5000, 5100]
    # ... the min-shot rule keeps only the first
    shots = detect_shot_transitions(track,
                                    SegmenterConfig(alpha=0.5,
                                                    min_shot_ms=2000))
    assert shots == [5000]


def test_fewer_than_two_frames_warns_and_returns_empty(caplog):
    track = _track([(0, 0)])
    with caplog.at_level("WARNING"):
        assert detect_shot_transitions(track, SegmenterConfig()) == []
    assert caplog.records


def _transcript(cue_specs):
    cues = [Cue(start_ms=s, end_ms=e, text=t) for s, e, t in cue_specs]
    return Transcript(video_id="vid", cues=cues)


def test_cut_snaps_to_sentence_end_worked_example():
    # shot at 13:45 = 825000 ms, k = 5; sentence runs through the shifted
    # time 13:50 and ends at 14:05 = 845000 ms -> the cut lands there
    transcript = _transcript([
        (826000, 833000, "so I just walked into the cave and"),
        (833000, 838000, "the whole screen started flickering like"),
        (838000, 845000, "the textures were completely gone."),
        (850000, 853000, "Anyway."),
    ])
    shots = [825000]
    cuts = derive_cut_points(shots, transcript, SegmenterConfig(k_seconds=5))
    assert len(cuts) == 1
    assert cuts[0].cut_ms == 845000
    assert cuts[0].snap_rule is SnapRule.SENTENCE_END


def test_cut_passes_through_silence():
    transcript = _transcript([(0, 1000, "hello there.")])
    shots = [600000]
    cuts = derive_cut_points(shots, transcript, SegmenterConfig(k_seconds=0))
    assert cuts == [CutPoint(cut_ms=600000, source_shot_ms=600000,
                             snap_rule=SnapRule.SILENCE_PASSTHROUGH)]


def test_cut_snaps_to_sentence_starting_within_silence_window():
    transcript = _transcript([(12000, 15000, "that was weird.")])
    shots = [10000]
    cfg = SegmenterConfig(k_seconds=0, silence_ms=3000)
    cuts = derive_cut_points(shots, transcript, cfg)
    assert cuts[0].cut_ms == 15000
    assert cuts[0].snap_rule is SnapRule.SENTENCE_END


def test_two_shots_in_same_sentence_collapse_to_one_cut():
    transcript = _transcript([(10000, 30000, "one very long sentence here.")])
    shots = [12000, 18000]
    cuts = derive_cut_points(shots, transcript, SegmenterConfig(k_seconds=0))
    assert len(cuts) == 1
    assert cuts[0].cut_ms == 30000
    assert cuts[0].source_shot_ms == 12000  # first shot wins the collapse


def _cuts_at(times):
    return [CutPoint(cut_ms=t, source_shot_ms=max(t - 1000, 1),
                     snap_rule=SnapRule.SILENCE_PASSTHROUGH)
            for t in times]


def test_build_segments_tiles_between_cuts():
    track = _constant_track(n=61)  # duration 60000
    segs = build_segments(track, _cuts_at([20000, 40000]), EMPTY_T,
                          SegmenterConfig())
    assert [(s.start_ms, s.end_ms) for s in segs] == [
        (0, 20000), (20000, 40000), (40000, 60000)]
    assert [s.segment_id for s in segs] == ["vid_0000", "vid_0001", "vid_0002"]


def test_build_segments_no_cuts_single_segment():
    track = _constant_track(n=11)
    segs = build_segments(track, [], EMPTY_T, SegmenterConfig())
    assert [(s.start_ms, s.end_ms) for s in segs] == [(0, 10000)]


def test_build_segments_merges_short_tail_into_predecessor():
    track = _constant_track(n=61)
    cfg = SegmenterConfig(min_segment_ms=1000)
    segs = build_segments(track, _cuts_at([59700]), EMPTY_T, cfg)
    assert [(s.start_ms, s.end_ms) for s in segs] == [(0, 60000)]


def test_build_segments_merges_short_head_into_successor():
    track = _constant_track(n=61)
    cfg = SegmenterConfig(min_segment_ms=3000)
    segs = build_segments(track, _cuts_at([500, 30000]), EMPTY_T, cfg)
    assert [(s.start_ms, s.end_ms) for s in segs] == [(0, 30000),
                                                      (30000, 60000)]


def test_build_segments_rejects_cut_outside_duration():
    track = _constant_track(n=11)
    with pytest.raises(DataError):
        build_segments(track, _cuts_at([10000]), EMPTY_T, SegmenterConfig())


def test_segments_carry_cues_by_midpoint():
    track = _constant_track(n=61)
    transcript = _transcript([
        (0, 4000, "early cue."),          # midpoint 2000 -> first segment
        (19000, 21500, "straddling."),    # midpoint 20250 -> second segment
        (50000, 52000, "late."),          # midpoint 51000 -> third segment
    ])
    segs = build_segments(track, _cuts_at([20000, 40000]), transcript,
                          SegmenterConfig())
    assert segs[0].cue_indices == (1,)
    assert segs[1].cue_indices == (2,)
    assert segs[2].cue_indices == (3,)


def test_keyframes_first_frame_after_each_inside_shot():
    track = _constant_track(n=61)
    cuts = [CutPoint(cut_ms=30000, source_shot_ms=24500,
                     snap_rule=SnapRule.SENTENCE_END)]
    segs = build_segments(track, cuts, EMPTY_T, SegmenterConfig())
    # shot at 24500 lies in segment [0, 30000): first frame at/after is 25000
    assert 25000 in segs[0].keyframe_timestamps
    # second segment has no shot inside: falls back to its middle frame
    assert segs[1].keyframe_timestamps == (45000,)


def test_keyframes_capped_at_max():
    track = _constant_track(n=61)
    cuts = []
    for t in range(1000, 25000, 1000):
        cuts.append(CutPoint(cut_ms=59000, source_shot_ms=t,
                             snap_rule=SnapRule.SENTENCE_END))
    cfg = SegmenterConfig(max_keyframes=10)
    segs = build_segments(track, cuts[:1] + cuts, EMPTY_T, cfg)
    assert len(segs[0].keyframe_timestamps) == 10


def test_segment_jsonl_round_trip(tmp_path):
    track = _constant_track(n=61)
    segs = build_segments(track, _cuts_at([20000]), EMPTY_T,
                          SegmenterConfig())
    path = tmp_path / "segments.jsonl"
    path.write_text(write_segments_jsonl(segs))
    assert load_segments(path, {track.video_id}) == segs


# --- properties ------------------------------------------------------------

@given(st.sets(st.integers(min_value=1, max_value=59999), max_size=12),
       st.integers(min_value=0, max_value=8000))
@settings(max_examples=80, deadline=None)
def test_tiling_property(cut_times, min_segment_ms):
    track = _constant_track(n=61)
    cfg = SegmenterConfig(min_segment_ms=min_segment_ms)
    segs = build_segments(track, _cuts_at(sorted(cut_times)), EMPTY_T, cfg)
    assert segs[0].start_ms == 0
    assert segs[-1].end_ms == 60000
    for a, b in zip(segs, segs[1:]):
        assert a.end_ms == b.start_ms
        assert a.start_ms < a.end_ms


@st.composite
def _random_speech(draw):
    cues = []
    at = 0
    for i in range(draw(st.integers(min_value=1, max_value=10))):
        at += draw(st.integers(min_value=200, max_value=8000))
        dur = draw(st.integers(min_value=500, max_value=6000))
        punct = "." if draw(st.booleans()) else ""
        cues.append(Cue(start_ms=at, end_ms=at + dur,
                        text=f"cue {i}{punct}"))
        at += dur
    shots = sorted(draw(st.sets(st.integers(min_value=0, max_value=at + 5000),
                                min_size=1, max_size=6)))
    return Transcript(video_id="v", cues=cues), shots


@given(_random_speech())
@settings(max_examples=80, deadline=None)
def test_snap_monotone_in_k(data):
    transcript, shots = data
    cuts_by_k = {}
    for k in (0, 5, 10):
        cfg = SegmenterConfig(k_seconds=k)
        cuts_by_k[k] = derive_cut_points(shots, transcript, cfg)
        for cut in cuts_by_k[k]:
            assert cut.cut_ms >= cut.source_shot_ms + k * 1000
    # increasing k never moves the cut derived from a given shot earlier
    for k_small, k_big in ((0, 5), (5, 10)):
        small = {c.source_shot_ms: c.cut_ms for c in cuts_by_k[k_small]}
        big = {c.source_shot_ms: c.cut_ms for c in cuts_by_k[k_big]}
        for shot_ms, cut_small in small.items():
            if shot_ms in big:
                assert big[shot_ms] >= cut_small


@given(_random_speech())
@settings(max_examples=80, deadline=None)
def test_no_sentence_straddles_a_snapped_cut(data):
    transcript, shots = data
    cfg = SegmenterConfig(k_seconds=5)
    cuts = derive_cut_points(shots, transcript, cfg)
    spans = list(zip(*sentence_bounds(transcript, cfg.gap_ms)))
    for cut in cuts:
        if cut.snap_rule is SnapRule.SENTENCE_END:
            for start_ms, end_ms in spans:
                assert not (start_ms < cut.cut_ms < end_ms)


def test_segment_video_drops_cut_snapped_past_video_end():
    # subtitles outlast the track: the sentence ends after duration_ms
    spec = [(i * 500, 0 if i < 20 else 9) for i in range(40)]  # change at 10 s
    track = _track(spec)  # duration 19500
    transcript = _transcript([(9000, 21000, "this sentence runs long")])
    cfg = SegmenterConfig(k_seconds=0, min_segment_ms=1000)
    segs = segment_video(track, transcript, cfg)
    assert segs[-1].end_ms == 19500
    assert [(s.start_ms, s.end_ms) for s in segs] == [(0, 19500)]


def test_determinism_same_input_same_ids():
    spec = [(i * 500, 0 if i < 12 else 9) for i in range(40)]
    track = _track(spec)
    transcript = _transcript([(4000, 7000, "something broke here."),
                              (8000, 9500, "wow.")])
    cfg = SegmenterConfig()
    first = segment_video(track, transcript, cfg)
    second = segment_video(track, transcript, cfg)
    assert first == second


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```python\n(.*?)```", readme.read_text(), re.S)[1]
    write_world(tmp_path, {"vid": THREE_VIDEO_WORLD["vid_a"]})
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(block, names)
    # each scene's second cue ends its sentence, 11 s into the scene
    assert names["starts"].tolist() == [4000, 24000, 44000]
    assert names["ends"].tolist() == [11000, 31000, 51000]
    # without a duration, the video ends at its last frame
    assert [(s.start_ms, s.end_ms) for s in names["segments"]] == [
        (0, 31000), (31000, 51000), (51000, 59500)]
    assert names["score"] == pytest.approx(50.0)
