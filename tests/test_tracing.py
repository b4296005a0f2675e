"""The benchmark tracer finds every gelid function it wraps.

`benchmarks/tracing.py` wraps functions by module and name. A function
that is renamed, moved or called through another name would silently
drop out of every traced benchmark run; here it fails instead.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import gelid.features
from conftest import THREE_VIDEO_WORLD, write_world
from gelid.cli import main
from gelid.config import load_config
from gelid.frames import load_track
from gelid.pipeline import parse_subtitle_file
from gelid.segmentation import derive_cut_points, detect_shot_transitions

_SPEC = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "benchmarks"
    / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

# `gelid.cli` reaches these through `pipeline`, so it has no name of its
# own for the tracer to wrap
NOT_IN_CLI = ["parse_subtitle_file", "load_track", "segment_video",
              "run_pipeline", "classify_segments", "hierarchy_to_json",
              "export_report"]


def test_tracer_wraps_every_target_but_the_names_cli_lacks():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == [f"gelid.cli.{name}" for name in NOT_IN_CLI]
    finally:
        tracer.uninstall()
    assert not hasattr(gelid.features.video_features, "__wrapped__")


def test_tracer_counts_what_a_run_did(tmp_path):
    """`gelid run` under the tracer: each counter equals the run's own
    count, so a renamed attribute that a counter reads fails here, not
    only in a traced benchmark run."""
    paths = write_world(tmp_path / "world", THREE_VIDEO_WORLD)
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["run", "--manifest", str(paths["manifest"]),
                     "--config", str(paths["config"]),
                     "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    cfg = load_config(str(paths["config"])).segmenter_config()
    frames = cues = 0
    cuts = Counter()
    for video_id in THREE_VIDEO_WORLD:
        track = load_track(paths["root"] / f"{video_id}.descriptors.csv")
        transcript = parse_subtitle_file(paths["root"] / f"{video_id}.srt",
                                         video_id)
        frames += track.timestamps_ms.size
        cues += len(transcript.cues)
        cuts.update(f"segmentation.cuts_{cut.snap_rule.value}" for cut in
                    derive_cut_points(detect_shot_transitions(track, cfg),
                                      transcript, cfg))
    segments = len((out / "segments.jsonl").read_text().splitlines())
    labels = len((out / "labels.jsonl").read_text().splitlines())
    informative = json.loads((out / "hierarchy.json").read_text())[
        "counts"]["n_informative"]
    counts = tracer.counts
    assert counts["frames.frames"] == frames
    assert counts["subtitles.cues"] == cues
    assert counts["segmentation.segments"] == segments
    assert counts["models.predict_rows"] == labels == segments
    # every informative segment of this world has a keyframe
    assert counts["clustering.context_pairs"] == \
        informative * (informative - 1) // 2
    for rule in ("sentence_end", "silence_passthrough"):
        key = f"segmentation.cuts_{rule}"
        assert key in counts and counts[key] == cuts[key]
