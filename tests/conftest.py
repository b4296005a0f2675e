"""Synthetic gameplay-video worlds for pipeline-level tests.

A "scene" is a run of frames sharing one dominant histogram bin (plus tiny
deterministic noise) with its own spoken sentences. Scene changes produce
clean shot transitions, so segmentation recovers scenes as segments and
visual clustering recovers scenes as contexts.
"""

import json
import os
import threading
import zlib
from pathlib import Path

import numpy as np

from gelid.frames import VideoTrack, write_descriptor_csv
from gelid.subtitles import format_srt_timestamp

FRAME_STEP_MS = 500

LABEL_PHRASES = {
    "Logic": "the game crashed again and the quest item simply vanished",
    "Presentation": "those textures are flickering and the hud overlaps",
    "Balance": "this boss is absurdly overpowered and unfair",
    "Performance": "massive lag spike here and the framerate drops hard",
    "NonInformative": "welcome back everyone remember to subscribe",
}


def scene_histogram(base_bin: int, rng: np.random.Generator) -> np.ndarray:
    hist = np.zeros((3, 16))
    hist[:, base_bin] = 1.0
    hist += rng.random((3, 16)) * 0.01
    hist /= hist.sum(axis=1, keepdims=True)
    return hist.reshape(48)


def write_video(root: Path, video_id: str, scenes: list[dict]) -> dict:
    """Write `<id>.srt` + `<id>.descriptors.csv`; return a manifest entry.

    Each scene dict: {"duration_ms", "base_bin", "label"}. One histogram per
    scene (so within-scene motion is exactly zero and only real boundaries
    trip the detector); sentences start past the silence window and end well
    before the scene does, so cuts land exactly on scene boundaries.
    """
    rng = np.random.default_rng(zlib.crc32(video_id.encode()))
    stamps, hists, lums = [], [], []
    cue_lines = []
    cue_index = 1
    at = 0
    for scene in scenes:
        duration = scene["duration_ms"]
        hist = scene_histogram(scene["base_bin"], rng)
        for t in range(at, at + duration, FRAME_STEP_MS):
            stamps.append(t)
            hists.append(hist)
            lums.append(scene["base_bin"] / 15.0)
        phrase = LABEL_PHRASES[scene["label"]]
        words = phrase.split()
        half = len(words) // 2
        first = (at + 4000, at + 7000, " ".join(words[:half]))
        second = (at + 7200, at + 11000, " ".join(words[half:]) + ".")
        for start, end, text in (first, second):
            cue_lines.append(f"{cue_index}\n"
                             f"{format_srt_timestamp(start)} --> "
                             f"{format_srt_timestamp(end)}\n{text}\n")
            cue_index += 1
        at += duration
    track = VideoTrack(video_id, np.array(stamps), np.array(hists),
                       np.array(lums), at)
    (root / f"{video_id}.descriptors.csv").write_bytes(
        write_descriptor_csv(track))
    (root / f"{video_id}.srt").write_text("\n".join(cue_lines),
                                          encoding="utf-8", newline="\n")
    return {"video_id": video_id,
            "subtitles": f"{video_id}.srt",
            "frames": f"{video_id}.descriptors.csv",
            "duration_ms": at}


def through_fifo(path: Path, data: bytes, read):
    """What `read()` returns, or the exception it raises, while `path` is
    a FIFO that one writer fills with `data`. Both run in daemon threads
    joined with a timeout, so a read that opens the FIFO a second time,
    which would wait for a writer forever, fails the test instead of
    hanging it."""
    os.mkfifo(path)
    outcome = []

    def write():
        with open(path, "wb") as fifo:
            fifo.write(data)

    def run():
        try:
            outcome.append(read())
        except Exception as exc:  # the test inspects it
            outcome.append(exc)

    threads = [threading.Thread(target=job, daemon=True)
               for job in (write, run)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
    assert not any(thread.is_alive() for thread in threads), \
        f"{path} was opened more than once, or never"
    return outcome[0]


def write_world(root: Path, videos: dict[str, list[dict]],
                seed: int = 1234, config_overrides: dict | None = None
                ) -> dict[str, Path]:
    """Write manifest, probe labels, and config for a synthetic world."""
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    probes = []
    for video_id, scenes in videos.items():
        entries.append(write_video(root, video_id, scenes))
        at = 0
        for scene in scenes:
            probes.append({"video_id": video_id,
                           "at_ms": at + scene["duration_ms"] // 2,
                           "label": scene["label"]})
            at += scene["duration_ms"]
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps(
        {"schema_version": 1, "videos": entries}, indent=2) + "\n",
        encoding="utf-8")
    labels_path = root / "labels.jsonl"
    labels_path.write_text(
        "\n".join(json.dumps(p) for p in probes) + "\n", encoding="utf-8")
    config = {
        "seed": seed,
        "segmenter.k_seconds": 0,
        "segmenter.min_segment_ms": 3000,
        "clustering.context_min_pts": 1,
        "clustering.issue_min_pts": 1,
        "train.labels_path": str(labels_path),
    }
    config.update(config_overrides or {})
    config_path = root / "run.conf"
    config_path.write_text(
        "\n".join(f"{k} = {v}" for k, v in config.items()) + "\n",
        encoding="utf-8")
    return {"manifest": manifest_path, "labels": labels_path,
            "config": config_path, "root": root}


THREE_VIDEO_WORLD = {
    "vid_a": [
        {"duration_ms": 20000, "base_bin": 0, "label": "Logic"},
        {"duration_ms": 20000, "base_bin": 5, "label": "NonInformative"},
        {"duration_ms": 20000, "base_bin": 10, "label": "Performance"},
    ],
    "vid_b": [
        {"duration_ms": 20000, "base_bin": 0, "label": "Logic"},
        {"duration_ms": 20000, "base_bin": 5, "label": "NonInformative"},
        {"duration_ms": 20000, "base_bin": 10, "label": "Performance"},
    ],
    "vid_c": [
        {"duration_ms": 20000, "base_bin": 0, "label": "NonInformative"},
        {"duration_ms": 20000, "base_bin": 13, "label": "Presentation"},
        {"duration_ms": 20000, "base_bin": 5, "label": "Logic"},
    ],
}
