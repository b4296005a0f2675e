"""Output checks and quality metrics for one execution's artifacts.

The checks hold for any correct gelid: segments tile every video, the
segment counts add up, every informative segment sits in exactly one
cluster of the hierarchy and every medoid is a member of its cluster.
Quality compares the outputs with the planted truth the generator wrote.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from worlds import NON_INFORMATIVE, scene_at


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _members(hierarchy: dict):
    """(context_id, cluster) for every cluster of the hierarchy."""
    for context in hierarchy["contexts"]:
        for category in context["categories"]:
            for cluster in category["clusters"]:
                yield context["context_id"], cluster


def check_outputs(world: Path, out: Path, stagewise: bool) -> list[str]:
    try:
        segments = _jsonl(out / "segments.jsonl")
        labels = {r["segment_id"]: r["label"]
                  for r in _jsonl(out / "labels.jsonl")}
        hierarchy = json.loads((out / "hierarchy.json").read_text("utf-8"))
        manifest = json.loads((world / "manifest.json").read_text("utf-8"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    errors = []
    by_video: dict[str, list[dict]] = {}
    for seg in segments:
        by_video.setdefault(seg["video_id"], []).append(seg)
    for video in manifest["videos"]:
        segs = sorted(by_video.pop(video["video_id"], []),
                      key=lambda s: s["start_ms"])
        edges = [0] + [s["end_ms"] for s in segs]
        if (not segs or [s["start_ms"] for s in segs] != edges[:-1]
                or edges[-1] != video["duration_ms"]):
            errors.append(f"segments do not tile video {video['video_id']}")
    if by_video:
        errors.append(f"segments of unknown videos {sorted(by_video)}")

    ids = {s["segment_id"] for s in segments}
    if set(labels) != ids:
        errors.append("labels.jsonl does not label every segment once")
    counts = hierarchy["counts"]
    if counts["n_informative"] + counts["n_non_informative"] \
            != counts["n_segments"] or counts["n_segments"] != len(ids):
        errors.append(f"segment counts do not add up: {counts}")
    placed = Counter()
    bad_medoids = []
    for _, cluster in _members(hierarchy):
        placed.update(cluster["members"])
        if cluster["medoid"] not in cluster["members"]:
            bad_medoids.append(cluster["cluster_id"])
    if bad_medoids:
        errors.append(f"{len(bad_medoids)} medoid(s) not members of their "
                      f"cluster, first {bad_medoids[0]}")
    informative = {sid for sid, lbl in labels.items()
                   if lbl != NON_INFORMATIVE}
    if set(placed) != informative or any(n != 1 for n in placed.values()):
        errors.append("informative segments are not each in exactly one "
                      "cluster")
    if counts["n_informative"] != len(informative):
        errors.append("n_informative disagrees with labels.jsonl")
    if stagewise:
        evals = sorted((out / "eval").glob("[0-9][0-9][0-9].json"))
        pairs = sorted((out / "eval").glob("*.a.json"))
        if not evals or len(evals) != len(pairs):
            errors.append("gelid eval did not write every MoJoFM result")
        for path in evals:
            value = json.loads(path.read_text("utf-8")).get("mojofm")
            if not isinstance(value, (int, float)) or not 0 <= value <= 100:
                errors.append(f"{path.name}: MoJoFM {value!r} outside [0, 100]")
    return errors


def quality(world: Path, out: Path) -> dict[str, float]:
    """context_mojofm and label_accuracy against the planted truth."""
    from gelid.stats import Partition, mojo_fm

    truth = json.loads((world / "truth.json").read_text(encoding="utf-8"))
    segments = {s["segment_id"]: s for s in _jsonl(out / "segments.jsonl")}
    labels = {r["segment_id"]: r["label"]
              for r in _jsonl(out / "labels.jsonl")}

    def planted(sid: str) -> dict:
        s = segments[sid]
        return scene_at(truth, s["video_id"], (s["start_ms"] + s["end_ms"]) // 2)

    correct = sum(labels[sid] == planted(sid)["label"] for sid in segments)
    hierarchy = json.loads((out / "hierarchy.json").read_text("utf-8"))
    recovered = {m: ctx for ctx, cluster in _members(hierarchy)
                 for m in cluster["members"]}
    contexts = {m: planted(m)["context"] for m in recovered}
    return {
        "context_mojofm": mojo_fm(Partition.from_mapping(recovered),
                                  Partition.from_mapping(contexts)),
        "label_accuracy": correct / len(segments),
    }
