"""End-to-end orchestration: ingest -> segment -> features -> train ->
classify -> group -> cluster -> report, under one manifest and one config.

Each stage is one function here. `run_pipeline` calls them in order; the
CLI runs each one on its own, exchanging documented JSON/CSV artifacts.
Every artifact is canonical (sorted keys, LF endings) and everything
downstream of the seed is deterministic, so re-running a manifest
reproduces byte-identical outputs. Partial outputs are never written: a
failing stage aborts before the write phase.
"""

from __future__ import annotations

import html as html_lib
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import clustering, features, models
from .config import RunConfig
from .errors import (ConfigError, DataError, ParseError, StageError,
                     check_shape, count, file_name)
from .frames import VideoTrack, load_track
from .segmentation import (SEGMENT_SHAPE, Segment, segment_from_dict,
                           segment_video)
from .subtitles import Transcript, parse_srt, parse_vtt

log = logging.getLogger(__name__)

HIERARCHY_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1
BUNDLE_SCHEMA_VERSION = 1

INFORMATIVE_LABELS = tuple(
    name for name in models.LABEL_ORDER
    if name != models.IssueLabel.NON_INFORMATIVE.value)


def _path(value) -> bool:
    """a string with no NUL"""
    return isinstance(value, str) and "\0" not in value


# the JSON inputs read here; the others' shapes live with their data
_MANIFEST_SHAPE = {"schema_version": {MANIFEST_SCHEMA_VERSION},
                  "videos": [{"video_id": file_name, "subtitles": _path,
                              "frames": _path,
                              "duration_ms?": (count, {None})}]}
_BUNDLE_SHAPE = {"schema_version": {BUNDLE_SCHEMA_VERSION}, "model": dict,
                 **features.SPACE_SHAPE}
_LABEL = set(models.LABEL_ORDER)
_SEGMENT_LABEL_SHAPE = {"segment_id": str, "label": _LABEL}
_PROBE_SHAPE = {"video_id": str, "at_ms": count, "label": _LABEL}
_CLUSTER = {"cluster_id": str, "medoid": str, "members": [str]}
_SUMMARY = {"n_segments": int, "total_duration_ms": int,
            "label_distribution": {str: int}}
_CONTEXT = {"context_id": str, "summary": _SUMMARY,
            "categories": [{"label": str, "clusters": [_CLUSTER]}]}
HIERARCHY_SHAPE = {"schema_version": {HIERARCHY_SCHEMA_VERSION},
                   "contexts": [_CONTEXT], "counts": {str: int}}


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    subtitles: Path
    frames: Path
    duration_ms: int | None = None


@dataclass
class Manifest:
    videos: list[VideoEntry] = field(default_factory=list)

    def validate(self) -> None:
        ids = [v.video_id for v in self.videos]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DataError(f"duplicate video_id(s) in manifest: {dupes}")


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; an unreadable file is a DataError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None


def read_json(path: str | Path, shape):
    """A JSON file's value, of `shape`; an unreadable or invalid file, or a
    value of another shape, is a DataError naming the file."""
    try:
        value = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:  # RecursionError: too deep
        raise DataError(f"{path} is not valid JSON: {exc}") from None
    check_shape(value, shape, f"{path}: $")
    return value


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    manifest = Manifest(videos=[
        VideoEntry(video_id=entry["video_id"],
                   subtitles=path.parent / entry["subtitles"],
                   frames=path.parent / entry["frames"],
                   duration_ms=entry.get("duration_ms"))
        for entry in read_json(path, _MANIFEST_SHAPE)["videos"]])
    try:
        manifest.validate()
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return manifest


def parse_subtitle_file(path: Path, video_id: str) -> Transcript:
    data = path.read_bytes()
    parse = parse_vtt if path.suffix.lower() == ".vtt" else parse_srt
    try:
        return parse(data, video_id=video_id)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.detail}", exc.line) from None


# ---------------------------------------------------------------------------
# Classifier bundle: a model and the feature space of its columns


@dataclass
class ClassifierBundle:
    """Everything classification needs to reproduce features at predict time."""

    model: models.TrainedModel
    space: features.FeatureSpace

    def to_json(self) -> str:
        return json.dumps({"schema_version": BUNDLE_SCHEMA_VERSION,
                           "model": models.model_to_dict(self.model),
                           **self.space.to_dict()}, sort_keys=True)


def load_bundle(path: str | Path) -> ClassifierBundle:
    """A `ClassifierBundle.to_json` file whose model takes the columns of
    its feature space; any other is a DataError naming the file."""
    obj = read_json(path, _BUNDLE_SHAPE)
    try:
        bundle = ClassifierBundle(
            models.model_from_dict(obj["model"], "$.model"),
            features.FeatureSpace.from_dict(obj))
        if bundle.model.feature_names != bundle.space.names:
            raise DataError("the model's feature names are not those of its "
                            "feature_groups, vocabulary and embedding")
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return bundle


def _read_rows(path: str | Path, shape) -> list[tuple[int, dict]]:
    """JSONL rows of `shape` with their line numbers; any other row is a
    DataError naming the file and line."""
    rows = []
    # rows end at LF only: a JSON string may hold U+2028 and other breaks
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}:{line_no}: bad JSON: {exc}") from None
        check_shape(row, shape, f"{path}:{line_no}: $")
        rows.append((line_no, row))
    return rows


def load_segments(path: str | Path, videos) -> list[Segment]:
    """Segments of a segments.jsonl, each with a segment_id of its own, an
    end_ms after its start_ms and one of `videos`."""
    segments: dict[str, Segment] = {}
    for line_no, row in _read_rows(path, SEGMENT_SHAPE):
        if row["segment_id"] in segments:
            raise DataError(f"{path}:{line_no}: segment_id "
                            f"{row['segment_id']!r} repeats an earlier row")
        if row["end_ms"] <= row["start_ms"]:
            raise DataError(f"{path}:{line_no}: end_ms {row['end_ms']} is "
                            f"not after start_ms {row['start_ms']}")
        if row["video_id"] not in videos:
            raise DataError(f"{path}:{line_no}: video {row['video_id']!r} "
                            f"is not in the manifest")
        segments[row["segment_id"]] = segment_from_dict(row)
    return list(segments.values())


def load_label_probes(path: str | Path) -> list[dict]:
    """Training label probes: JSONL of {video_id, at_ms, label}."""
    return [row for _, row in _read_rows(path, _PROBE_SHAPE)]


def load_segment_labels(path: str | Path) -> dict[str, str]:
    """Segment labels: JSONL of {segment_id, label}; a later row wins."""
    return {row["segment_id"]: row["label"]
            for _, row in _read_rows(path, _SEGMENT_LABEL_SHAPE)}


def match_probes(probes: list[dict],
                 segments: list[Segment]) -> dict[str, str]:
    """Map each probe to the segment containing its timestamp.

    The segments of one video do not overlap, as segmentation tiles it.
    Later probes win when two land in the same segment; conflicting labels
    get a warning since they signal a probe/segmentation mismatch.
    """
    by_video: dict[str, list[Segment]] = {}
    for seg in sorted(segments, key=lambda s: s.start_ms):
        by_video.setdefault(seg.video_id, []).append(seg)
    starts = {video_id: np.array([s.start_ms for s in segs], dtype=np.int64)
              for video_id, segs in by_video.items()}
    labels: dict[str, str] = {}
    for probe in probes:
        segs = by_video.get(probe["video_id"], [])
        # the last segment of the video that starts at or before the probe
        pos = int(np.searchsorted(starts.get(probe["video_id"], []),
                                  probe["at_ms"], side="right")) - 1
        hit = (segs[pos] if pos >= 0 and probe["at_ms"] < segs[pos].end_ms
               else None)
        if hit is None:
            log.warning("probe at %s ms in video %s matches no segment",
                        probe["at_ms"], probe["video_id"])
            continue
        previous = labels.get(hit.segment_id)
        if previous is not None and previous != probe["label"]:
            log.warning("segment %s labeled both %s and %s by probes; "
                        "keeping the later (%s)", hit.segment_id, previous,
                        probe["label"], probe["label"])
        labels[hit.segment_id] = probe["label"]
    return labels


# ---------------------------------------------------------------------------
# Pipeline stages: `run_pipeline` calls them in order, and each stage
# subcommand of the CLI calls one of them between reading its input
# artifacts and writing its outputs.


@dataclass
class PipelineResult:
    hierarchy: dict
    run_report: dict
    segments: list[Segment]
    predictions: dict[str, str]
    bundle: ClassifierBundle


@dataclass
class StageClock:
    """Runs stage steps, timing each and naming the stage and video of a
    step that fails (`StageError`)."""

    timings: list[dict] = field(default_factory=list)

    def __call__(self, stage: str, fn, video_id: str | None = None):
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            raise StageError(stage, video_id, exc) from exc
        self.timings.append({"stage": stage, "video_id": video_id,
                             "seconds": time.perf_counter() - start})
        return out


def ingest(manifest: Manifest, config: RunConfig,
           timed: StageClock | None = None
           ) -> tuple[dict[str, Transcript], dict[str, VideoTrack]]:
    """Ingest stage: each video's transcript and descriptor track."""
    timed = timed or StageClock()
    transcripts, tracks = {}, {}
    for e in manifest.videos:
        transcripts[e.video_id] = timed(
            "ingest", lambda: parse_subtitle_file(e.subtitles, e.video_id),
            e.video_id)
        tracks[e.video_id] = timed(
            "ingest", lambda: load_track(e.frames, e.video_id, e.duration_ms,
                                         config.bins_per_channel),
            e.video_id)
    return transcripts, tracks


def segment(transcripts: dict[str, Transcript],
            tracks: dict[str, VideoTrack], config: RunConfig,
            timed: StageClock | None = None) -> list[Segment]:
    """Segment stage: every video's segments, in manifest order."""
    timed = timed or StageClock()
    seg_cfg = config.segmenter_config()
    segments: list[Segment] = []
    for video_id, track in tracks.items():
        segments += timed(
            "segment", lambda: segment_video(track, transcripts[video_id],
                                             seg_cfg),
            video_id)
    return segments


def extract_features(segments: list[Segment],
                     transcripts: dict[str, Transcript],
                     tracks: dict[str, VideoTrack], config: RunConfig
                     ) -> tuple[features.FeatureSpace, features.FeatureMatrix]:
    """Features stage: fix the feature space of `config`'s features.*
    settings, with the vocabulary fitted on every segment given, labelled
    or not, then assemble the segments' feature matrix in it. Later stages
    take the space from here, never from their own config."""
    stopwords = config.stopword_set()
    texts = [features.segment_text(s, transcripts[s.video_id])
             for s in segments]
    space = features.FeatureSpace(
        feature_groups=config.feature_group_list(),
        vocabulary=features.fit_vocabulary(
            texts, ngram_max=config.ngram_max, stopwords=stopwords,
            min_df=config.min_df),
        ngram_max=config.ngram_max, stopwords=stopwords,
        embedding=features.load_embedding_table(config.embedding_path)
        if config.embedding_path else None)
    return space, features.assemble_features(segments, texts, transcripts,
                                             tracks, space)


def _maybe_smote(matrix: np.ndarray, y: np.ndarray, config: RunConfig,
                 names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Oversample an unbalanced training set when SMOTE's precondition holds.

    SMOTE needs >= 2 members per minority class; with a singleton class the
    set is left unbalanced (with a warning) rather than aborting the run.
    """
    classes, counts = np.unique(y, return_counts=True)
    if not config.smote or counts.min() == counts.max():
        return matrix, y  # off, or already balanced
    if counts.min() < 2:
        log.warning("skipping SMOTE: class(es) %s have a single member",
                    sorted(str(c) for c in classes[counts < 2]))
        return matrix, y
    return features.smote_oversample(matrix, y, k_neighbors=config.smote_k,
                                     seed=config.seed, names=names)


def train_bundle(matrix: features.FeatureMatrix,
                 labels_by_segment_id: dict[str, str],
                 space: features.FeatureSpace,
                 config: RunConfig) -> ClassifierBundle:
    """Train stage: fit `config.model_kind` on the rows of `matrix` whose
    segment has a label. The matrix must have the columns of `space`,
    which the bundle carries for classification."""
    rows = [i for i, sid in enumerate(matrix.segment_ids)
            if sid in labels_by_segment_id]
    if not rows:
        raise DataError("no segment has a training label")
    y = np.array([labels_by_segment_id[matrix.segment_ids[i]] for i in rows])
    x = matrix.values[rows]
    # a column too large to standardize is named before SMOTE's distances
    # overflow on it
    models.standardize_fit(x, matrix.names)
    if matrix.names != space.names:
        raise DataError(f"the feature columns are not those of "
                        f"feature_groups {','.join(space.feature_groups)} "
                        f"with this vocabulary")
    x, y = _maybe_smote(x, y, config, matrix.names)
    model = models.train(config.model_kind, x, y,
                         hyper=config.model_hyper(), seed=config.seed,
                         feature_names=matrix.names)
    return ClassifierBundle(model=model, space=space)


def classify(bundle: ClassifierBundle,
             matrix: features.FeatureMatrix) -> dict[str, str]:
    """Classify stage: the bundle's label for each row of `matrix`."""
    return dict(zip(matrix.segment_ids, models.predict(
        bundle.model, matrix.values, feature_names=matrix.names)))


def classify_segments(segments: list[Segment],
                      transcripts: dict[str, Transcript],
                      tracks: dict[str, VideoTrack],
                      bundle: ClassifierBundle) -> dict[str, str]:
    """Classify with a trained bundle, assembling features its way."""
    texts = [features.segment_text(s, transcripts[s.video_id])
             for s in segments]
    return classify(bundle, features.assemble_features(
        segments, texts, transcripts, tracks, bundle.space))


def keyframe_lookup(segments: list[Segment],
                    tracks: dict[str, VideoTrack]) -> dict[str, np.ndarray]:
    """Keyframe histograms of each segment that has at least one."""
    lookup = {}
    for s in segments:
        rows = tracks[s.video_id].histograms_at(s.keyframe_timestamps)
        if rows.size:
            lookup[s.segment_id] = rows
    return lookup


def group_contexts(segments: list[Segment], labels: dict[str, str],
                   tracks: dict[str, VideoTrack], config: RunConfig
                   ) -> tuple[clustering.ClusterAssignment,
                              dict[str, np.ndarray]]:
    """Group stage: cluster the informative segments by visual context.

    A segment without keyframes is noise, so it becomes its own context.
    Returns the assignment and the keyframes of the segments that have
    them.
    """
    segments = [s for s in segments if labels[s.segment_id]
                != models.IssueLabel.NON_INFORMATIVE.value]
    keyframes = keyframe_lookup(segments, tracks)
    bare = [s.segment_id for s in segments if s.segment_id not in keyframes]
    for sid in bare:
        log.warning("segment %s has no keyframes; becomes its own context",
                    sid)
    assignment = clustering.group_by_context(
        [s.segment_id for s in segments if s.segment_id in keyframes],
        keyframes, algorithm=config.context_algorithm,
        params=config.cluster_params("context"))
    assignment = replace(
        assignment, ids=assignment.ids + tuple(bare),
        labels={**assignment.labels, **dict.fromkeys(bare, clustering.NOISE)})
    return assignment, keyframes


def build_hierarchy(segments: list[Segment],
                    predictions: dict[str, str],
                    transcripts: dict[str, Transcript],
                    tracks: dict[str, VideoTrack],
                    config: RunConfig,
                    bundle: ClassifierBundle) -> dict:
    """Contexts > categories > issue clusters of the informative segments."""
    by_id = {s.segment_id: s for s in segments}
    assignment, keyframes = group_contexts(segments, predictions, tracks,
                                           config)
    informative = [by_id[sid] for sid in assignment.ids]
    context_groups = list(assignment.clusters().values())
    context_groups += [[sid] for sid in assignment.noise()]
    context_groups.sort(key=lambda g: min(g))

    # issue clustering reuses the classifier's vocabulary and tokenizer
    # settings so its tf-idf space matches the one the labels came from
    space = bundle.space
    text_vectors = dict(zip(assignment.ids, features.text_features(
        [features.segment_text(s, transcripts[s.video_id])
         for s in informative],
        space.vocabulary, space.ngram_max, space.stopwords)))

    contexts = []
    for ci, members in enumerate(context_groups):
        context_id = f"ctx_{ci:04d}"
        segs = [by_id[m] for m in members]
        label_counts = Counter(predictions[m] for m in members)
        categories = []
        for label in INFORMATIVE_LABELS:
            in_category = sorted(m for m in members
                                 if predictions[m] == label)
            if not in_category:
                continue
            if len(in_category) == 1:
                cluster_groups = [(in_category, in_category[0])]
            else:
                # a context of two or more holds only segments with
                # keyframes: a bare one is noise, its own context
                issue = clustering.cluster_issues(
                    in_category, text_vectors, keyframes,
                    alpha=config.issue_alpha,
                    algorithm=config.issue_algorithm,
                    params=config.cluster_params("issue"))
                cluster_groups = [(group, issue.medoids[cid])
                                  for cid, group in issue.clusters().items()]
                cluster_groups += [([sid], sid) for sid in issue.noise()]
                cluster_groups.sort(key=lambda g: min(g[0]))
            categories.append({
                "label": label,
                "clusters": [
                    {"cluster_id": f"{context_id}/{label}/{k}",
                     "medoid": medoid,
                     "members": sorted(cluster_members)}
                    for k, (cluster_members, medoid)
                    in enumerate(cluster_groups)
                ],
            })
        contexts.append({
            "context_id": context_id,
            "summary": {
                "n_segments": len(segs),
                "total_duration_ms": sum(s.duration_ms for s in segs),
                "label_distribution": dict(sorted(label_counts.items())),
            },
            "categories": categories,
        })

    n_informative = len(informative)
    return {
        "schema_version": HIERARCHY_SCHEMA_VERSION,
        "contexts": contexts,
        "counts": {
            "n_segments": len(segments),
            "n_informative": n_informative,
            "n_non_informative": len(segments) - n_informative,
            "n_contexts": len(contexts),
        },
    }


def run_pipeline(manifest: Manifest, config: RunConfig,
                 bundle: ClassifierBundle | None = None) -> PipelineResult:
    """Execute every stage in order; deterministic given the seed."""
    config.validate()
    if bundle is None and not config.labels_path:
        raise ConfigError("run needs train.labels_path or a pretrained "
                          "bundle (run --model)")
    manifest.validate()
    timed = StageClock()
    transcripts, tracks = ingest(manifest, config, timed)
    segments = segment(transcripts, tracks, config, timed)

    if bundle is not None:
        predictions = timed("classify", lambda: classify_segments(
            segments, transcripts, tracks, bundle))
    else:
        probes = load_label_probes(config.labels_path)
        training_labels = match_probes(probes, segments)
        space, matrix = timed("features", lambda: extract_features(
            segments, transcripts, tracks, config))
        bundle = timed("train", lambda: train_bundle(
            matrix, training_labels, space, config))
        predictions = timed("classify", lambda: classify(bundle, matrix))

    hierarchy = timed("group+cluster", lambda: build_hierarchy(
        segments, predictions, transcripts, tracks, config, bundle))

    counts = hierarchy["counts"]
    run_report = {
        "schema_version": 1,
        "seed": config.seed,
        "videos": [v.video_id for v in manifest.videos],
        "counts": counts,
        "stage_timings": timed.timings,
        "notes": (["all segments classified non-informative"]
                  if counts["n_informative"] == 0 else []),
    }
    return PipelineResult(hierarchy=hierarchy, run_report=run_report,
                          segments=segments, predictions=predictions,
                          bundle=bundle)


# ---------------------------------------------------------------------------
# Report export


def hierarchy_to_json(hierarchy: dict) -> str:
    """Canonical: sorted keys, two-space indent, LF-terminated."""
    return json.dumps(hierarchy, sort_keys=True, indent=2) + "\n"


def _esc(value) -> str:
    return html_lib.escape(str(value))


def hierarchy_to_html(hierarchy: dict) -> str:
    """Single self-contained static page: contexts > categories > clusters."""
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">",
        "<title>Issue report hierarchy</title>",
        "<style>body{font-family:sans-serif;margin:2em}"
        "section.context{border:1px solid #999;margin:1em 0;padding:0 1em}"
        "ul{list-style:none} .medoid{font-weight:bold}</style>",
        "</head><body>",
        "<h1>Issue report hierarchy</h1>",
    ]
    counts = hierarchy.get("counts", {})
    parts.append(
        f"<p>{_esc(counts.get('n_informative', 0))} informative / "
        f"{_esc(counts.get('n_segments', 0))} segments in "
        f"{_esc(counts.get('n_contexts', 0))} contexts.</p>")
    for context in hierarchy.get("contexts", []):
        summary = context.get("summary", {})
        parts.append(f"<section class=\"context\" "
                     f"id=\"{_esc(context['context_id'])}\">")
        parts.append(f"<h2>Context {_esc(context['context_id'])}</h2>")
        dist = ", ".join(f"{_esc(k)}: {_esc(v)}" for k, v in
                         summary.get("label_distribution", {}).items())
        parts.append(
            f"<p>{_esc(summary.get('n_segments', 0))} segments, "
            f"{_esc(summary.get('total_duration_ms', 0))} ms total"
            + (f" ({dist})" if dist else "") + "</p>")
        for category in context.get("categories", []):
            parts.append(f"<h3>{_esc(category['label'])}</h3>")
            for cluster in category.get("clusters", []):
                parts.append(f"<h4>Cluster {_esc(cluster['cluster_id'])}"
                             f"</h4><ul>")
                medoid = cluster.get("medoid")
                ordered = ([medoid] if medoid else []) + [
                    m for m in cluster.get("members", []) if m != medoid]
                for member in ordered:
                    cls = " class=\"medoid\"" if member == medoid else ""
                    parts.append(f"<li{cls}>{_esc(member)}</li>")
                parts.append("</ul>")
        parts.append("</section>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def export_report(hierarchy: dict, fmt: str, path: str | Path) -> None:
    """Write the hierarchy as canonical JSON or a static HTML page."""
    if fmt == "json":
        text = hierarchy_to_json(hierarchy)
    elif fmt == "html":
        text = hierarchy_to_html(hierarchy)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise DataError(f"cannot write report {path}: {exc}") from None
