"""End-to-end orchestration: ingest -> segment -> classify -> group ->
cluster -> report, under one manifest and one config.

Stages communicate through documented JSON/CSV artifacts so each one is
independently runnable from the CLI. Every artifact is canonical (sorted
keys, LF endings) and everything downstream of the seed is deterministic,
so re-running a manifest reproduces byte-identical outputs. Partial outputs
are never written: a failing stage aborts before the write phase.
"""

from __future__ import annotations

import html as html_lib
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import clustering, features, models
from .config import RunConfig
from .errors import ConfigError, DataError, ParseError, StageError
from .frames import VideoTrack, load_track
from .segmentation import Segment, segment_video
from .subtitles import Transcript, parse_srt, parse_vtt

log = logging.getLogger(__name__)

HIERARCHY_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1
BUNDLE_SCHEMA_VERSION = 1

INFORMATIVE_LABELS = tuple(
    name for name in models.LABEL_ORDER
    if name != models.IssueLabel.NON_INFORMATIVE.value)


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


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from None
    if obj.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise DataError(f"unsupported manifest schema_version "
                        f"{obj.get('schema_version')!r}")
    base = path.parent
    videos = []
    for entry in obj.get("videos", []):
        for key in ("video_id", "subtitles", "frames"):
            if key not in entry:
                raise DataError(f"manifest entry missing {key!r}: {entry}")
        videos.append(VideoEntry(
            video_id=entry["video_id"],
            subtitles=base / entry["subtitles"],
            frames=base / entry["frames"],
            duration_ms=entry.get("duration_ms"),
        ))
    manifest = Manifest(videos=videos)
    manifest.validate()
    return manifest


def parse_subtitle_file(path: Path, video_id: str) -> Transcript:
    data = path.read_bytes()
    parse = parse_vtt if path.suffix.lower() == ".vtt" else parse_srt
    try:
        return parse(data, video_id=video_id)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.detail}", exc.line) from None


# ---------------------------------------------------------------------------
# Classifier bundle: model + vocabulary + feature configuration


@dataclass
class ClassifierBundle:
    """Everything classification needs to reproduce features at predict time."""

    model: models.TrainedModel
    vocabulary: features.Vocabulary
    feature_groups: tuple[str, ...]
    ngram_max: int
    stopwords: frozenset[str]
    embedding: features.EmbeddingTable | None = None

    def to_json(self) -> str:
        payload = {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "model": json.loads(models.model_to_json(self.model)),
            "vocabulary": self.vocabulary.to_dict(),
            "feature_groups": list(self.feature_groups),
            "ngram_max": self.ngram_max,
            "stopwords": sorted(self.stopwords),
            "embedding": (
                {tok: vec.tolist()
                 for tok, vec in sorted(self.embedding.vectors.items())}
                if self.embedding is not None else None),
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ClassifierBundle":
        obj = json.loads(text)
        if obj.get("schema_version") != BUNDLE_SCHEMA_VERSION:
            raise DataError(f"unsupported classifier bundle schema_version "
                            f"{obj.get('schema_version')!r}")
        table = None
        if obj.get("embedding"):
            vectors = {tok: np.array(vec)
                       for tok, vec in obj["embedding"].items()}
            dim = next(iter(vectors.values())).size
            table = features.EmbeddingTable(vectors=vectors, dim=dim)
        return ClassifierBundle(
            model=models.model_from_json(json.dumps(obj["model"])),
            vocabulary=features.Vocabulary.from_dict(obj["vocabulary"]),
            feature_groups=tuple(obj["feature_groups"]),
            ngram_max=obj["ngram_max"],
            stopwords=frozenset(obj["stopwords"]),
            embedding=table,
        )


def load_bundle(path: str | Path) -> ClassifierBundle:
    try:
        return ClassifierBundle.from_json(
            Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read classifier bundle {path}: "
                        f"{exc}") from None


def load_label_probes(path: str | Path) -> list[dict]:
    """Training label probes: JSONL of {video_id, at_ms, label}."""
    probes = []
    for line_no, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{line_no}: bad JSON: {exc}") from None
        for key in ("video_id", "at_ms", "label"):
            if key not in obj:
                raise DataError(f"{path}:{line_no}: probe missing {key!r}")
        if obj["label"] not in models.LABEL_ORDER:
            raise DataError(f"{path}:{line_no}: unknown label "
                            f"{obj['label']!r}")
        probes.append(obj)
    return probes


def match_probes(probes: list[dict],
                 segments: list[Segment]) -> dict[str, str]:
    """Map each probe to the segment containing its timestamp.

    Later probes win when two land in the same segment; conflicting labels
    get a warning since they signal a probe/segmentation mismatch.
    """
    labels: dict[str, str] = {}
    for probe in probes:
        hit = next((s for s in segments
                    if s.video_id == probe["video_id"]
                    and s.start_ms <= probe["at_ms"] < s.end_ms), None)
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
# Dataset split


def split_dataset(segment_ids: list[str], labels: dict[str, str],
                  fractions: tuple[float, float] = (0.1, 0.9),
                  seed: int = 0) -> tuple[list[str], list[str]]:
    """Stratified (evaluation, test) split; disjoint, union = input.

    Evaluation quota is round(n * f_eval), allocated per label by largest
    remainder so each label's share stays within one item of proportional.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError("split fractions must sum to 1")
    f_eval = fractions[0]
    ids = sorted(segment_ids)
    n = len(ids)
    target = int(round(n * f_eval))
    rng = np.random.default_rng(seed)
    by_label: dict[str, list[str]] = {}
    for sid in ids:
        by_label.setdefault(labels[sid], []).append(sid)
    for members in by_label.values():
        if len(members) < 2:
            log.warning("label with %d member(s) cannot be stratified; "
                        "best effort", len(members))
    quotas = {}
    remainders = []
    assigned = 0
    for label in sorted(by_label):
        exact = len(by_label[label]) * f_eval
        quotas[label] = int(exact)
        assigned += quotas[label]
        remainders.append((-(exact - int(exact)), label))
    for _, label in sorted(remainders):
        if assigned >= target:
            break
        if quotas[label] < len(by_label[label]):
            quotas[label] += 1
            assigned += 1
    evaluation: list[str] = []
    test: list[str] = []
    for label in sorted(by_label):
        members = list(by_label[label])
        order = rng.permutation(len(members))
        chosen = {members[i] for i in order[:quotas[label]]}
        evaluation += [m for m in members if m in chosen]
        test += [m for m in members if m not in chosen]
    return sorted(evaluation), sorted(test)


# ---------------------------------------------------------------------------
# Pipeline stages


@dataclass
class PipelineResult:
    hierarchy: dict
    run_report: dict
    segments: list[Segment]
    predictions: dict[str, str]
    bundle: ClassifierBundle


def keyframe_lookup(segments: list[Segment],
                    tracks: dict[str, VideoTrack]) -> dict[str, np.ndarray]:
    """Keyframe histograms of each segment that has at least one."""
    lookup = {}
    for s in segments:
        rows = tracks[s.video_id].histograms_at(s.keyframe_timestamps)
        if rows.size:
            lookup[s.segment_id] = rows
    return lookup


def _maybe_smote(matrix: np.ndarray, y: np.ndarray,
                 config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Oversample an unbalanced training set when SMOTE's precondition holds.

    SMOTE needs >= 2 members per minority class; with a singleton class the
    set is left unbalanced (with a warning) rather than aborting the run.
    """
    if not config.smote or np.unique(y).size < 2:
        return matrix, y
    counts = {lbl: int((y == lbl).sum()) for lbl in np.unique(y)}
    if len(set(counts.values())) == 1:
        return matrix, y  # already balanced
    if min(counts.values()) < 2:
        log.warning("skipping SMOTE: class(es) %s have a single member",
                    sorted(str(k) for k, v in counts.items() if v < 2))
        return matrix, y
    return features.smote_oversample(matrix, y, k_neighbors=config.smote_k,
                                     seed=config.seed)


def _train_bundle(segments: list[Segment],
                  transcripts: dict[str, Transcript],
                  tracks: dict[str, VideoTrack],
                  training_labels: dict[str, str],
                  config: RunConfig) -> ClassifierBundle:
    labeled = [s for s in segments if s.segment_id in training_labels]
    if not labeled:
        raise DataError("no training segments matched the label probes")
    stopwords = config.stopword_set()
    vocab = features.fit_vocabulary(
        [features.segment_text(s, transcripts[s.video_id]) for s in labeled],
        ngram_max=config.ngram_max, stopwords=stopwords,
        min_df=config.min_df)
    table = (features.load_embedding_table(config.embedding_path)
             if config.embedding_path else None)
    groups = config.feature_group_list()
    vectors = features.assemble_all(
        labeled, transcripts, tracks, vocab=vocab, table=table,
        ngram_max=config.ngram_max, stopwords=stopwords, groups=groups)
    matrix, names = features.feature_matrix(vectors)
    y = np.array([training_labels[s.segment_id] for s in labeled])
    matrix, y = _maybe_smote(matrix, y, config)
    model = models.train(config.model_kind, matrix, y,
                         hyper=config.model_hyper(), seed=config.seed,
                         feature_names=names)
    return ClassifierBundle(model=model, vocabulary=vocab,
                            feature_groups=groups,
                            ngram_max=config.ngram_max, stopwords=stopwords,
                            embedding=table)


def classify_segments(segments: list[Segment],
                      transcripts: dict[str, Transcript],
                      tracks: dict[str, VideoTrack],
                      bundle: ClassifierBundle) -> dict[str, str]:
    if "embedding" in bundle.feature_groups and bundle.embedding is None:
        raise DataError("bundle uses embedding features but carries no table")
    vectors = features.assemble_all(
        segments, transcripts, tracks, vocab=bundle.vocabulary,
        table=bundle.embedding, ngram_max=bundle.ngram_max,
        stopwords=bundle.stopwords, groups=bundle.feature_groups)
    matrix, names = features.feature_matrix(vectors)
    labels = models.predict(bundle.model, matrix, feature_names=names)
    return {s.segment_id: lbl for s, lbl in zip(segments, labels)}


def build_hierarchy(segments: list[Segment],
                    predictions: dict[str, str],
                    transcripts: dict[str, Transcript],
                    tracks: dict[str, VideoTrack],
                    config: RunConfig,
                    bundle: ClassifierBundle) -> dict:
    by_id = {s.segment_id: s for s in segments}
    informative = [s for s in segments
                   if predictions[s.segment_id]
                   != models.IssueLabel.NON_INFORMATIVE.value]
    keyframes = keyframe_lookup(informative, tracks)
    clusterable = []
    bare = []
    for s in informative:
        if s.segment_id in keyframes:
            clusterable.append(s.segment_id)
        else:
            bare.append(s.segment_id)
            log.warning("segment %s has no keyframes; becomes its own "
                        "context", s.segment_id)

    assignment = clustering.group_by_context(
        clusterable, keyframes, algorithm=config.context_algorithm,
        params=config.context_params())
    context_groups = [members for _, members in
                      sorted(assignment.clusters().items())]
    context_groups += [[sid] for sid in assignment.noise()]
    context_groups += [[sid] for sid in bare]
    context_groups.sort(key=lambda g: min(g))

    # issue clustering reuses the classifier's vocabulary and tokenizer
    # settings so its tf-idf space matches the one the labels came from
    text_vectors = {
        s.segment_id: features.text_features(
            features.segment_text(s, transcripts[s.video_id]),
            bundle.vocabulary, bundle.ngram_max, bundle.stopwords).values
        for s in informative}

    contexts = []
    for ci, members in enumerate(context_groups):
        context_id = f"ctx_{ci:04d}"
        segs = [by_id[m] for m in members]
        label_counts: dict[str, int] = {}
        for s in segs:
            lbl = predictions[s.segment_id]
            label_counts[lbl] = label_counts.get(lbl, 0) + 1
        categories = []
        for label in INFORMATIVE_LABELS:
            in_category = sorted(s.segment_id for s in segs
                                 if predictions[s.segment_id] == label)
            if not in_category:
                continue
            with_kf = [sid for sid in in_category if sid in keyframes]
            without_kf = [sid for sid in in_category if sid not in keyframes]
            issue = clustering.cluster_issues(
                with_kf, text_vectors, keyframes, alpha=config.issue_alpha,
                algorithm=config.issue_algorithm,
                params=config.issue_params()) if with_kf else None
            cluster_groups: list[tuple[list[str], str]] = []
            if issue is not None:
                for cid, cluster_members in sorted(issue.clusters().items()):
                    cluster_groups.append(
                        (cluster_members, issue.medoids.get(
                            cid, min(cluster_members))))
                cluster_groups += [([sid], sid) for sid in issue.noise()]
            cluster_groups += [([sid], sid) for sid in without_kf]
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
    manifest.validate()
    timings: list[dict] = []

    def timed(stage: str, fn, video_id: str | None = None):
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            raise StageError(stage, video_id, exc) from exc
        timings.append({"stage": stage, "video_id": video_id,
                        "seconds": time.perf_counter() - start})
        return out

    transcripts: dict[str, Transcript] = {}
    tracks: dict[str, VideoTrack] = {}
    for entry in manifest.videos:
        transcripts[entry.video_id] = timed(
            "ingest", lambda e=entry: parse_subtitle_file(e.subtitles,
                                                          e.video_id),
            entry.video_id)
        tracks[entry.video_id] = timed(
            "ingest", lambda e=entry: load_track(
                e.frames, e.video_id, e.duration_ms,
                config.bins_per_channel),
            entry.video_id)

    segments: list[Segment] = []
    seg_cfg = config.segmenter_config()
    for entry in manifest.videos:
        segments += timed(
            "segment", lambda e=entry: segment_video(
                tracks[e.video_id], transcripts[e.video_id], seg_cfg),
            entry.video_id)

    if bundle is None:
        if config.model_path:
            bundle = timed("train", lambda: load_bundle(config.model_path))
        elif config.labels_path:
            probes = load_label_probes(config.labels_path)
            training_labels = match_probes(probes, segments)
            bundle = timed("train", lambda: _train_bundle(
                segments, transcripts, tracks, training_labels, config))
        else:
            raise ConfigError("run_pipeline needs train.model_path or "
                              "train.labels_path (or a bundle argument)")

    predictions = timed("classify", lambda: classify_segments(
        segments, transcripts, tracks, bundle))

    hierarchy = timed("group+cluster", lambda: build_hierarchy(
        segments, predictions, transcripts, tracks, config, bundle))

    counts = hierarchy["counts"]
    if counts["n_informative"] + counts["n_non_informative"] \
            != counts["n_segments"]:
        raise StageError("report", None,
                         DataError("segment conservation violated"))
    run_report = {
        "schema_version": 1,
        "seed": config.seed,
        "videos": [v.video_id for v in manifest.videos],
        "counts": counts,
        "stage_timings": timings,
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
