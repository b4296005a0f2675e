"""Spans around gelid's public functions, installed from outside ``src/``.

Each target is wrapped at the name its callers resolve when they call it:
``pipeline`` and ``cli`` import ``load_track`` and friends by name, so the
wrapper goes on ``gelid.pipeline.load_track`` and ``gelid.cli.load_track``,
not on ``gelid.frames.load_track``. A span records its name, start, end
and parent; spans stay in memory until the execution ends. Counts of the
work done are read from each call's arguments and return value.

``segment_video`` binds its shot detector as a default argument when the
module is imported, so shot detection cannot be wrapped on its own and
shows up as ``segmentation.segment_video`` self time.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import time
from collections import Counter, defaultdict


def _count_cues(counts, args, kwargs, result):
    counts["subtitles.cues"] += len(result.cues)


def _count_frames(counts, args, kwargs, result):
    counts["frames.frames"] += len(result.frames)


def _count_segments(counts, args, kwargs, result):
    counts["segmentation.segments"] += len(result)


def _count_cuts(counts, args, kwargs, result):
    for rule in ("sentence_end", "silence_passthrough"):
        counts[f"segmentation.cuts_{rule}"] += 0
    for cut in result:
        counts[f"segmentation.cuts_{cut.snap_rule.value}"] += 1


def _count_smote(counts, args, kwargs, result):
    counts["features.smote_rows_added"] += len(result[1]) - len(args[1])


def _count_train(counts, args, kwargs, result):
    counts["models.train_rows"] += len(args[1])


def _count_predict(counts, args, kwargs, result):
    counts["models.predict_rows"] += len(result)


def _pair_counter(key):
    def count(counts, args, kwargs, result):
        n = len(result.ids)
        counts[key] += n * (n - 1) // 2
    return count


def _count_contexts(counts, args, kwargs, result):
    counts["clustering.contexts"] += len(result.clusters())
    counts["clustering.noise_points"] += len(result.noise())


def _count_probes(counts, args, kwargs, result):
    probes, segments = args[0], args[1]
    spans = defaultdict(list)
    for seg in segments:
        spans[seg.video_id].append((seg.start_ms, seg.end_ms))
    for video in spans.values():
        video.sort()
    matched = 0
    for probe in probes:
        video = spans.get(probe["video_id"], [])
        i = bisect.bisect_right(video, (probe["at_ms"], float("inf"))) - 1
        matched += i >= 0 and video[i][0] <= probe["at_ms"] < video[i][1]
    counts["pipeline.probes_matched"] += matched
    counts["pipeline.probes_missed"] += len(probes) - matched


CLI_COMMANDS = ("run", "ingest", "segment", "features", "train", "classify",
                "group", "cluster", "report", "eval")

# (module, attribute, span name, counter); "module:Class" wraps a method
TARGETS = [
    ("gelid.pipeline", "parse_subtitle_file",
     "subtitles.parse_subtitle_file", _count_cues),
    ("gelid.cli", "parse_subtitle_file",
     "subtitles.parse_subtitle_file", _count_cues),
    ("gelid.pipeline", "load_track", "frames.load_track", _count_frames),
    ("gelid.cli", "load_track", "frames.load_track", _count_frames),
    ("gelid.pipeline", "segment_video", "segmentation.segment_video",
     _count_segments),
    ("gelid.cli", "segment_video", "segmentation.segment_video",
     _count_segments),
    ("gelid.segmentation", "derive_cut_points",
     "segmentation.derive_cut_points", _count_cuts),
    ("gelid.segmentation", "build_segments", "segmentation.build_segments",
     None),
    ("gelid.features", "assemble_features", "features.assemble_features",
     None),
    ("gelid.features", "video_features", "features.video_features", None),
    ("gelid.features", "speech_features", "features.speech_features", None),
    ("gelid.features", "text_features", "features.text_features", None),
    ("gelid.features", "fit_vocabulary", "features.fit_vocabulary", None),
    ("gelid.features", "smote_oversample", "features.smote_oversample",
     _count_smote),
    ("gelid.models", "train", "models.train", _count_train),
    ("gelid.models", "predict", "models.predict", _count_predict),
    ("gelid.clustering", "group_by_context", "clustering.group_by_context",
     _count_contexts),
    ("gelid.clustering", "cluster_issues", "clustering.cluster_issues", None),
    ("gelid.clustering", "build_context_matrix",
     "clustering.build_context_matrix", _pair_counter("clustering.context_pairs")),
    ("gelid.clustering", "build_issue_matrix",
     "clustering.build_issue_matrix", _pair_counter("clustering.issue_pairs")),
    ("gelid.clustering", "dbscan", "clustering.dbscan", None),
    ("gelid.clustering", "optics", "clustering.optics", None),
    ("gelid.clustering", "mean_shift", "clustering.mean_shift", None),
    ("gelid.pipeline", "match_probes", "pipeline.match_probes",
     _count_probes),
    ("gelid.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("gelid.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("gelid.pipeline", "classify_segments", "pipeline.classify_segments",
     None),
    ("gelid.cli", "classify_segments", "pipeline.classify_segments", None),
    ("gelid.pipeline", "build_hierarchy", "pipeline.build_hierarchy", None),
    ("gelid.pipeline", "hierarchy_to_json", "pipeline.hierarchy_to_json",
     None),
    ("gelid.cli", "hierarchy_to_json", "pipeline.hierarchy_to_json", None),
    ("gelid.pipeline:ClassifierBundle", "to_json", "pipeline.bundle_to_json",
     None),
    ("gelid.pipeline", "export_report", "pipeline.export_report", None),
    ("gelid.cli", "export_report", "pipeline.export_report", None),
    ("gelid.stats", "mojo_fm", "stats.mojo_fm", None),
    ("gelid.stats", "max_mno", "stats.max_mno", None),
] + [("gelid.cli", f"cmd_{cmd}", f"cli.{cmd}", None) for cmd in CLI_COMMANDS]


class Tracer:
    """In-memory span recorder; ``install`` wraps every target it finds."""

    def __init__(self, execution: int = 0):
        self.execution = execution
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, original, name, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module_name, _, class_name = module_name.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, counter))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls and self time (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - children
        return out

    def dump(self) -> dict:
        return {"execution": self.execution,
                "spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "summary": self.summary(),
                "counts": dict(self.counts),
                "missing": self.missing}
