import json
import warnings

import numpy as np
import pytest

from conftest import THREE_VIDEO_WORLD, write_world
from gelid.config import RunConfig, load_config
from gelid.errors import ConfigError, DataError, StageError
from gelid.features import FeatureMatrix
from gelid.pipeline import (Manifest, VideoEntry, export_report,
                            hierarchy_to_html, hierarchy_to_json, load_bundle,
                            load_manifest, run_pipeline, train_bundle)


def _run_world(tmp_path, videos, overrides=None, seed=1234):
    paths = write_world(tmp_path / "world", videos, seed=seed,
                        config_overrides=overrides or {})
    config = load_config(str(paths["config"]))
    manifest = load_manifest(paths["manifest"])
    return run_pipeline(manifest, config), paths


# --- manifest ----------------------------------------------------------------

def test_manifest_duplicate_ids_rejected():
    entry = VideoEntry("v1", subtitles="a.srt", frames="a.csv")
    manifest = Manifest(videos=[entry, entry])
    with pytest.raises(DataError, match="duplicate"):
        manifest.validate()


def test_manifest_loads_relative_paths(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps({
        "schema_version": 1,
        "videos": [{"video_id": "v", "subtitles": "v.srt",
                    "frames": "v.csv"}]}))
    manifest = load_manifest(tmp_path / "m.json")
    assert manifest.videos[0].subtitles == tmp_path / "v.srt"


def test_manifest_schema_version_checked(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps({"schema_version": 9,
                                                 "videos": []}))
    with pytest.raises(DataError, match="schema_version"):
        load_manifest(tmp_path / "m.json")


# --- report export ----------------------------------------------------------------

def test_export_empty_hierarchy_valid_json(tmp_path):
    hierarchy = {"schema_version": 1, "contexts": [],
                 "counts": {"n_segments": 0, "n_informative": 0,
                            "n_non_informative": 0, "n_contexts": 0}}
    out = tmp_path / "h.json"
    export_report(hierarchy, "json", out)
    parsed = json.loads(out.read_text())
    assert parsed["contexts"] == []


def test_export_same_hierarchy_twice_is_byte_identical(tmp_path):
    hierarchy = {"schema_version": 1, "contexts": [],
                 "counts": {"n_segments": 0, "n_informative": 0,
                            "n_non_informative": 0, "n_contexts": 0}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    export_report(hierarchy, "json", a)
    export_report(hierarchy, "json", b)
    assert a.read_bytes() == b.read_bytes()
    ha, hb = tmp_path / "a.html", tmp_path / "b.html"
    export_report(hierarchy, "html", ha)
    export_report(hierarchy, "html", hb)
    assert ha.read_bytes() == hb.read_bytes()


def test_export_html_has_one_section_per_context():
    hierarchy = {
        "schema_version": 1,
        "contexts": [
            {"context_id": "ctx_0000", "summary": {"n_segments": 1,
                                                   "total_duration_ms": 5,
                                                   "label_distribution": {}},
             "categories": []},
            {"context_id": "ctx_0001", "summary": {"n_segments": 1,
                                                   "total_duration_ms": 5,
                                                   "label_distribution": {}},
             "categories": []},
        ],
        "counts": {"n_segments": 2, "n_informative": 2,
                   "n_non_informative": 0, "n_contexts": 2}}
    html = hierarchy_to_html(hierarchy)
    assert html.count("<section class=\"context\"") == 2


def test_export_unknown_format_rejected(tmp_path):
    with pytest.raises(ConfigError):
        export_report({}, "pdf", tmp_path / "x")


# --- run_pipeline --------------------------------------------------------------------

def test_run_pipeline_recovers_scenes_and_contexts(tmp_path):
    result, _ = _run_world(tmp_path, THREE_VIDEO_WORLD)
    counts = result.hierarchy["counts"]
    assert counts["n_segments"] == 9       # 3 scenes per video
    assert counts["n_non_informative"] == 3
    assert counts["n_informative"] == 6
    # segment conservation: every informative segment in exactly one cluster
    seen = []
    for context in result.hierarchy["contexts"]:
        for category in context["categories"]:
            for cluster in category["clusters"]:
                seen += cluster["members"]
    assert len(seen) == len(set(seen)) == counts["n_informative"]
    # vid_a and vid_b share scenes: their Logic segments share a context
    by_segment = {}
    for context in result.hierarchy["contexts"]:
        for category in context["categories"]:
            for cluster in category["clusters"]:
                for member in cluster["members"]:
                    by_segment[member] = context["context_id"]
    assert by_segment["vid_a_0000"] == by_segment["vid_b_0000"]


def test_run_pipeline_duplicate_videos_one_context_size_two_clusters(tmp_path):
    world = {
        "dup_a": [{"duration_ms": 30000, "base_bin": 2, "label": "Logic"}],
        "dup_b": [{"duration_ms": 30000, "base_bin": 2, "label": "Logic"}],
        "other": [{"duration_ms": 30000, "base_bin": 9,
                   "label": "Performance"}],
    }
    result, _ = _run_world(tmp_path, world)
    assert result.hierarchy["counts"]["n_segments"] == 3
    contexts = result.hierarchy["contexts"]
    dup_contexts = [c for c in contexts
                    if any("dup" in m for cat in c["categories"]
                           for cl in cat["clusters"] for m in cl["members"])]
    assert len(dup_contexts) == 1
    cluster = dup_contexts[0]["categories"][0]["clusters"][0]
    assert cluster["members"] == ["dup_a_0000", "dup_b_0000"]
    assert cluster["medoid"] == "dup_a_0000"


def test_run_pipeline_all_non_informative_empty_hierarchy(tmp_path):
    world = {
        "v1": [{"duration_ms": 30000, "base_bin": 1,
                "label": "NonInformative"},
               {"duration_ms": 30000, "base_bin": 8, "label": "Logic"}],
    }
    # label everything non-informative at classify time by training on
    # a world whose every probe says NonInformative ... but training needs
    # two classes, so train on the two-scene world and classify a manifest
    # whose only video matches the non-informative scene.
    paths = write_world(tmp_path / "train_world", world, seed=5)
    config = load_config(str(paths["config"]))
    manifest = load_manifest(paths["manifest"])
    result = run_pipeline(manifest, config)
    bundle = result.bundle

    lonely = {
        "v2": [{"duration_ms": 30000, "base_bin": 1,
                "label": "NonInformative"}],
    }
    paths2 = write_world(tmp_path / "apply_world", lonely, seed=6)
    config2 = load_config(str(paths2["config"]))
    manifest2 = load_manifest(paths2["manifest"])
    result2 = run_pipeline(manifest2, config2, bundle=bundle)
    assert result2.hierarchy["counts"]["n_informative"] == 0
    assert result2.hierarchy["contexts"] == []
    assert "all segments classified non-informative" in \
        result2.run_report["notes"]


def test_run_pipeline_rerun_same_seed_byte_identical(tmp_path):
    result1, _ = _run_world(tmp_path / "r1", THREE_VIDEO_WORLD)
    result2, _ = _run_world(tmp_path / "r2", THREE_VIDEO_WORLD)
    assert hierarchy_to_json(result1.hierarchy) == \
        hierarchy_to_json(result2.hierarchy)


def test_run_pipeline_stage_error_names_stage_and_video(tmp_path):
    paths = write_world(tmp_path / "world", THREE_VIDEO_WORLD)
    # corrupt one subtitle file
    (tmp_path / "world" / "vid_b.srt").write_text(
        "1\n00:00:01,000 --> bogus\nbroken\n")
    config = load_config(str(paths["config"]))
    manifest = load_manifest(paths["manifest"])
    with pytest.raises(StageError) as err:
        run_pipeline(manifest, config)
    assert err.value.stage == "ingest"
    assert err.value.video_id == "vid_b"
    assert err.value.exit_code == 2


def test_run_pipeline_without_model_or_labels_is_config_error(tmp_path):
    paths = write_world(tmp_path / "world", THREE_VIDEO_WORLD,
                        config_overrides={"train.labels_path": ""})
    config = load_config(str(paths["config"]))
    manifest = load_manifest(paths["manifest"])
    with pytest.raises((ConfigError, StageError)):
        run_pipeline(manifest, config)


@pytest.mark.parametrize("algorithm,extra", [
    ("optics", {"clustering.context_algorithm": "optics",
                "clustering.context_eps_cut": "0.3",
                "clustering.issue_algorithm": "optics",
                "clustering.issue_eps_cut": "0.3"}),
    ("mean_shift", {"clustering.context_algorithm": "mean_shift",
                    "clustering.issue_algorithm": "mean_shift"}),
])
def test_run_pipeline_alternate_clusterers(tmp_path, algorithm, extra):
    overrides = dict(extra)
    overrides["clustering.context_min_pts"] = 1
    overrides["clustering.issue_min_pts"] = 1
    result, _ = _run_world(tmp_path, THREE_VIDEO_WORLD, overrides=overrides)
    counts = result.hierarchy["counts"]
    assert counts["n_segments"] == 9
    assert counts["n_informative"] == 6
    by_segment = {}
    for context in result.hierarchy["contexts"]:
        for category in context["categories"]:
            for cluster in category["clusters"]:
                for member in cluster["members"]:
                    by_segment[member] = context["context_id"]
    assert len(by_segment) == 6
    # the same visual scene always lands in the same context
    assert by_segment["vid_a_0000"] == by_segment["vid_b_0000"]
    assert by_segment["vid_a_0002"] == by_segment["vid_b_0002"]


@pytest.mark.parametrize("kind,extra", [
    ("random_forest", {"model.kind": "random_forest",
                       "model.n_trees": "30"}),
    ("feedforward_net", {"model.kind": "feedforward_net",
                         "model.epochs": "80"}),
])
def test_run_pipeline_alternate_model_kinds(tmp_path, kind, extra):
    result, paths = _run_world(tmp_path, THREE_VIDEO_WORLD, overrides=extra)
    assert result.bundle.model.kind == kind
    # the world is trivially separable: training labels are reproduced
    from gelid.pipeline import load_label_probes, match_probes
    probes = load_label_probes(paths["labels"])
    expected = match_probes(probes, result.segments)
    assert result.predictions == expected


def test_jsonl_rows_end_at_lf_only(tmp_path):
    from gelid.pipeline import load_label_probes
    rows = [{"video_id": "v\u2028w", "at_ms": 0, "label": "Logic"},
            {"video_id": "v\x85w", "at_ms": 5, "label": "Balance"}]
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert load_label_probes(lf) == load_label_probes(crlf) == rows


def test_match_probes_warns_on_conflicting_labels(caplog):
    from gelid.pipeline import match_probes
    from gelid.segmentation import Segment
    segments = [Segment(segment_id="v_0000", video_id="v",
                        start_ms=0, end_ms=10000)]
    probes = [{"video_id": "v", "at_ms": 2000, "label": "Logic"},
              {"video_id": "v", "at_ms": 8000, "label": "Balance"}]
    with caplog.at_level("WARNING"):
        labels = match_probes(probes, segments)
    assert labels == {"v_0000": "Balance"}  # later probe wins
    assert any("labeled both" in rec.message for rec in caplog.records)


def test_bundle_round_trip_preserves_predictions(tmp_path):
    result, paths = _run_world(tmp_path, THREE_VIDEO_WORLD)
    model_path = tmp_path / "model.json"
    model_path.write_text(result.bundle.to_json(), encoding="utf-8")
    clone = load_bundle(model_path)
    config = load_config(str(paths["config"]))
    manifest = load_manifest(paths["manifest"])
    result2 = run_pipeline(manifest, config, bundle=clone)
    assert result2.predictions == result.predictions


# --- train -------------------------------------------------------------------

def test_train_names_a_column_too_large_before_smote():
    """SMOTE's distances would overflow on this column: the standardizing
    check runs first and names it."""
    values = np.column_stack([np.arange(5.0), [1e308, -1e308, 0, 1, 2]])
    matrix = FeatureMatrix(segment_ids=tuple("abcde"),
                           names=("small", "big"), values=values)
    labels = dict(zip("abcde", ["Logic"] * 2 + ["Balance"] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^feature 'big' is too large "
                           "to standardize"):
            train_bundle(matrix, labels, None, RunConfig(smote=True))
