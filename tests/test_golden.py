"""Golden outputs: fixed SHA-256 digests of what gelid writes for the
`conftest.py` three-video world.

Any change to these digests changes gelid's output, so a refactor or a
speed-up must leave them alone. Regenerate them only for an intended
behaviour change, and say why in CHANGES.md.
"""

import hashlib

import pytest

from conftest import THREE_VIDEO_WORLD, write_world
from gelid.cli import main
from gelid.clustering import build_context_matrix, build_issue_matrix
from gelid.config import load_config
from gelid.features import document_terms, segment_text, text_features
from gelid.frames import load_track
from gelid.models import NON_INFORMATIVE
from gelid.pipeline import (keyframe_lookup, load_manifest,
                            parse_subtitle_file, run_pipeline)

_CLUSTERERS = {
    "dbscan": {},
    "optics": {"clustering.context_algorithm": "optics",
               "clustering.context_eps_cut": "0.3",
               "clustering.issue_algorithm": "optics",
               "clustering.issue_eps_cut": "0.3"},
    "mean_shift": {"clustering.context_algorithm": "mean_shift",
                   "clustering.issue_algorithm": "mean_shift"},
}

_MODELS = {
    "logistic_regression": {},
    "random_forest": {"model.kind": "random_forest", "model.n_trees": "30"},
    "ffn": {"model.kind": "feedforward_net", "model.epochs": "80"},
}

# the world is cleanly separable, so every clusterer and model kind agrees
# on the hierarchy; the model files differ
GOLDEN_HIERARCHY_SHA256 = (
    "f7ab98deabbcdac917a55018dbc0a329b0a19e74f1d32d2dd7b495d6fa02c0ce")

GOLDEN_MODEL_SHA256 = {
    "logistic_regression":
        "4016a7975de6e633588bae7f7f15c8fc29d167a17b13808b16f9f5489d0379ab",
    "random_forest":
        "fa24e99dfd39df3e6400399069f4926d950c009aa8e10d5c1d5508d38289082d",
    "ffn": "e901524ce6c8c6189009f4fdf0a1560096624a1f7c47857dc978fd49ca609af0",
}

GOLDEN_SEGMENTS_SHA256 = (
    "7bca75617473fb0c9b077ac2a084a6dc9b5fe9cc5aa1aba0d327fc4c78cfab8c")

# `gelid features` on the segments `gelid segment` writes: every feature
# value of every group, as repr writes it
GOLDEN_FEATURES_CSV_SHA256 = (
    "d0386a3bc89c134c6dc78498989515ed21e082cbb8da28caf644076ddc13ecba")

GOLDEN_INGEST_DESCRIPTORS_SHA256 = (
    "f033b59691153a65dd8464ad1443586b1a43b1ae4dce4a9321ddc03cb205d6b0")
GOLDEN_INGEST_DESCRIPTORS_BYTES = 71461


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(_MODELS))
@pytest.mark.parametrize("clusterer", sorted(_CLUSTERERS))
def test_golden_hierarchy(tmp_path, clusterer, model):
    overrides = {**_CLUSTERERS[clusterer], **_MODELS[model]}
    paths = write_world(tmp_path / "world", THREE_VIDEO_WORLD,
                        config_overrides=overrides)
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]), "--out", str(out)]) == 0
    assert _sha256(out / "hierarchy.json") == GOLDEN_HIERARCHY_SHA256
    # the trained weights depend on every feature value bit for bit
    assert _sha256(out / "model.json") == GOLDEN_MODEL_SHA256[model]
    assert _sha256(out / "segments.jsonl") == GOLDEN_SEGMENTS_SHA256


def test_golden_features_csv(tmp_path):
    paths = write_world(tmp_path / "world", THREE_VIDEO_WORLD)
    world = ["--manifest", str(paths["manifest"]),
             "--config", str(paths["config"])]
    assert main(["segment", *world, "--out", str(tmp_path / "seg")]) == 0
    assert main(["features", *world,
                 "--segments", str(tmp_path / "seg" / "segments.jsonl"),
                 "--out", str(tmp_path / "feat")]) == 0
    written = tmp_path / "feat" / "features.csv"
    assert _sha256(written) == GOLDEN_FEATURES_CSV_SHA256


def test_golden_ingest_descriptor_csv(tmp_path):
    paths = write_world(tmp_path / "world", THREE_VIDEO_WORLD)
    out = tmp_path / "out"
    assert main(["ingest", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]), "--out", str(out)]) == 0
    written = out / "vid_a.descriptors.csv"
    assert written.stat().st_size == GOLDEN_INGEST_DESCRIPTORS_BYTES
    assert _sha256(written) == GOLDEN_INGEST_DESCRIPTORS_SHA256
    # ingest rewrites the descriptor CSV it read without changing a byte
    assert written.read_bytes() == \
        (paths["root"] / "vid_a.descriptors.csv").read_bytes()


# --- distance matrices -------------------------------------------------------

# alpha 0 is the context matrix itself; alpha 1 is text only
GOLDEN_CONTEXT_MATRIX_SHA256 = (
    "90b89b6a7137f217fea6a3dbba0599f171404fe8f2a783b0fd9b944b721a27a5")

GOLDEN_ISSUE_MATRIX_SHA256 = {
    0.0: "90b89b6a7137f217fea6a3dbba0599f171404fe8f2a783b0fd9b944b721a27a5",
    0.5: "3cdc38c94bcd83e6fe818269e80f3efbb594dd98d30d49cd13990d98d2e19310",
    1.0: "831000db38f6c4faf2a2c892d71ed49f8a0e08e057926169f95b98883d3950ff",
}


@pytest.fixture(scope="module")
def informative_inputs(tmp_path_factory):
    """Ids, keyframes and tf-idf text vectors of the world's informative
    segments, built the way `build_hierarchy` builds them."""
    paths = write_world(tmp_path_factory.mktemp("world"), THREE_VIDEO_WORLD)
    config = load_config(str(paths["config"]))
    manifest = load_manifest(paths["manifest"])
    result = run_pipeline(manifest, config)
    transcripts = {e.video_id: parse_subtitle_file(e.subtitles, e.video_id)
                   for e in manifest.videos}
    tracks = {e.video_id: load_track(e.frames, e.video_id, e.duration_ms,
                                     config.bins_per_channel)
              for e in manifest.videos}
    informative = [s for s in result.segments
                   if result.predictions[s.segment_id] != NON_INFORMATIVE]
    space = result.bundle.space
    ids = [s.segment_id for s in informative]
    texts = dict(zip(ids, text_features(document_terms(
        [segment_text(s, transcripts[s.video_id]) for s in informative],
        space.ngram_max, space.stopwords), space.vocabulary)))
    keyframes = keyframe_lookup(informative, tracks)
    return ids, texts, keyframes


def _digest(matrix) -> str:
    return hashlib.sha256(matrix.values.tobytes()).hexdigest()


def test_golden_context_matrix(informative_inputs):
    ids, _, keyframes = informative_inputs
    assert len(ids) == 6
    matrix = build_context_matrix(ids, keyframes)
    assert _digest(matrix) == GOLDEN_CONTEXT_MATRIX_SHA256


@pytest.mark.parametrize("alpha", sorted(GOLDEN_ISSUE_MATRIX_SHA256))
def test_golden_issue_matrix(informative_inputs, alpha):
    ids, texts, keyframes = informative_inputs
    matrix = build_issue_matrix(ids, texts, keyframes, alpha)
    assert _digest(matrix) == GOLDEN_ISSUE_MATRIX_SHA256[alpha]
