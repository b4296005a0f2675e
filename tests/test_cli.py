import dataclasses
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import THREE_VIDEO_WORLD, write_world
from gelid import pipeline
from gelid.cli import main
from gelid.subtitles import parse_srt


def _world(tmp_path, videos=None, overrides=None):
    return write_world(tmp_path / "world", videos or THREE_VIDEO_WORLD,
                       config_overrides=overrides or {})


def test_usage_error_exits_1(capsys):
    assert main(["segment"]) == 1  # missing required flags
    assert "error" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    paths = _world(tmp_path)
    (tmp_path / "bad.conf").write_text("seed = 1\nno.such.key = 2\n")
    code = main(["segment", "--manifest", str(paths["manifest"]),
                 "--config", str(tmp_path / "bad.conf"),
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_data_error_exits_2_and_writes_nothing(tmp_path):
    paths = _world(tmp_path)
    (tmp_path / "world" / "vid_a.srt").write_text("1\nnot a timestamp\nx\n")
    out = tmp_path / "out"
    code = main(["segment", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]), "--out", str(out)])
    assert code == 2
    assert not (out / "segments.jsonl").exists()  # no partial artifacts


def _set_cell(column, value):
    def corrupt(cells, previous):
        cells[column] = value
        return cells
    return corrupt


# each case rewrites data row 4 (line 5) of vid_a's descriptor CSV
_BAD_DESCRIPTOR_ROWS = {
    "non_numeric_cell": _set_cell(3, "abc"),
    "non_integer_timestamp": _set_cell(0, "1500.5"),
    "wrong_field_count": lambda cells, previous: cells[:-1],
    "duplicate_timestamp": lambda cells, previous: [previous[0]] + cells[1:],
    "decreasing_timestamp":
        lambda cells, previous: [str(int(previous[0]) - 1)] + cells[1:],
    "negative_bin": _set_cell(1, "-0.100000000"),
    "bad_block_sum": lambda cells, previous:
        [cells[0], f"{float(cells[1]) + 0.1:.9f}"] + cells[2:],
    "luminance_out_of_range": _set_cell(-1, "1.500000000"),
}


@pytest.mark.parametrize("command", ["run", "segment"])
@pytest.mark.parametrize("case", sorted(_BAD_DESCRIPTOR_ROWS))
def test_bad_descriptor_row_exits_2_naming_file_and_line(tmp_path, capsys,
                                                         command, case):
    paths = _world(tmp_path)
    csv_path = paths["root"] / "vid_a.descriptors.csv"
    lines = csv_path.read_text().splitlines()
    lines[4] = ",".join(_BAD_DESCRIPTOR_ROWS[case](lines[4].split(","),
                                                   lines[3].split(",")))
    csv_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main([command, "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(csv_path) in err
    assert "line 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "segment"])
def test_undecodable_subtitles_exit_2_naming_file(tmp_path, capsys, command):
    paths = _world(tmp_path)
    srt_path = paths["root"] / "vid_a.srt"
    # the first cue's text, on line 3, starts "the game"
    srt_path.write_bytes(srt_path.read_bytes().replace(b"game", b"g\xffme",
                                                       1))
    capsys.readouterr()
    code = main([command, "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(srt_path) in err
    assert "line 3" in err and "not UTF-8" in err
    assert "Traceback" not in err


_SEGMENT_STAGES = {
    "features": [],
    "classify": ["--model"],
    "group": ["--labels"],
    "cluster": ["--labels", "--model"],
}


@pytest.mark.parametrize("command", sorted(_SEGMENT_STAGES))
def test_segments_naming_unknown_video_exit_2(tmp_path, capsys, command):
    paths = _world(tmp_path)
    m, c = str(paths["manifest"]), str(paths["config"])
    stage = tmp_path / "stage"
    assert main(["segment", "--manifest", m, "--config", c,
                 "--out", str(stage)]) == 0
    segments_path = stage / "segments.jsonl"
    rows = [json.loads(line)
            for line in segments_path.read_text().splitlines()]
    rows[0]["video_id"] = "zz"
    segments_path.write_text(
        "\n".join(json.dumps(row) for row in rows) + "\n")
    # the check comes before these files would be read
    extra = [arg for flag in _SEGMENT_STAGES[command]
             for arg in (flag, str(tmp_path / "unused"))]
    capsys.readouterr()
    code = main([command, "--manifest", m, "--config", c,
                 "--segments", str(segments_path), *extra,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(segments_path) in err
    assert "zz" in err
    assert "Traceback" not in err


def test_missing_manifest_exits_2(tmp_path):
    code = main(["segment", "--manifest", str(tmp_path / "nope.json"),
                 "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 2


def test_run_writes_all_artifacts(tmp_path, capsys):
    paths = _world(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]), "--out", str(out)])
    assert code == 0
    for name in ("segments.jsonl", "labels.jsonl", "hierarchy.json",
                 "model.json", "run_report.json", "report.html"):
        assert (out / name).exists(), name
    hierarchy = json.loads((out / "hierarchy.json").read_text())
    assert hierarchy["counts"]["n_segments"] == 9


def test_run_twice_same_seed_byte_identical_hierarchy(tmp_path):
    paths = _world(tmp_path)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    for out in (out1, out2):
        assert main(["run", "--manifest", str(paths["manifest"]),
                     "--config", str(paths["config"]),
                     "--out", str(out)]) == 0
    assert (out1 / "hierarchy.json").read_bytes() == \
        (out2 / "hierarchy.json").read_bytes()


def _stage_chain(paths, stage):
    """Every stage subcommand in order, writing into `stage`; the
    segment labels for `train` come from the world's probe file."""
    m, c = str(paths["manifest"]), str(paths["config"])
    segments_path = str(stage / "segments.jsonl")
    world = ["--manifest", m, "--config", c]
    seg = [*world, "--segments", segments_path]
    assert main(["ingest", *world, "--out", str(stage / "ingest")]) == 0
    assert main(["segment", *world, "--out", str(stage)]) == 0
    assert main(["features", *seg, "--out", str(stage)]) == 0

    segments = pipeline.load_segments(stage / "segments.jsonl",
                                      THREE_VIDEO_WORLD)
    seg_labels = pipeline.match_probes(
        pipeline.load_label_probes(paths["labels"]), segments)
    labels_path = stage / "seg_labels.jsonl"
    labels_path.write_text("\n".join(
        json.dumps({"segment_id": k, "label": v})
        for k, v in sorted(seg_labels.items())) + "\n")

    assert main(["train", "--config", c,
                 "--features", str(stage / "features.csv"),
                 "--vocabulary", str(stage / "vocabulary.json"),
                 "--labels", str(labels_path),
                 "--out", str(stage / "model.json")]) == 0
    model = ["--model", str(stage / "model.json")]
    labels = ["--labels", str(stage / "labels.jsonl")]
    assert main(["classify", *seg, *model, "--out", str(stage)]) == 0
    assert main(["group", *seg, *labels, "--out", str(stage)]) == 0
    assert main(["cluster", *seg, *labels, *model, "--out", str(stage)]) == 0


def test_stagewise_chain_matches_run(tmp_path):
    paths = _world(tmp_path)
    stage = tmp_path / "stage"
    _stage_chain(paths, stage)
    normalized = (stage / "ingest" / "vid_a.srt").read_bytes()
    assert parse_srt(normalized, "vid_a") == parse_srt(
        (paths["root"] / "vid_a.srt").read_bytes(), "vid_a")
    assert (stage / "ingest" / "vid_a.descriptors.csv").exists()
    assert (stage / "features.csv").read_text().startswith("segment_id,")
    predicted = [json.loads(line) for line in
                 (stage / "labels.jsonl").read_text().splitlines()]
    assert len(predicted) == 9
    contexts = json.loads((stage / "contexts.json").read_text())
    assert contexts["algorithm"] == "dbscan"
    hierarchy = json.loads((stage / "hierarchy.json").read_text())

    # end-to-end run on the same inputs produces the same hierarchy
    assert main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(stage / "full")]) == 0
    full = json.loads((stage / "full" / "hierarchy.json").read_text())
    assert hierarchy == full


def _drop_probes(paths, keep):
    probes = paths["labels"].read_text().splitlines()
    paths["labels"].write_text(
        "\n".join(p for p in probes if keep(json.loads(p))) + "\n")


def test_stagewise_chain_matches_run_with_partial_labels(tmp_path):
    # 3 of the 9 segments carry no training label: the vocabulary is still
    # fitted on all 9 segments, by `gelid features` and by `gelid run`
    paths = _world(tmp_path)
    dropped = {("vid_a", "Logic"), ("vid_b", "NonInformative"),
               ("vid_c", "Presentation")}
    _drop_probes(paths, lambda p: (p["video_id"], p["label"]) not in dropped)
    stage, full = tmp_path / "stage", tmp_path / "full"
    _stage_chain(paths, stage)
    assert main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]), "--out", str(full)]) == 0

    vocabulary = json.loads((stage / "vocabulary.json").read_text())
    assert vocabulary["n_documents"] == 9
    assert vocabulary == json.loads((full / "model.json").read_text())[
        "vocabulary"]
    for name in ("model.json", "labels.jsonl", "hierarchy.json"):
        assert (stage / name).read_bytes() == (full / name).read_bytes(), name


def test_report_from_hierarchy(tmp_path):
    paths = _world(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]), "--out", str(out)]) == 0
    html_out = tmp_path / "report.html"
    assert main(["report", "--hierarchy", str(out / "hierarchy.json"),
                 "--format", "html", "--out", str(html_out)]) == 0
    text = html_out.read_text()
    assert text.count("<section class=\"context\"") == \
        json.loads((out / "hierarchy.json").read_text())["counts"][
            "n_contexts"]


def test_env_override_applies(tmp_path, monkeypatch):
    paths = _world(tmp_path)
    monkeypatch.setenv("GELID_SEGMENTER_MIN_SEGMENT_MS", "25000")
    out = tmp_path / "out"
    assert main(["segment", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]), "--out", str(out)]) == 0
    lines = (out / "segments.jsonl").read_text().splitlines()
    # 25 s minimum merges each video's three 20 s scenes into two segments
    assert len(lines) < 9


def test_eval_margin(tmp_path, capsys):
    assert main(["eval", "--stat", "margin", "--n", "1000",
                 "--confidence", "0.95"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0305 <= out["margin_of_error"] <= 0.0315


def test_eval_mojofm_with_and_without_oracle(tmp_path, capsys):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps({"groups": [["1", "2"], ["3"]]}))
    pb.write_text(json.dumps({"groups": [["1", "2", "3"]]}))
    assert main(["eval", "--stat", "mojofm", "--partition-a", str(pa),
                 "--partition-b", str(pb)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert plain == {"stat": "mojofm", "mno": 1, "max_mno": 2,
                     "mojofm": 50.0}
    # the enumeration oracle lives in the tests, not behind a flag
    assert main(["eval", "--stat", "mojofm", "--partition-a", str(pa),
                 "--partition-b", str(pb), "--oracle"]) == 1


def test_eval_stats_outputs(tmp_path, capsys):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text("[1, 2]")
    y.write_text("[3, 4]")
    assert main(["eval", "--stat", "mann-whitney", "--x", str(x),
                 "--y", str(y)]) == 0
    mw = json.loads(capsys.readouterr().out)
    assert mw["u"] == 0.0
    assert mw["p_value"] == pytest.approx(2 / 6)

    x.write_text("[1, 2, 3]")
    y.write_text("[2, 3, 4]")
    assert main(["eval", "--stat", "cliffs-delta", "--x", str(x),
                 "--y", str(y)]) == 0
    cd = json.loads(capsys.readouterr().out)
    assert cd["delta"] == pytest.approx(-5 / 9)

    p = tmp_path / "p.json"
    p.write_text("[0.01, 0.02, 0.03, 0.04]")
    assert main(["eval", "--stat", "bh", "--p", str(p)]) == 0
    bh = json.loads(capsys.readouterr().out)
    assert bh["adjusted"] == pytest.approx([0.04] * 4)

    assert main(["eval", "--stat", "atomicity", "--extras", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["score"] == 3


def test_eval_writes_out_file(tmp_path):
    out = tmp_path / "stat.json"
    assert main(["eval", "--stat", "margin", "--n", "96",
                 "--confidence", "0.95", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["margin_of_error"] == pytest.approx(
        0.100, abs=5e-4)


def test_eval_kappa_and_simulations(tmp_path, capsys):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text('["a", "b", "a"]')
    y.write_text('["a", "b", "a"]')
    assert main(["eval", "--stat", "kappa", "--x", str(x),
                 "--y", str(y)]) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == 1.0

    assert main(["eval", "--stat", "likert-std", "--sims", "200",
                 "--group-size", "50", "--sim-seed", "3"]) == 0
    likert = json.loads(capsys.readouterr().out)
    assert 1.0 < likert["mean"] < 1.8

    assert main(["eval", "--stat", "power", "--group-size", "40",
                 "--shift", "1.0", "--sd", "1.0", "--alpha", "0.05",
                 "--sims", "400", "--sim-seed", "5"]) == 0
    power = json.loads(capsys.readouterr().out)
    assert power["power"] > 0.9
    assert 0.0 <= power["power_mann_whitney"] <= 1.0


def test_segment_without_keyframes_is_its_own_context(tmp_path, monkeypatch):
    # vid_c_0001 (Presentation) loses its keyframes; its features, which
    # read every frame of its window, and so its label are unchanged
    real = pipeline.segment_video

    def segment_video(*args):
        return [dataclasses.replace(s, keyframe_timestamps=())
                if s.segment_id == "vid_c_0001" else s
                for s in real(*args)]

    monkeypatch.setattr(pipeline, "segment_video", segment_video)
    paths = _world(tmp_path)
    stage, full = tmp_path / "stage", tmp_path / "full"
    _stage_chain(paths, stage)
    assert main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]), "--out", str(full)]) == 0

    contexts = json.loads((stage / "contexts.json").read_text())
    assert "vid_c_0001" in contexts["noise"]
    for out in (stage, full):
        hierarchy = json.loads((out / "hierarchy.json").read_text())
        alone = [c for c in hierarchy["contexts"]
                 if [m for cat in c["categories"] for cl in cat["clusters"]
                     for m in cl["members"]] == ["vid_c_0001"]]
        assert len(alone) == 1 and alone[0]["summary"]["n_segments"] == 1
    assert (stage / "hierarchy.json").read_bytes() == \
        (full / "hierarchy.json").read_bytes()


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """The world and every stage artifact of the chain, built once."""
    root = tmp_path_factory.mktemp("staged")
    paths = write_world(root / "world", THREE_VIDEO_WORLD)
    _stage_chain(paths, root / "stage")
    return paths, root / "stage"


def _rewrite_line(src, dst, index, edit):
    lines = src.read_text().splitlines()
    lines[index] = edit(lines[index])
    dst.write_text("\n".join(lines) + "\n")


def _fails_naming(capsys, argv, *names):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    for name in names:
        assert name in err, err
    assert "Traceback" not in err


_BAD_FEATURE_CELLS = {
    "non_numeric_cell": lambda cells: cells[:3] + ["abc"] + cells[4:],
    "short_row": lambda cells: cells[:-1],
    "not_finite": lambda cells: cells[:3] + ["nan"] + cells[4:],
}


@pytest.mark.parametrize("case", sorted(_BAD_FEATURE_CELLS))
def test_bad_feature_row_exits_2_naming_file_and_line(staged, tmp_path,
                                                      capsys, case):
    paths, stage = staged
    bad = tmp_path / "features.csv"
    _rewrite_line(stage / "features.csv", bad, 2, lambda line: ",".join(
        _BAD_FEATURE_CELLS[case](line.split(","))))
    _fails_naming(capsys, [
        "train", "--config", str(paths["config"]), "--features", str(bad),
        "--vocabulary", str(stage / "vocabulary.json"),
        "--labels", str(stage / "seg_labels.jsonl"),
        "--out", str(tmp_path / "model.json")], str(bad), "line 3")


@pytest.mark.parametrize("row", ["not json",
                                 '{"segment_id": "vid_a_0000", '
                                 '"label": "Bogus"}'])
@pytest.mark.parametrize("command", ["train", "group", "cluster"])
def test_bad_segment_label_row_exits_2_naming_file_and_line(
        staged, tmp_path, capsys, command, row):
    paths, stage = staged
    source = {"train": "seg_labels.jsonl"}.get(command, "labels.jsonl")
    bad = tmp_path / "labels.jsonl"
    _rewrite_line(stage / source, bad, 1, lambda line: row)
    world = ["--manifest", str(paths["manifest"]),
             "--config", str(paths["config"])]
    argv = {
        "train": ["train", "--config", str(paths["config"]),
                  "--features", str(stage / "features.csv"),
                  "--vocabulary", str(stage / "vocabulary.json"),
                  "--out", str(tmp_path / "model.json")],
        "group": ["group", *world, "--out", str(tmp_path / "out")],
        "cluster": ["cluster", *world, "--model", str(stage / "model.json"),
                    "--out", str(tmp_path / "out")],
    }[command]
    if command != "train":
        argv += ["--segments", str(stage / "segments.jsonl")]
    _fails_naming(capsys, argv + ["--labels", str(bad)], f"{bad}:2")


def test_alpha_outside_unit_interval_exits_1_before_ingest(tmp_path, capsys):
    paths = _world(tmp_path, overrides={"clustering.alpha": 1.5})
    (paths["root"] / "vid_a.srt").unlink()  # ingest would exit 2
    code = main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "clustering.alpha" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["context_algorithm", "issue_algorithm"])
def test_unknown_clustering_algorithm_exits_1_before_ingest(tmp_path, capsys,
                                                             key):
    paths = _world(tmp_path, overrides={f"clustering.{key}": "kmeans"})
    (paths["root"] / "vid_a.srt").unlink()  # ingest would exit 2
    code = main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"clustering.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["5", "{}", "not json", '{"segment_id": 1}',
                                 "[1,2]"])
def test_bad_segments_row_exits_2_naming_file_and_line(staged, tmp_path,
                                                       capsys, row):
    paths, stage = staged
    bad = tmp_path / "segments.jsonl"
    _rewrite_line(stage / "segments.jsonl", bad, 1, lambda line: row)
    _fails_naming(capsys, [
        "features", "--manifest", str(paths["manifest"]),
        "--config", str(paths["config"]), "--segments", str(bad),
        "--out", str(tmp_path / "out")], f"{bad}:2")


@pytest.mark.parametrize("edit", [lambda m: m.update(videos=5),
                                  lambda m: m.pop("videos"),
                                  lambda m: m["videos"][0].update(frames=5)],
                         ids=["videos_5", "no_videos", "frames_5"])
def test_manifest_without_a_list_of_videos_exits_2(tmp_path, capsys, edit):
    paths = _world(tmp_path)
    manifest = json.loads(paths["manifest"].read_text())
    edit(manifest)
    paths["manifest"].write_text(json.dumps(manifest))
    _fails_naming(capsys, ["segment", "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]),
                           "--out", str(tmp_path / "out")],
                  str(paths["manifest"]))


def test_probe_with_a_non_integer_time_exits_2_naming_file_and_line(
        tmp_path, capsys):
    paths = _world(tmp_path)
    _rewrite_line(paths["labels"], paths["labels"], 2, lambda line: json.dumps(
        {**json.loads(line), "at_ms": "x"}))
    _fails_naming(capsys, ["run", "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]),
                           "--out", str(tmp_path / "out")],
                  f"{paths['labels']}:3", "at_ms")


def test_manifest_that_is_a_list_exits_2(tmp_path, capsys):
    paths = _world(tmp_path)
    paths["manifest"].write_text("[]\n")
    _fails_naming(capsys, ["segment", "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]),
                           "--out", str(tmp_path / "out")],
                  str(paths["manifest"]))


def test_bundle_missing_key_exits_2_naming_file(staged, tmp_path, capsys):
    paths, stage = staged
    bundle = json.loads((stage / "model.json").read_text())
    del bundle["ngram_max"]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(bundle))
    _fails_naming(capsys, [
        "classify", "--manifest", str(paths["manifest"]),
        "--config", str(paths["config"]),
        "--segments", str(stage / "segments.jsonl"), "--model", str(bad),
        "--out", str(tmp_path / "out")], str(bad), "ngram_max")


@pytest.mark.parametrize("command", ["run", "segment"])
def test_missing_subtitle_file_exits_2(tmp_path, capsys, command):
    paths = _world(tmp_path)
    (paths["root"] / "vid_b.srt").unlink()
    _fails_naming(capsys, [command, "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]),
                           "--out", str(tmp_path / "out")], "vid_b.srt")


def test_vocabulary_missing_key_exits_2_naming_file(staged, tmp_path,
                                                     capsys):
    paths, stage = staged
    bad = tmp_path / "vocabulary.json"
    bad.write_text('{"schema_version": 1}')
    _fails_naming(capsys, [
        "train", "--config", str(paths["config"]),
        "--features", str(stage / "features.csv"), "--vocabulary", str(bad),
        "--labels", str(stage / "seg_labels.jsonl"),
        "--out", str(tmp_path / "model.json")], str(bad), "terms")


@pytest.mark.parametrize("text", [
    '{"foo": 1}', "[]", '{"schema_version": 1, "contexts": 5}',
    '{"schema_version": 1, "contexts": [5]}',
    '{"schema_version": 1, "contexts": [{}]}',
    '{"schema_version": 1, "contexts": [{"context_id": "c", '
    '"categories": [], "summary": 5}]}',
    '{"schema_version": 1, "contexts": [{"context_id": "c", '
    '"categories": [{"label": "Logic"}]}]}',
    '{"schema_version": 1, "contexts": [{"context_id": "c", '
    '"categories": [{"label": "Logic", "clusters": [null]}]}]}',
    '{"schema_version": 1, "contexts": [{"context_id": "c", '
    '"categories": [{"label": "Logic", "clusters": '
    '[{"cluster_id": "k", "members": 5}]}]}]}'])
def test_report_on_a_non_hierarchy_exits_2_naming_file(tmp_path, capsys,
                                                       text):
    bad = tmp_path / "hierarchy.json"
    bad.write_text(text)
    out = tmp_path / "report.html"
    _fails_naming(capsys, ["report", "--hierarchy", str(bad),
                           "--out", str(out)], str(bad))
    assert not out.exists()


@pytest.mark.parametrize("text", ['"groups"', '{"groups": 5}',
                                  '{"groups": [["a"], 5]}',
                                  '{"groups": [["a", ["b"]]]}',
                                  '{"mapping": {"a": [1]}}',
                                  '{"groups": []}'])
def test_eval_bad_partition_exits_2_naming_file(tmp_path, capsys, text):
    bad, good = tmp_path / "a.json", tmp_path / "b.json"
    bad.write_text(text)
    good.write_text(json.dumps({"groups": [["a", "b"], ["c"]]}))
    _fails_naming(capsys, ["eval", "--stat", "mojofm", "--partition-a",
                           str(bad), "--partition-b", str(good)], str(bad))


@pytest.mark.parametrize("stat", ["mann-whitney", "cliffs-delta", "kappa"])
@pytest.mark.parametrize("text", ['[NaN, 2, "a"]', "[1, Infinity]", "[true]",
                                  '{"x": 1}', "[[1]]"])
def test_eval_bad_sample_exits_2_naming_file(tmp_path, capsys, stat, text):
    x, y = tmp_path / "x.json", tmp_path / "y.json"
    x.write_text("[1, 2, 3]")
    y.write_text(text)
    _fails_naming(capsys, ["eval", "--stat", stat, "--x", str(x),
                           "--y", str(y)], str(y))


@pytest.mark.parametrize("argv", [["--stat", "mojofm"],
                                  ["--stat", "mno", "--partition-a", "a"],
                                  ["--stat", "kappa", "--x", "x"],
                                  ["--stat", "bh"], ["--stat", "margin"]])
def test_eval_without_an_input_the_stat_needs_exits_1(capsys, argv):
    assert main(["eval", *argv]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "needs --" in err
    assert "Traceback" not in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)
_PAYLOADS = st.binary(max_size=40) | _JSON_VALUES.map(
    lambda value: json.dumps(value).encode())


def _is_numeric_sample(payload: bytes) -> bool:
    """A non-empty JSON array of finite numbers: a valid sample."""
    try:
        obj = json.loads(payload)
    except ValueError:
        return False
    return isinstance(obj, list) and bool(obj) and all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max
        for v in obj)


@pytest.mark.parametrize("target", ["vocabulary", "hierarchy", "partition",
                                    "sample", "segments", "manifest",
                                    "probes"])
@given(payload=_PAYLOADS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_malformed_artifact_exits_1_or_2(staged, tmp_path_factory, target,
                                         payload):
    assume(target != "sample" or not _is_numeric_sample(payload))
    assume(target != "segments" or payload.strip())  # else: no segments
    paths, stage = staged
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    bad = work / f"{target}.json"
    bad.write_bytes(payload)
    probes_config = work / "probes.conf"
    probes_config.write_text(paths["config"].read_text().replace(
        str(paths["labels"]), str(bad)))
    world = ["--manifest", str(paths["manifest"]),
             "--config", str(paths["config"])]
    good_partition = work / "good_partition.json"
    good_partition.write_text(json.dumps({"groups": [["a", "b"], ["c"]]}))
    good_sample = work / "good_sample.json"
    good_sample.write_text("[1, 2, 3]")
    argv = {
        "vocabulary": ["train", "--config", str(paths["config"]),
                       "--features", str(stage / "features.csv"),
                       "--vocabulary", str(bad),
                       "--labels", str(stage / "seg_labels.jsonl"),
                       "--out", str(work / "model.json")],
        "hierarchy": ["report", "--hierarchy", str(bad),
                      "--out", str(work / "report.html")],
        "partition": ["eval", "--stat", "mojofm", "--partition-a", str(bad),
                      "--partition-b", str(good_partition)],
        "sample": ["eval", "--stat", "mann-whitney", "--x", str(good_sample),
                   "--y", str(bad)],
        "segments": ["features", *world, "--segments", str(bad),
                     "--out", str(work / "out")],
        "manifest": ["segment", "--manifest", str(bad),
                     "--config", str(paths["config"]),
                     "--out", str(work / "out")],
        "probes": ["run", "--manifest", str(paths["manifest"]),
                   "--config", str(probes_config),
                   "--out", str(work / "out")],
    }[target]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (1, 2), err.getvalue()
    assert "error:" in err.getvalue()
