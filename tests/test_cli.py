import json

import pytest

from conftest import THREE_VIDEO_WORLD, write_world
from gelid.cli import main


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


def test_stagewise_chain_matches_run(tmp_path):
    paths = _world(tmp_path)
    m, c = str(paths["manifest"]), str(paths["config"])
    stage = tmp_path / "stage"

    assert main(["ingest", "--manifest", m, "--config", c,
                 "--out", str(stage / "ingest")]) == 0
    assert (stage / "ingest" / "vid_a.transcript.json").exists()
    assert (stage / "ingest" / "vid_a.descriptors.csv").exists()

    assert main(["segment", "--manifest", m, "--config", c,
                 "--out", str(stage)]) == 0
    segments_path = stage / "segments.jsonl"

    assert main(["features", "--manifest", m, "--config", c,
                 "--segments", str(segments_path),
                 "--out", str(stage)]) == 0
    features_csv = stage / "features.csv"
    assert features_csv.read_text().startswith("segment_id,")

    # labels keyed by segment id, derived from the probe file
    from gelid.pipeline import load_label_probes, match_probes
    from gelid.segmentation import read_segments_jsonl
    segments = read_segments_jsonl(segments_path.read_text())
    probes = load_label_probes(paths["labels"])
    seg_labels = match_probes(probes, segments)
    labels_path = stage / "seg_labels.jsonl"
    labels_path.write_text("\n".join(
        json.dumps({"segment_id": k, "label": v})
        for k, v in sorted(seg_labels.items())) + "\n")

    assert main(["train", "--config", c, "--features", str(features_csv),
                 "--vocabulary", str(stage / "vocabulary.json"),
                 "--labels", str(labels_path),
                 "--out", str(stage / "model.json")]) == 0

    assert main(["classify", "--manifest", m, "--config", c,
                 "--segments", str(segments_path),
                 "--model", str(stage / "model.json"),
                 "--out", str(stage)]) == 0
    predicted = [json.loads(line) for line in
                 (stage / "labels.jsonl").read_text().splitlines()]
    assert len(predicted) == 9

    assert main(["group", "--manifest", m, "--config", c,
                 "--segments", str(segments_path),
                 "--labels", str(stage / "labels.jsonl"),
                 "--out", str(stage)]) == 0
    contexts = json.loads((stage / "contexts.json").read_text())
    assert contexts["algorithm"] == "dbscan"

    assert main(["cluster", "--manifest", m, "--config", c,
                 "--segments", str(segments_path),
                 "--labels", str(stage / "labels.jsonl"),
                 "--model", str(stage / "model.json"),
                 "--out", str(stage)]) == 0
    hierarchy = json.loads((stage / "hierarchy.json").read_text())

    # end-to-end run on the same inputs produces the same hierarchy
    assert main(["run", "--manifest", m, "--config", c,
                 "--out", str(stage / "full")]) == 0
    full = json.loads((stage / "full" / "hierarchy.json").read_text())
    assert hierarchy == full


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
    assert main(["eval", "--stat", "mojofm", "--partition-a", str(pa),
                 "--partition-b", str(pb), "--oracle"]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert plain["mno"] == oracle["mno"] == 1
    assert plain["mojofm"] == oracle["mojofm"]


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
