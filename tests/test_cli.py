import codecs
import dataclasses
import io
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cli_reference import reference_commands, reference_parse
from conftest import THREE_VIDEO_WORLD, through_fifo, write_world
import gelid
from gelid import cli, features, pipeline
from gelid.cli import main
from gelid.config import SECTIONS, load_config
from gelid.errors import DataError, GelidError, read_text
from gelid.frames import read_descriptor_csv, write_descriptor_csv
from gelid.subtitles import parse_srt


def _world(tmp_path, videos=None, overrides=None):
    return write_world(tmp_path / "world", videos or THREE_VIDEO_WORLD,
                       config_overrides=overrides or {})


def test_usage_error_exits_1(capsys):
    assert main(["segment"]) == 1  # missing required flags
    assert "error" in capsys.readouterr().err


_COMMANDS = sorted(reference_commands())


def test_each_command_parses_with_its_own_arguments_only(monkeypatch):
    """A call adds its own command's arguments and no other's: the
    arguments the reference parser gives that command, in its order."""
    added = []

    def add_argument(parser, *flags, **options):
        added.append(flags)
        return original(parser, *flags, **options)

    original = cli._Parser.add_argument
    monkeypatch.setattr(cli._Parser, "add_argument", add_argument)
    monkeypatch.setattr(cli, "load_config", lambda *args: None)
    for name, sub in reference_commands().items():
        monkeypatch.setattr(cli, f"cmd_{name}", lambda *args: 0)
        added.clear()
        assert main([name, *_required_argv(sub)]) == 0
        assert added == [tuple(action.option_strings)
                         for action in sub._actions], name


def _required_argv(parser) -> list[str]:
    """The required flags of `parser`, each with a value it accepts."""
    return [arg for action in parser._actions if action.required
            for arg in (action.option_strings[0],
                        action.choices[0] if action.choices else "x")]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["eval"], "the following arguments are required: --stat"),
    (["-h"], None),
    (["eval", "-h"], None),
    (["--help"], None),
    (["-h", "eval"], None),
    (["--seed", "3"], "argument command: invalid choice: '3'"),
    *[([name, "-h"], None) for name in _COMMANDS],
    *[([name], "the following arguments are required: ")
      for name in _COMMANDS],
    (["eval", "--stat", "margin", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["segment", "--bogus"], "the following arguments are required: "),
    (["report", "--format", "pdf"], "argument --format: invalid choice"),
    (["eval", "--stat", "nope"], "argument --stat: invalid choice"),
])
def test_usage_and_help_match_the_parser_of_every_command(
        monkeypatch, capsys, argv, message):
    """`main` prints the help and usage errors of the one parser that holds
    every command's arguments, byte for byte, and exits as it did."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:  # -h
        code = exc.code
    output = capsys.readouterr()
    assert (code, output) == (reference_parse(argv), capsys.readouterr())
    assert code == (0 if message is None else 1)
    assert message is None or f"error: {message}" in output.err


def test_main_calls_the_command_function_on_the_module(monkeypatch):
    """A `cmd_*` replaced on the module, as a tracer wraps it, is the one a
    call runs."""
    calls = []
    monkeypatch.setattr(cli, "cmd_eval",
                        lambda args: calls.append(args) or 0)
    assert main(["eval", "--stat", "margin", "--n", "10"]) == 0
    assert [(args.stat, args.n) for args in calls] == [("margin", 10)]


def test_load_config_runs_once_for_each_command_that_reads_one(monkeypatch):
    """Each command that reads a config loads it once, checking the sections
    its table row lists; report and eval load none."""
    loaded, commands = [], cli._commands()
    monkeypatch.setattr(cli, "load_config", lambda path, seed, sections:
                        loaded.append(sections))
    for name, sub in reference_commands().items():
        monkeypatch.setattr(cli, f"cmd_{name}", lambda *args: 0)
        loaded.clear()
        assert main([name, *_required_argv(sub)]) == 0
        assert loaded == ([commands[name][2]]
                          if name not in ("report", "eval") else []), name


def test_an_out_path_that_cannot_be_written_is_named(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "e.json"
    assert main(["eval", "--stat", "margin", "--n", "10",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {out}: cannot write (")


def test_a_report_that_cannot_be_written_is_named(staged, tmp_path,
                                                  capsys):
    _, stage = staged
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "r.html"
    assert main(["report", "--hierarchy", str(stage / "hierarchy.json"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {out}: cannot write (")


def test_unknown_config_key_exits_1(tmp_path, capsys):
    paths = _world(tmp_path)
    (tmp_path / "bad.conf").write_text("seed = 1\nno.such.key = 2\n")
    code = main(["segment", "--manifest", str(paths["manifest"]),
                 "--config", str(tmp_path / "bad.conf"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'bad.conf'}:2: "
                                       f"unknown key 'no.such.key'\n")


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


def test_a_descriptor_csv_fifo_gives_the_files_segments(tmp_path):
    """`gelid segment` reads a descriptor CSV that is a FIFO, whose size
    the file system does not know, whole and once, and writes the
    segments of the regular file."""
    paths = _world(tmp_path)
    argv = ["segment", "--manifest", str(paths["manifest"]),
            "--config", str(paths["config"]), "--out"]
    assert main([*argv, str(tmp_path / "file")]) == 0
    csv_path = paths["root"] / "vid_a.descriptors.csv"
    data = csv_path.read_bytes()
    csv_path.unlink()
    assert through_fifo(csv_path, data, lambda: main(
        [*argv, str(tmp_path / "fifo")])) == 0
    assert (tmp_path / "fifo" / "segments.jsonl").read_bytes() == \
        (tmp_path / "file" / "segments.jsonl").read_bytes()


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
    assert f"{csv_path}:5: " in err
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
    assert f"{srt_path}:3: not UTF-8" in err
    assert "Traceback" not in err


_SEGMENT_STAGES = {
    "features": [],
    "classify": ["--model"],
    "group": ["--labels"],
    "cluster": ["--labels", "--model"],
}


def _segment_stage_extra(command, stage, tmp_path):
    """The flags of `command` past --segments: the staged model.json, which
    is read before the segments, and a labels file that does not exist,
    as the segments' check comes before it would be read."""
    return [arg for flag in _SEGMENT_STAGES[command]
            for arg in (flag, str(stage / "model.json") if flag == "--model"
                        else str(tmp_path / "unused"))]


@pytest.mark.parametrize("command", sorted(_SEGMENT_STAGES))
def test_segments_naming_unknown_video_exit_2(staged, tmp_path, capsys,
                                              command):
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
    extra = _segment_stage_extra(command, staged[1], tmp_path)
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


def test_run_imports_no_scipy(tmp_path):
    """Only `gelid eval` needs SciPy; a `gelid run` process never loads
    it. In a subprocess, as pytest has loaded SciPy."""
    paths = _world(tmp_path)
    child = ("import json, sys\n"
             "from gelid.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(json.dumps([code, sorted(m for m in sys.modules\n"
             "                               if m.split('.')[0] == 'scipy')]))\n")
    src = str(Path(gelid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", child, "run", "--manifest",
         str(paths["manifest"]), "--config", str(paths["config"]),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    assert scipy_modules == []


def test_run_twice_same_seed_byte_identical_hierarchy(tmp_path):
    paths = _world(tmp_path)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    for out in (out1, out2):
        assert main(["run", "--manifest", str(paths["manifest"]),
                     "--config", str(paths["config"]),
                     "--out", str(out)]) == 0
    assert (out1 / "hierarchy.json").read_bytes() == \
        (out2 / "hierarchy.json").read_bytes()


def _stage_chain(paths, stage, train_config=None):
    """Every stage subcommand in order, writing into `stage`, each under the
    world's config but `train`, which runs under `train_config` if given;
    the segment labels for `train` come from the world's probe file."""
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

    assert main(["train", "--config", str(train_config or c),
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
    normalized = read_text(stage / "ingest" / "vid_a.srt")
    assert parse_srt(normalized, "vid_a") == parse_srt(
        read_text(paths["root"] / "vid_a.srt"), "vid_a")
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

    space = json.loads((stage / "vocabulary.json").read_text())
    assert space["vocabulary"]["n_documents"] == 9
    # vocabulary.json holds the bundle's feature space: all but its model
    bundle = json.loads((full / "model.json").read_text())
    del bundle["model"], bundle["schema_version"]
    assert space == bundle
    for name in ("model.json", "labels.jsonl", "hierarchy.json"):
        assert (stage / name).read_bytes() == (full / name).read_bytes(), name


def test_train_takes_the_feature_space_of_gelid_features(tmp_path):
    """`gelid features` under bigrams and stopwords, then `gelid train`
    under a config of unigrams and no stopwords: the model is the one the
    features config trains, and the chain labels and clusters as `run`
    does under the features config."""
    paths = _world(tmp_path, overrides={"features.ngram_max": 2,
                                        "features.stopwords": "the,a"})
    unigrams = tmp_path / "unigrams.conf"
    unigrams.write_text(paths["config"].read_text()
                        + "features.ngram_max = 1\nfeatures.stopwords =\n")
    stage, full = tmp_path / "stage", tmp_path / "full"
    _stage_chain(paths, stage, train_config=unigrams)
    space = json.loads((stage / "vocabulary.json").read_text())
    assert (space["ngram_max"], space["stopwords"]) == (2, ["a", "the"])
    assert any(" " in term for term in space["vocabulary"]["terms"])

    assert main(_stage_argv(paths, stage, "train",
                            tmp_path / "model.json")) == 0
    assert (stage / "model.json").read_bytes() == \
        (tmp_path / "model.json").read_bytes()
    assert main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]), "--out", str(full)]) == 0
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


def test_gelid_environment_variables_are_ignored(tmp_path, monkeypatch):
    # as config keys, these would change the seed and merge each video's
    # three 20 s scenes into two segments
    paths = _world(tmp_path)
    argv = ["run", "--manifest", str(paths["manifest"]),
            "--config", str(paths["config"])]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("GELID_SEED", "99")
    monkeypatch.setenv("GELID_SEGMENTER_MIN_SEGMENT_MS", "25000")
    assert main([*argv, "--out", str(tmp_path / "env")]) == 0
    assert (tmp_path / "plain" / "hierarchy.json").read_bytes() == \
        (tmp_path / "env" / "hierarchy.json").read_bytes()


def _run_then_run_with_its_model(paths, tmp_path):
    """`run`, then `run --model` with the first run's model.json; each
    run's output directory."""
    argv = ["run", "--manifest", str(paths["manifest"]),
            "--config", str(paths["config"])]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--model", str(first / "model.json"),
                 "--out", str(second)]) == 0
    for name in ("labels.jsonl", "hierarchy.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    return first, second


def test_run_with_the_model_of_a_run_reproduces_it(tmp_path):
    _run_then_run_with_its_model(_world(tmp_path), tmp_path)


def test_model_path_key_exits_1_as_unknown(tmp_path, capsys):
    paths = _world(tmp_path, overrides={"train.model_path": "model.json"})
    code = main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "unknown key 'train.model_path'" in capsys.readouterr().err


def _embedding_world(tmp_path, table: bytes):
    table_path = tmp_path / "table.txt"
    table_path.write_bytes(table)
    return _world(tmp_path, overrides={
        "features.groups": "text,embedding,video,speech",
        "features.embedding_path": str(table_path)}), table_path


def test_run_with_an_embedding_table_reads_it_once(tmp_path, monkeypatch):
    paths, _ = _embedding_world(
        tmp_path, b"game 1.0 0.0\nlag 0.0 1.0\nboss 0.5 0.5\n")
    reads = []
    load = features.load_embedding_table
    monkeypatch.setattr(features, "load_embedding_table",
                        lambda path: reads.append(path) or load(path))
    first, _ = _run_then_run_with_its_model(paths, tmp_path)
    assert len(reads) == 1
    bundle = json.loads((first / "model.json").read_text())
    assert sorted(bundle["embedding"]) == ["boss", "game", "lag"]
    assert "embedding:1" in bundle["model"]["feature_names"]


def test_train_reads_no_embedding_file(tmp_path):
    """The table travels in vocabulary.json: with the file gone, `gelid
    train` trains the model it trained before."""
    paths, table_path = _embedding_world(
        tmp_path, b"game 1.0 0.0\nlag 0.0 1.0\nboss 0.5 0.5\n")
    stage = tmp_path / "stage"
    _stage_chain(paths, stage)
    table_path.unlink()
    again = tmp_path / "model.json"
    assert main(_stage_argv(paths, stage, "train", again)) == 0
    assert again.read_bytes() == (stage / "model.json").read_bytes()


@pytest.mark.parametrize("line", [b"lag 0.0 x", b"lag 0.0 nan",
                                  b"l\xffg 0.0 1.0"])
@pytest.mark.parametrize("command", ["run", "features"])
def test_bad_embedding_line_exits_2_naming_file_and_line(tmp_path, capsys,
                                                        command, line):
    paths, table_path = _embedding_world(tmp_path,
                                         b"game 1.0 0.0\n" + line + b"\n")
    segments = []
    if command == "features":
        segments = ["--segments", str(tmp_path / "segments.jsonl")]
        assert main(["segment", "--manifest", str(paths["manifest"]),
                     "--config", str(paths["config"]),
                     "--out", str(tmp_path)]) == 0
    _fails_naming(capsys, [command, "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]), *segments,
                           "--out", str(tmp_path / "out")],
                  f"{table_path}:2: ")


def test_embedding_group_without_a_table_exits_1_before_ingest(tmp_path,
                                                                capsys):
    paths = _world(tmp_path, overrides={"features.groups": "text,embedding"})
    (paths["root"] / "vid_a.srt").unlink()  # ingest would exit 2
    code = main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "features.embedding_path" in capsys.readouterr().err


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


_EVAL_FILES = {"a.json": {"groups": [["a", "b"], ["c", "d"], ["e"]]},
               "b.json": {"mapping": {"a": 1, "b": 2, "c": 2, "d": 2,
                                      "e": 1}},
               "r.json": ["yes", "no", "yes", "yes", "no"],
               "s.json": ["yes", "no", "no", "yes", "no"],
               "x.json": [1.5, 2, 3.25, 4], "y.json": [2, 5, 6.5],
               "p.json": [0.01, 0.04, 0.03, 0.2]}

# every stat's whole output, and the exit code and message of each kind of
# error, byte for byte
_EVAL_OUTPUTS = [
    ("--stat mojofm --partition-a a.json --partition-b b.json", 0,
     '{\n  "max_mno": 3,\n  "mno": 2,\n  "mojofm": 33.33333333333334,\n'
     '  "stat": "mojofm"\n}\n'),
    ("--stat mno --partition-a a.json --partition-b b.json", 0,
     '{\n  "mno": 2,\n  "stat": "mno"\n}\n'),
    ("--stat kappa --x r.json --y s.json", 0,
     '{\n  "kappa": 0.6153846153846155,\n  "stat": "kappa"\n}\n'),
    ("--stat mann-whitney --x x.json --y y.json", 0,
     '{\n  "exact": true,\n  "p_value": 0.2857142857142857,\n'
     '  "stat": "mann-whitney",\n  "u": 2.5\n}\n'),
    ("--stat cliffs-delta --x x.json --y y.json", 0,
     '{\n  "delta": -0.5833333333333334,\n  "magnitude": "large",\n'
     '  "stat": "cliffs-delta"\n}\n'),
    ("--stat bh --p p.json", 0,
     '{\n  "adjusted": [\n    0.04,\n    0.05333333333333334,\n'
     '    0.05333333333333334,\n    0.2\n  ],\n  "stat": "bh"\n}\n'),
    ("--stat margin --n 400 --confidence 0.9", 0,
     '{\n  "margin_of_error": 0.04112134067378681,\n  "stat": "margin"\n}\n'),
    ("--stat likert-std --sims 50 --group-size 10 --sim-seed 2", 0,
     '{\n  "max": 1.8257418583505538,\n  "mean": 1.39951801366534,\n'
     '  "min": 0.7888106377466155,\n  "stat": "likert-std"\n}\n'),
    ("--stat power --group-size 20 --shift 0.8 --sd 1.0 --sims 60 "
     "--sim-seed 4", 0,
     '{\n  "n_sims": 60,\n  "power": 0.75,\n  "power_mann_whitney": 0.7,\n'
     '  "stat": "power"\n}\n'),
    ("--stat atomicity --extras 7", 0,
     '{\n  "score": 1,\n  "stat": "atomicity"\n}\n'),
    ("--stat mno --partition-a a.json", 1,
     "error: --stat mno needs --partition-b\n"),
    ("--stat margin", 1, "error: --stat margin needs --n\n"),
    ("--stat margin --n 0", 1, "error: sample size must be >= 1\n"),
    ("--stat likert-std --group-size 1", 1,
     "error: group_size must be >= 2\n"),
    ("--stat mann-whitney --x x.json --y r.json", 2,
     'error: r.json: $[0]: expected a finite number, got "yes"\n'),
    ("--stat kappa --x r.json --y x.json", 2,
     "error: x.json: ratings must be all strings or all numbers, as in "
     "r.json\n"),
]


@pytest.mark.parametrize("argv, code, output", _EVAL_OUTPUTS)
def test_eval_output_is_pinned(tmp_path, monkeypatch, capsys, argv, code,
                               output):
    for name, value in _EVAL_FILES.items():
        (tmp_path / name).write_text(json.dumps(value))
    monkeypatch.chdir(tmp_path)
    assert main(["eval", *argv.split()]) == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err) == output
    assert (captured.err if code == 0 else captured.out) == ""


def test_eval_offers_every_stat(capsys):
    assert main(["eval", "--stat", "none"]) == 1
    err = capsys.readouterr().err
    listed = err[err.index("choose from"):]
    positions = [listed.index(stat) for stat in (
        "mojofm", "mno", "kappa", "mann-whitney", "cliffs-delta", "bh",
        "margin", "likert-std", "power", "atomicity")]
    assert positions == sorted(positions)


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

def test_group_with_mean_shift_records_its_constants(staged, tmp_path):
    paths, stage = staged
    config = tmp_path / "mean_shift.conf"
    config.write_text(paths["config"].read_text()
                      + "clustering.context_algorithm = mean_shift\n")
    assert main(["group", "--manifest", str(paths["manifest"]),
                 "--config", str(config),
                 "--segments", str(stage / "segments.jsonl"),
                 "--labels", str(stage / "labels.jsonl"),
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "contexts.json").read_text()
    assert '''  "params": {
    "bandwidth": 0.25,
    "max_iter": 300,
    "tol": 0.0001
  },
''' in text
    assert json.loads(text)["algorithm"] == "mean_shift"


def test_group_parses_no_subtitle_file(staged, tmp_path, monkeypatch):
    """Contexts come from the descriptor tracks alone: `group` writes the
    chain's contexts.json with every subtitle parse failing."""
    paths, stage = staged

    def no_subtitles(*args):
        raise AssertionError("group parsed a subtitle file")

    monkeypatch.setattr(pipeline, "parse_subtitle_file", no_subtitles)
    assert main(["group", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--segments", str(stage / "segments.jsonl"),
                 "--labels", str(stage / "labels.jsonl"),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "contexts.json").read_bytes() == \
        (stage / "contexts.json").read_bytes()


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
        "--out", str(tmp_path / "model.json")], f"{bad}:3: ")


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


def test_labels_not_utf8_exits_2_naming_file_and_line(staged, tmp_path,
                                                     capsys):
    paths, stage = staged
    lines = (stage / "labels.jsonl").read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"vid_", b"vid\xff", 1)
    bad = tmp_path / "labels.jsonl"
    bad.write_bytes(b"\n".join(lines))
    _fails_naming(capsys, [
        "group", "--manifest", str(paths["manifest"]),
        "--config", str(paths["config"]),
        "--segments", str(stage / "segments.jsonl"), "--labels", str(bad),
        "--out", str(tmp_path / "out")], f"{bad}:3: not UTF-8 text")


def test_alpha_outside_unit_interval_exits_1_before_ingest(tmp_path, capsys):
    paths = _world(tmp_path, overrides={"clustering.alpha": 1.5})
    (paths["root"] / "vid_a.srt").unlink()  # ingest would exit 2
    code = main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "clustering.alpha" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("model.n_trees", 0), ("model.iterations", -5), ("train.smote_k", 0),
    ("features.ngram_max", 3), ("clustering.issue_eps", 0),
    ("frames.bins_per_channel", 100), ("model.ffn_learning_rate", -1),
    ("model.max_depth", -1), ("clustering.context_min_pts", 0),
    ("segmenter.window", 0), ("model.l2", "nan")])
def test_setting_out_of_range_exits_1_before_ingest(tmp_path, capsys, key,
                                                    value):
    paths = _world(tmp_path, overrides={key: value})
    (paths["root"] / "vid_a.srt").unlink()  # ingest would exit 2
    code = main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"error: {key}: expected" in err


def test_feature_groups_naming_no_group_exits_1_before_ingest(tmp_path,
                                                              capsys):
    paths = _world(tmp_path, overrides={"features.groups": ""})
    (paths["root"] / "vid_a.srt").unlink()  # ingest would exit 2
    code = main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "features.groups names no feature group" in \
        capsys.readouterr().err


def test_run_without_labels_or_model_exits_1_before_ingest(tmp_path, capsys):
    paths = _world(tmp_path, overrides={"train.labels_path": ""})
    (paths["root"] / "vid_b.srt").unlink()  # ingest would exit 2
    code = main(["run", "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "train.labels_path" in capsys.readouterr().err


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


# the input flags of a clustering command past the world's; the config is
# checked first, so the files they name are never read
_CLUSTERING_INPUTS = {"run": [], "group": ["--segments", "--labels"],
                      "cluster": ["--segments", "--labels", "--model"]}


@pytest.mark.parametrize("command", sorted(_CLUSTERING_INPUTS))
@pytest.mark.parametrize("stage", ["context", "issue"])
def test_optics_cut_above_its_cap_exits_1_before_ingest(tmp_path, capsys,
                                                        command, stage):
    paths = _world(tmp_path, overrides={
        f"clustering.{stage}_algorithm": "optics",
        f"clustering.{stage}_eps_max": 0.5,
        f"clustering.{stage}_eps_cut": 0.9})
    inputs = [arg for flag in _CLUSTERING_INPUTS[command]
              for arg in (flag, str(tmp_path / "unread"))]
    out = tmp_path / "out"
    code = main([command, "--manifest", str(paths["manifest"]),
                 "--config", str(paths["config"]), *inputs,
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"clustering.{stage}: optics needs eps_cut <= eps_max" in err
    assert not out.exists()


def test_stages_past_features_ignore_an_unread_features_setting(staged,
                                                                 tmp_path):
    """`features.ngram_max = 3` is out of range, and `gelid features`
    exits 1 under it; train, classify, group and cluster read no
    `features.*` key, so each writes what the chain wrote."""
    paths, stage = staged
    config = tmp_path / "run.conf"
    config.write_text(paths["config"].read_text()
                      + "features.ngram_max = 3\n")
    paths = {**paths, "config": config}
    assert main(_stage_argv(paths, stage, "features", tmp_path / "f")) == 1
    for command, name in (("train", "model.json"),
                          ("classify", "labels.jsonl"),
                          ("group", "contexts.json"),
                          ("cluster", "hierarchy.json")):
        out = tmp_path / command
        assert main(_stage_argv(paths, stage, command, out / name
                                if command == "train" else out)) == 0
        assert (out / name).read_bytes() == (stage / name).read_bytes(), name


# per section, settings in range that differ from the test world's and
# change what a stage reading them writes; none of train.* does, as the
# world's singleton class turns SMOTE off
_OTHER_SETTINGS = {
    "frames": "frames.bins_per_channel = 8",
    "segmenter": "segmenter.k_seconds = 10\nsegmenter.alpha = 1.0",
    "features": "features.ngram_max = 2\nfeatures.stopwords = the,a",
    "model": "model.kind = random_forest\nmodel.n_trees = 3",
    "clustering": "clustering.context_eps = 0.01\nclustering.issue_eps = 0.01",
}


# the sections each stage subcommand checks, as the command table lists them
_STAGE_SECTIONS = {name: row[2] for name, row in cli._commands().items()
                   if row[2] and row[2] != SECTIONS}


@pytest.mark.parametrize("command", sorted(_STAGE_SECTIONS))
def test_a_stage_subcommand_reads_no_section_it_does_not_list(
        staged, tmp_path, command):
    """Other settings in every section that the command table does not list
    for `command` leave what it writes as the chain wrote it."""
    paths, stage = staged
    config = tmp_path / "run.conf"
    config.write_text(paths["config"].read_text() + "".join(
        f"{lines}\n" for section, lines in _OTHER_SETTINGS.items()
        if section not in _STAGE_SECTIONS[command]))
    out = tmp_path / "out"
    assert main(_stage_argv({**paths, "config": config}, stage, command,
                            out / "model.json" if command == "train"
                            else out)) == 0
    chain = stage / "ingest" if command == "ingest" else stage
    for path in out.iterdir():
        assert path.read_bytes() == (chain / path.name).read_bytes(), path


@pytest.mark.parametrize("command", ["group", "cluster"])
def test_labels_missing_a_segment_exit_2_naming_file(staged, tmp_path, capsys,
                                                     command):
    paths, stage = staged
    short = tmp_path / "labels.jsonl"
    short.write_text("".join(
        (stage / "labels.jsonl").read_text().splitlines(keepends=True)[1:]))
    argv = _stage_argv(paths, stage, command, tmp_path / "out")
    argv[argv.index("--labels") + 1] = str(short)
    _fails_naming(capsys, argv, str(short),
                  "labels file is missing segment(s)")
    assert not (tmp_path / "out").exists()


def test_negative_seed_exits_1(tmp_path, capsys):
    paths = _world(tmp_path)
    code = main(["segment", "--manifest", str(paths["manifest"]),
                 "--seed", "-1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err


# rows that are valid alone: the edit of line 2 from lines 1 and 2
_BAD_SEGMENTS_ROWS = {
    "repeated_segment_id": lambda first, line: first,
    "end_not_after_start": lambda first, line: json.dumps(
        {**json.loads(line), "end_ms": json.loads(line)["start_ms"]}),
}


@pytest.mark.parametrize("row", ["5", "{}", "not json", '{"segment_id": 1}',
                                 "[1,2]", *_BAD_SEGMENTS_ROWS])
def test_bad_segments_row_exits_2_naming_file_and_line(staged, tmp_path,
                                                       capsys, row):
    paths, stage = staged
    bad = tmp_path / "segments.jsonl"
    first = (stage / "segments.jsonl").read_text().splitlines()[0]
    edit = _BAD_SEGMENTS_ROWS.get(row, lambda first, line: row)
    _rewrite_line(stage / "segments.jsonl", bad, 1,
                  lambda line: edit(first, line))
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


def test_manifest_that_repeats_a_video_id_exits_2(tmp_path, capsys):
    paths = _world(tmp_path)
    manifest = json.loads(paths["manifest"].read_text())
    manifest["videos"].append(manifest["videos"][0])
    paths["manifest"].write_text(json.dumps(manifest))
    _fails_naming(capsys, ["ingest", "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]),
                           "--out", str(tmp_path / "out")],
                  f"{paths['manifest']}: duplicate video_id(s) in manifest: "
                  "['vid_a']")


def test_manifest_that_is_a_list_exits_2(tmp_path, capsys):
    paths = _world(tmp_path)
    paths["manifest"].write_text("[]\n")
    _fails_naming(capsys, ["segment", "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]),
                           "--out", str(tmp_path / "out")],
                  str(paths["manifest"]))


@pytest.mark.parametrize("video_id", ["../escaped", "a/b", "a\\b", "a\0b",
                                      ".", "..", "", "vid,a", "vid\u2028a",
                                      "vid\na", "vid\ta"])
def test_manifest_video_id_that_is_not_a_file_name_exits_2(tmp_path, capsys,
                                                          video_id):
    paths = _world(tmp_path)
    manifest = json.loads(paths["manifest"].read_text())
    manifest["videos"][0]["video_id"] = video_id
    paths["manifest"].write_text(json.dumps(manifest))
    out = tmp_path / "work" / "ingest"
    _fails_naming(capsys, ["ingest", "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]),
                           "--out", str(out)],
                  str(paths["manifest"]), "$.videos[0].video_id")
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("duration_ms", [2 ** 64, -5])
def test_manifest_duration_that_is_not_a_count_exits_2(tmp_path, capsys,
                                                       duration_ms):
    paths = _world(tmp_path)
    manifest = json.loads(paths["manifest"].read_text())
    manifest["videos"][1]["duration_ms"] = duration_ms
    paths["manifest"].write_text(json.dumps(manifest))
    out = tmp_path / "work" / "run"
    _fails_naming(capsys, ["run", "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]),
                           "--out", str(out)],
                  str(paths["manifest"]), "$.videos[1].duration_ms",
                  "expected an integer in [0, 2**63)")
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("command", ["run", "ingest"])
@pytest.mark.parametrize("key", ["subtitles", "frames"])
def test_manifest_path_with_a_nul_exits_2(tmp_path, capsys, command, key):
    paths = _world(tmp_path)
    manifest = json.loads(paths["manifest"].read_text())
    manifest["videos"][0][key] = "x\0y.srt"
    paths["manifest"].write_text(json.dumps(manifest))
    out = tmp_path / "work" / command
    _fails_naming(capsys, [command, "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]),
                           "--out", str(out)],
                  str(paths["manifest"]), f"$.videos[0].{key}", "no NUL")
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("text", [
    "[]", "5", '{"schema_version": 1, "model": 5}',
    "embedding_is_a_list"])
def test_malformed_model_exits_2_naming_file(staged, tmp_path, capsys, text):
    paths, stage = staged
    if text == "embedding_is_a_list":
        text = json.dumps({**json.loads((stage / "model.json").read_text()),
                           "embedding": [[1.0, 2.0]]})
    bad = tmp_path / "model.json"
    bad.write_text(text)
    _fails_naming(capsys, [
        "classify", "--manifest", str(paths["manifest"]),
        "--config", str(paths["config"]),
        "--segments", str(stage / "segments.jsonl"), "--model", str(bad),
        "--out", str(tmp_path / "out")], str(bad))


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"), (b"{\xff}", "not UTF-8 text"),
    pytest.param(b"{", "not valid JSON: Expecting property name enclosed "
                       "in double quotes (column 2)", id="{-is not valid JSON"),
    (b'{"model": ' + b"[" * 5000 + b"]" * 5000 + b"}",
     "not valid JSON: maximum recursion depth exceeded")])
def test_unreadable_model_exits_2_naming_file(staged, tmp_path, capsys,
                                              content, message):
    paths, stage = staged
    bad = tmp_path / "model.json"
    if content is not None:
        bad.write_bytes(content)
    _fails_naming(capsys, [
        "classify", "--manifest", str(paths["manifest"]),
        "--config", str(paths["config"]),
        "--segments", str(stage / "segments.jsonl"), "--model", str(bad),
        "--out", str(tmp_path / "out")], str(bad), message)


def test_json_nested_around_the_depth_limit_exits_2(tmp_path, capsys):
    """Near the decoder's depth limit a value fails to decode, or decodes
    and then fails its shape; either way the message names the file, and
    the line of a JSONL row."""
    hierarchy, probes = tmp_path / "hierarchy.json", tmp_path / "probes.jsonl"
    config = tmp_path / "run.conf"
    config.write_text(f"seed = 1\ntrain.labels_path = {probes}\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"schema_version": 1, "videos": []}')
    for depth in range(900, 1001):
        deep = "[" * depth + "]" * depth
        hierarchy.write_text(deep)
        probes.write_text('{"video_id": "v", "at_ms": 0, "label": "Logic"}\n'
                          f'{{"video_id": {deep}}}\n')
        _fails_naming(capsys, ["report", "--hierarchy", str(hierarchy),
                               "--out", str(tmp_path / "report.html")],
                      str(hierarchy))
        _fails_naming(capsys, ["run", "--manifest", str(manifest),
                               "--config", str(config),
                               "--out", str(tmp_path / "out")],
                      f"{probes}:2:")


def test_features_of_other_groups_exit_2_at_train(staged, tmp_path, capsys):
    """A features.csv of text, video and speech columns, trained with a
    vocabulary.json whose feature_groups name video only."""
    paths, stage = staged
    space = json.loads((stage / "vocabulary.json").read_text())
    space["feature_groups"] = ["video"]
    vocabulary = tmp_path / "vocabulary.json"
    vocabulary.write_text(json.dumps(space))
    argv = _stage_argv(paths, stage, "train", tmp_path / "model.json")
    argv[argv.index("--vocabulary") + 1] = str(vocabulary)
    _fails_naming(capsys, argv, "stage 'train': the feature columns are not "
                  "those of feature_groups video")
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command", ["classify", "cluster"])
def test_bad_model_exits_2_naming_it_before_ingest(staged, tmp_path, capsys,
                                                   command):
    paths, stage = staged
    world = tmp_path / "world"
    shutil.copytree(paths["root"], world)
    (world / "vid_a.srt").unlink()  # ingest would exit 2 naming it
    bad = tmp_path / "model.json"
    bad.write_text('{"schema_version": 1}')
    argv = _stage_argv(paths, stage, command, tmp_path / "out")
    argv[argv.index("--manifest") + 1] = str(world / paths["manifest"].name)
    argv[argv.index("--model") + 1] = str(bad)
    _fails_naming(capsys, argv, f"error: {bad}: $.model: expected an object")


def test_model_hyper_of_another_shape_exits_2_naming_file(staged, tmp_path,
                                                          capsys):
    """A NaN hyper-parameter in model.json is refused, not written back into
    the next run's model.json, which strict JSON parsers would reject."""
    paths, stage = staged
    bundle = json.loads((stage / "model.json").read_text())
    bundle["model"]["hyper"] = {"l2": float("nan"), "junk": [1, 2]}
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(bundle))
    _fails_naming(capsys, [
        "run", "--manifest", str(paths["manifest"]),
        "--config", str(paths["config"]), "--model", str(bad),
        "--out", str(tmp_path / "out")],
        f"error: {bad}: $.model.hyper.l2: expected a finite number >= 0, "
        "got NaN")
    assert not (tmp_path / "out" / "model.json").exists()


def test_model_hyper_with_an_unknown_key_exits_2_naming_file(staged,
                                                             tmp_path,
                                                             capsys):
    """A hyper-parameter the model kind does not take is refused, as
    training refuses it, not written back into the next model.json."""
    paths, stage = staged
    bundle = json.loads((stage / "model.json").read_text())
    bundle["model"]["hyper"]["junk"] = [1, 2]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(bundle))
    _fails_naming(capsys, [
        "run", "--manifest", str(paths["manifest"]),
        "--config", str(paths["config"]), "--model", str(bad),
        "--out", str(tmp_path / "out")],
        f"error: {bad}: $.model.hyper: unknown hyper-parameter(s) for "
        f"{bundle['model']['kind']}: ['junk']")
    assert not (tmp_path / "out" / "model.json").exists()


def _embedding_without_a_table(bundle):
    bundle["feature_groups"].insert(1, "embedding")


def _rename_a_term(bundle):
    bundle["vocabulary"]["terms"][0] = "zzz"  # no other term


@pytest.mark.parametrize("command", ["classify", "run"])
@pytest.mark.parametrize("edit, message", [
    (_embedding_without_a_table,
     "embedding features requested without a table"),
    (_rename_a_term, "the model's feature names are not those of its "
     "feature_groups, vocabulary and embedding")],
    ids=["embedding_without_a_table", "renamed_term"])
def test_model_of_other_feature_names_exits_2_naming_file(
        staged, tmp_path, capsys, command, edit, message):
    paths, stage = staged
    bundle = json.loads((stage / "model.json").read_text())
    edit(bundle)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(bundle))
    argv = [command, "--manifest", str(paths["manifest"]),
            "--config", str(paths["config"]), "--model", str(bad),
            "--out", str(tmp_path / "out")]
    if command == "classify":
        argv += ["--segments", str(stage / "segments.jsonl")]
    else:  # run reads the model first, before ingest would exit 2
        world = tmp_path / "world"
        shutil.copytree(paths["root"], world)
        (world / "vid_a.srt").unlink()
        argv[2] = str(world / paths["manifest"].name)
    _fails_naming(capsys, argv, f"error: {bad}: {message}")


def test_repeated_feature_row_exits_2_naming_file_and_line(staged, tmp_path,
                                                           capsys):
    paths, stage = staged
    lines = (stage / "features.csv").read_text().splitlines()
    bad = tmp_path / "features.csv"
    bad.write_text("\n".join(lines + lines[1:2]) + "\n")
    argv = _stage_argv(paths, stage, "train", tmp_path / "model.json")
    argv[argv.index("--features") + 1] = str(bad)
    _fails_naming(capsys, argv, f"{bad}:{len(lines) + 1}: segment_id "
                  f"{lines[1].split(',')[0]!r} repeats an earlier row")


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


def test_missing_descriptor_csv_exits_2_naming_stage_and_video(tmp_path,
                                                              capsys):
    paths = _world(tmp_path)
    csv_path = paths["root"] / "vid_b.descriptors.csv"
    csv_path.unlink()
    _fails_naming(capsys, ["ingest", "--manifest", str(paths["manifest"]),
                           "--config", str(paths["config"]),
                           "--out", str(tmp_path / "out")],
                  f"stage 'ingest', video 'vid_b': {csv_path}: cannot read "
                  "(No such file or directory)")


def test_vocabulary_missing_key_exits_2_naming_file(staged, tmp_path,
                                                     capsys):
    paths, stage = staged
    space = json.loads((stage / "vocabulary.json").read_text())
    del space["vocabulary"]["terms"]
    bad = tmp_path / "vocabulary.json"
    bad.write_text(json.dumps(space))
    _fails_naming(capsys, [
        "train", "--config", str(paths["config"]),
        "--features", str(stage / "features.csv"), "--vocabulary", str(bad),
        "--labels", str(stage / "seg_labels.jsonl"),
        "--out", str(tmp_path / "model.json")], str(bad), "$.vocabulary.terms")


def test_vocabulary_json_of_a_vocabulary_alone_exits_2_naming_file(
        staged, tmp_path, capsys):
    """A vocabulary.json that holds the vocabulary's dict but not the rest
    of the feature space."""
    paths, stage = staged
    bad = tmp_path / "vocabulary.json"
    bad.write_text(json.dumps(json.loads(
        (stage / "vocabulary.json").read_text())["vocabulary"]))
    argv = _stage_argv(paths, stage, "train", tmp_path / "model.json")
    argv[argv.index("--vocabulary") + 1] = str(bad)
    _fails_naming(capsys, argv, f"error: {bad}: $.feature_groups: expected "
                  f"a list, got nothing")


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
                                  '{"groups": []}',
                                  '{"groups": [[1], ["1"]]}',
                                  '{"groups": [[1], ["1"], ["2"]]}'])
def test_eval_bad_partition_exits_2_naming_file(tmp_path, capsys, text):
    bad, good = tmp_path / "a.json", tmp_path / "b.json"
    bad.write_text(text)
    good.write_text(json.dumps({"groups": [["a", "b"], ["c"]]}))
    _fails_naming(capsys, ["eval", "--stat", "mojofm", "--partition-a",
                           str(bad), "--partition-b", str(good)], str(bad))


@pytest.mark.parametrize("labels, mno", [
    ({"a": 1, "b": "1", "c": 2}, None),   # 1 and "1": strings and numbers
    ({"a": "x", "b": "x", "c": 2}, None),
    ({"a": 1, "b": 1.0, "c": 2}, 0),      # 1 and 1.0: one group
    ({"a": "1", "b": "1", "c": "2"}, 0)])
def test_eval_partition_labels_are_all_strings_or_all_numbers(
        tmp_path, capsys, labels, mno):
    mapping, groups = tmp_path / "a.json", tmp_path / "b.json"
    mapping.write_text(json.dumps({"mapping": labels}))
    groups.write_text(json.dumps({"groups": [["a", "b"], ["c"]]}))
    argv = ["eval", "--stat", "mno", "--partition-a", str(mapping),
            "--partition-b", str(groups)]
    if mno is None:
        _fails_naming(capsys, argv, str(mapping), "all strings or all numbers")
    else:
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["mno"] == mno


@pytest.mark.parametrize("x_text, y_text, bad", [
    ("[1, 2, 1, 2]", '[1, 2, "1", 2]', "y"),
    ('["1", 2]', '["1", "2"]', "x"),
    ("[1, 2, 1, 2]", '["1", "2", "1", "2"]', "y"),
    ('["1", "2", "1", "2"]', "[1, 2, 1, 2]", "y")])
def test_eval_kappa_ratings_are_all_strings_or_all_numbers(
        tmp_path, capsys, x_text, y_text, bad):
    x, y = tmp_path / "x.json", tmp_path / "y.json"
    x.write_text(x_text)
    y.write_text(y_text)
    _fails_naming(capsys, ["eval", "--stat", "kappa", "--x", str(x),
                           "--y", str(y)],
                  str({"x": x, "y": y}[bad]), "all strings or all numbers")


@pytest.mark.parametrize("stat", ["mann-whitney", "cliffs-delta", "kappa"])
@pytest.mark.parametrize("text", ['[NaN, 2, "a"]', "[1, Infinity]", "[true]",
                                  '{"x": 1}', "[[1]]", "[1" + "0" * 400 + "]"])
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


@pytest.mark.parametrize("argv,message", [
    (["--stat", "margin", "--n", "0"], "sample size must be >= 1"),
    (["--stat", "power", "--sd", "0", "--sims", "10"], "sd must be > 0"),
    (["--stat", "power", "--sd", "nan", "--sims", "20", "--group-size", "10"],
     "sd must be > 0 and finite"),
    (["--stat", "power", "--sd", "inf", "--sims", "20", "--group-size", "10"],
     "sd must be > 0 and finite"),
    (["--stat", "power", "--shift", "nan", "--sims", "20",
      "--group-size", "10"], "shift must be finite"),
    (["--stat", "power", "--shift=-inf", "--sims", "20",
      "--group-size", "10"], "shift must be finite")])
def test_eval_flag_out_of_range_exits_1(capsys, argv, message):
    assert main(["eval", *argv]) == 1
    assert f"error: {message}" in capsys.readouterr().err


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
    except (ValueError, RecursionError):
        return False
    return isinstance(obj, list) and bool(obj) and all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max
        for v in obj)


@pytest.mark.parametrize("target", ["vocabulary", "hierarchy", "partition",
                                    "sample", "segments", "manifest",
                                    "probes", "model", "labels"])
@given(payload=_PAYLOADS)
@example(payload=b"[" * 989 + b"]" * 989)
@example(payload=b"[" * 5000 + b"]" * 5000)
@example(payload=b'{"video_id": "vid_a", "at_ms": 0, "label": "Logic"}\n'
         b'{"video_id": "vid_a", "at_ms": 0, "label": '
         + b"[" * 5000 + b"]" * 5000 + b"}\n")
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
        "model": ["classify", *world,
                  "--segments", str(stage / "segments.jsonl"),
                  "--model", str(bad), "--out", str(work / "out")],
        "labels": ["train", "--config", str(paths["config"]),
                   "--features", str(stage / "features.csv"),
                   "--vocabulary", str(stage / "vocabulary.json"),
                   "--labels", str(bad), "--out", str(work / "model.json")],
    }[target]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (1, 2), err.getvalue()
    assert "error:" in err.getvalue()


def _stage_argv(paths, stage, command, out):
    """`command` over the staged artifacts, writing to `out`."""
    world = ["--manifest", str(paths["manifest"]),
             "--config", str(paths["config"])]
    seg = ["--segments", str(stage / "segments.jsonl")]
    labels = ["--labels", str(stage / "labels.jsonl")]
    model = ["--model", str(stage / "model.json")]
    return [command, *{
        "run": world, "ingest": world, "segment": world,
        "features": [*world, *seg],
        "train": ["--config", str(paths["config"]),
                  "--features", str(stage / "features.csv"),
                  "--vocabulary", str(stage / "vocabulary.json"),
                  "--labels", str(stage / "seg_labels.jsonl")],
        "classify": [*world, *seg, *model],
        "group": [*world, *seg, *labels],
        "cluster": [*world, *seg, *labels, *model],
    }[command], "--out", str(out)]


# each stage subcommand's step, as cli calls it on `pipeline`
_STEPS = {"features": "extract_features", "train": "train_bundle",
          "classify": "classify_segments", "group": "group_contexts",
          "cluster": "build_hierarchy"}


@pytest.mark.parametrize("error, code", [(ValueError("boom"), 3),
                                         (DataError("boom"), 2)],
                         ids=["ValueError", "DataError"])
@pytest.mark.parametrize("command", sorted(_STEPS))
def test_stage_subcommand_failure_names_its_stage(staged, tmp_path, capsys,
                                                  monkeypatch, command, error,
                                                  code):
    def fail(*args, **kwargs):
        raise error

    paths, stage = staged
    monkeypatch.setattr(pipeline, _STEPS[command], fail)
    capsys.readouterr()
    assert main(_stage_argv(paths, stage, command, tmp_path / "out")) == code
    assert capsys.readouterr().err == f"error: stage '{command}': boom\n"


@pytest.mark.parametrize("command", ["run", "group"])
def test_descriptor_csv_of_another_bin_count_exits_2_at_ingest(
        staged, tmp_path, capsys, command):
    _, stage = staged
    paths = _world(tmp_path)
    csv_path = paths["root"] / "vid_b.descriptors.csv"
    track = read_descriptor_csv(csv_path, "vid_b")
    n = len(track.timestamps_ms)  # fold 16 bins a channel into 8
    csv_path.write_bytes(write_descriptor_csv(dataclasses.replace(
        track, histograms=track.histograms.reshape(n, 3, 8, 2).sum(axis=3)
        .reshape(n, 24))))
    _fails_naming(capsys, _stage_argv(paths, stage, command, tmp_path / "out"), "stage 'ingest', video 'vid_b'",
                  f"{csv_path}:1: 24 histogram columns, expected 48")


def test_ppm_frame_past_the_duration_exits_2_at_ingest_naming_its_file(
        tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for stamp in (0, 1000):
        (frames_dir / f"{stamp}.ppm").write_bytes(b"P6 1 1 255\n\0\0\0")
    (tmp_path / "v.srt").write_text("1\n00:00:00,000 --> 00:00:00,500\nhi\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema_version": 1, "videos": [
        {"video_id": "v", "subtitles": "v.srt", "frames": "frames",
         "duration_ms": 800}]}))
    config = tmp_path / "run.conf"
    config.write_text("seed = 1\n")
    _fails_naming(capsys, [
        "ingest", "--manifest", str(manifest), "--config", str(config),
        "--out", str(tmp_path / "out")], "stage 'ingest', video 'v'",
        f"{frames_dir / '1000.ppm'}: frame at 1000 ms exceeds duration 800 ms")


def test_ppm_frame_before_the_video_start_exits_2_at_ingest_naming_its_file(
        tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for stamp in (-40, 0, 500):
        (frames_dir / f"{stamp}.ppm").write_bytes(b"P6 1 1 255\n\0\0\0")
    (tmp_path / "v.srt").write_text("1\n00:00:00,000 --> 00:00:00,500\nhi\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema_version": 1, "videos": [
        {"video_id": "v", "subtitles": "v.srt", "frames": "frames",
         "duration_ms": 800}]}))
    config = tmp_path / "run.conf"
    config.write_text("seed = 1\n")
    _fails_naming(capsys, [
        "ingest", "--manifest", str(manifest), "--config", str(config),
        "--out", str(tmp_path / "out")], "stage 'ingest', video 'v'",
        f"{frames_dir / '-40.ppm'}: frame at -40 ms before the video start")


def test_descriptor_row_before_the_video_start_exits_2_at_ingest(
        staged, tmp_path, capsys):
    _, stage = staged
    paths = _world(tmp_path)
    csv_path = paths["root"] / "vid_a.descriptors.csv"
    lines = csv_path.read_text().splitlines()
    lines[1] = ",".join(["-40", *lines[1].split(",")[1:]])
    csv_path.write_text("\n".join(lines) + "\n")
    _fails_naming(capsys, _stage_argv(paths, stage, "ingest",
                                      tmp_path / "out"),
                  "stage 'ingest', video 'vid_a'",
                  f"{csv_path}:2: frame at -40 ms before the video start")


@pytest.mark.parametrize("segment_id", ["vid_a_0000,x",
                                        "vid_a\u20280000"])
@pytest.mark.parametrize("command", sorted(_SEGMENT_STAGES))
def test_segment_id_that_is_not_a_file_name_exits_2(staged, tmp_path, capsys,
                                                    command, segment_id):
    paths, stage = staged
    bad = tmp_path / "segments.jsonl"
    _rewrite_line(stage / "segments.jsonl", bad, 0, lambda line: json.dumps(
        {**json.loads(line), "segment_id": segment_id}))
    extra = _segment_stage_extra(command, stage, tmp_path)
    _fails_naming(capsys, [
        command, "--manifest", str(paths["manifest"]),
        "--config", str(paths["config"]), "--segments", str(bad), *extra,
        "--out", str(tmp_path / "out")],
        f"{bad}:1: $.segment_id: expected a printable file name")


def test_feature_too_large_to_standardize_exits_2(staged, tmp_path, capsys):
    paths, stage = staged
    rows = [line.split(",")
            for line in (stage / "features.csv").read_text().splitlines()]
    column = rows[0].index("video:duration_s")
    for row in rows[1:]:
        row[column] = "1e+308"
    bad = tmp_path / "features.csv"
    bad.write_text("\n".join(map(",".join, rows)) + "\n")
    argv = _stage_argv(paths, stage, "train", tmp_path / "model.json")
    argv[argv.index("--features") + 1] = str(bad)
    _fails_naming(capsys, argv, "stage 'train': feature 'video:duration_s' "
                  "is too large to standardize")
    assert not (tmp_path / "model.json").exists()


def _indented(path):
    return json.dumps(json.loads(path.read_text()), indent=2) + "\n"


# each text input: its file name, its text from the world or the staged
# chain, and its reader
_READERS = {
    "manifest": ("manifest.json", lambda paths, stage: _indented(
        paths["manifest"]), pipeline.load_manifest),
    "labels": ("labels.jsonl", lambda paths, stage: (
        stage / "labels.jsonl").read_text(), pipeline.load_segment_labels),
    "probes": ("probes.jsonl", lambda paths, stage: paths[
        "labels"].read_text(), pipeline.load_label_probes),
    "srt": ("v.srt", lambda paths, stage: (
        stage / "ingest" / "vid_a.srt").read_text(),
        lambda path: pipeline.parse_subtitle_file(path, "v")),
    "vtt": ("v.vtt", lambda paths, stage: "WEBVTT\n\n00:00.000 --> "
            "00:01.000\nhi there\n\n00:01.000 --> 00:02.500\nbye\n",
            lambda path: pipeline.parse_subtitle_file(path, "v")),
    "descriptors": ("v.csv", lambda paths, stage: (
        stage / "ingest" / "vid_a.descriptors.csv").read_text(),
        lambda path: pipeline.load_track(path, "v")),
    "features": ("features.csv", lambda paths, stage: (
        stage / "features.csv").read_text(),
        lambda path: features.read_feature_csv(read_text(path))),
    "vocabulary": ("vocabulary.json", lambda paths, stage: (
        stage / "vocabulary.json").read_text(),
        lambda path: features.FeatureSpace.from_dict(
            pipeline.read_json(path, features.SPACE_SHAPE))),
    "model": ("model.json", lambda paths, stage: _indented(
        stage / "model.json"), pipeline.load_bundle),
    "partition": ("a.json", lambda paths, stage: json.dumps(
        {"groups": [["a", "b"], ["c"]]}, indent=2),
        lambda path: cli._partition_from_file(str(path))),
    "embedding": ("emb.txt", lambda paths, stage: "game 1.0 0.0\n"
                  "lag 0.0 2.0\nbug 0.5 0.5\n", features.load_embedding_table),
    "config": ("run.conf", lambda paths, stage: paths["config"].read_text(),
               lambda path: load_config(str(path))),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_every_reader_skips_a_bom_and_names_a_bad_byte_by_its_line(
        staged, tmp_path, reader):
    """One rule for every text input: a leading byte-order mark changes
    nothing, and a byte that is not UTF-8 on line 3 of a file with lone CR
    line ends is named by line 3, as a bad row would be."""
    name, source, read = _READERS[reader]
    data = source(*staged).encode()
    path = tmp_path / name
    path.write_bytes(data)
    plain = pickle.dumps(read(path))
    path.write_bytes(codecs.BOM_UTF8 + data)
    assert pickle.dumps(read(path)) == plain
    lines = data.split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\r".join(lines))
    with pytest.raises(GelidError, match=re.escape(
            f"{path}:3: not UTF-8 text")):
        read(path)


def _line_3(edit):
    """A text with its line 3 replaced by `edit` of it."""
    def broken(text):
        lines = text.split("\n")
        lines[2] = edit(lines[2])
        return "\n".join(lines)
    return broken


# each reader's text, from its good text, with a format fault on line 3
_LINE_3_FAULTS = {
    **dict.fromkeys(["manifest", "vocabulary", "model", "partition"],
                    _line_3(lambda line: "x" + line)),
    **dict.fromkeys(["labels", "probes"], _line_3(lambda line: "not json")),
    "srt": lambda text: "\n\n00:00:02,000 --> 00:00:01,000\nbye\n",
    "vtt": lambda text: "WEBVTT\n\n00:02.000 --> 00:01.000\nbye\n",
    "descriptors": _line_3(lambda line: "x" + line),
    "features": _line_3(lambda line: line + ",1.0"),
    "embedding": _line_3(lambda line: line + " nan"),
    "config": _line_3(lambda line: "bogus.key = 1"),
}


def _reading(command, flag):
    """The staged `command`, reading its `flag` input from a path."""
    def argv(path, paths, stage, tmp_path):
        argv = _stage_argv(paths, stage, command, tmp_path / "out")
        argv[argv.index(flag) + 1] = str(path)
        return argv
    return argv


def _ingesting(key):
    """`ingest` of one video, 'v', the staged vid_a but its `key` input,
    read from a path."""
    def argv(path, paths, stage, tmp_path):
        video = {"video_id": "v",
                 "subtitles": str(stage / "ingest" / "vid_a.srt"),
                 "frames": str(stage / "ingest" / "vid_a.descriptors.csv"),
                 key: str(path)}
        manifest = tmp_path / "one.json"
        manifest.write_text(json.dumps({"schema_version": 1,
                                        "videos": [video]}))
        return _reading("ingest", "--manifest")(manifest, paths, stage,
                                                tmp_path)
    return argv


def _configured(command, settings):
    """The staged `command` under the world's config and `settings`, which
    name a path as `{}`."""
    def argv(path, paths, stage, tmp_path):
        config = tmp_path / "more.conf"
        config.write_text(paths["config"].read_text()
                          + settings.format(path) + "\n")
        return _reading(command, "--config")(config, paths, stage, tmp_path)
    return argv


# each reader: a gelid command that reads its input from a path, and the
# stage and video that lead an error in it
_READ_BY = {
    "manifest": (_reading("ingest", "--manifest"), ""),
    "labels": (_reading("group", "--labels"), ""),
    "probes": (_configured("run", "train.labels_path = {}"), ""),
    "srt": (_ingesting("subtitles"), "stage 'ingest', video 'v': "),
    "vtt": (_ingesting("subtitles"), "stage 'ingest', video 'v': "),
    "descriptors": (_ingesting("frames"), "stage 'ingest', video 'v': "),
    "features": (_reading("train", "--features"), ""),
    "vocabulary": (_reading("train", "--vocabulary"), ""),
    "model": (_reading("classify", "--model"), ""),
    "partition": (lambda path, *_: [
        "eval", "--stat", "mojofm", "--partition-a", str(path),
        "--partition-b", str(path)], ""),
    "embedding": (_configured("features", "features.groups = text,embedding"
                              "\nfeatures.embedding_path = {}"),
                  "stage 'features': "),
    "config": (_reading("ingest", "--config"), ""),
}


@pytest.mark.parametrize("fault", ["line 3", "missing"])
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_every_reader_names_a_fault_by_its_file_and_line(
        staged, tmp_path, capsys, reader, fault):
    """One rule for every input a command reads: its one error line names
    a fault on line 3 as `<path>:3: `, and a missing file as `<path>:
    cannot read (...)`, led by the stage and video that read it."""
    name, source, _ = _READERS[reader]
    path = tmp_path / name
    if fault == "line 3":
        path.write_text(_LINE_3_FAULTS[reader](source(*staged)))
    argv, lead = _READ_BY[reader]
    capsys.readouterr()
    code = main(argv(path, *staged, tmp_path))
    err = capsys.readouterr().err
    assert code == (1 if reader == "config" else 2), err
    where = (":3: " if fault == "line 3"
             else ": cannot read (No such file or directory)\n")
    assert err.startswith(f"error: {lead}{path}{where}"), err
    assert err.count("\n") == 1, err


def test_a_config_value_keeps_a_unicode_line_break(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("seed = 1\nfeatures.stopwords = a\u2028b\n",
                    encoding="utf-8")
    assert load_config(str(path)).stopwords == "a\u2028b"


def test_an_embedding_table_with_a_bom_keys_its_first_token_without_it(
        tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(codecs.BOM_UTF8 + b"the 1.0 0.0\nlag 0.0 2.0\n")
    assert sorted(features.load_embedding_table(path).vectors) == [
        "lag", "the"]


def test_report_makes_the_directory_of_its_out_file(staged, tmp_path):
    _, stage = staged
    out = tmp_path / "new" / "sub" / "r.html"
    assert main(["report", "--hierarchy", str(stage / "hierarchy.json"),
                 "--out", str(out)]) == 0
    assert "<section class=\"context\"" in out.read_text()


def test_a_simulation_too_large_to_allocate_exits_2(capsys):
    # NumPy refuses the request for 7.11 PiB before it touches any memory
    assert main(["eval", "--stat", "likert-std", "--sims", "1000000000000",
                 "--group-size", "1000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
