"""Every function and method in `src/gelid` is entered when the
`conftest.py` world goes through every command, or `NOT_REACHED` says why
not.

Under `sys.setprofile`, the world runs `gelid run` once per model kind,
each under its own clusterer, and every model.json is read back; then its
stage chain, `gelid report` in both formats and every `gelid eval`
statistic. The runs add a fourth video with a second Presentation scene,
so that every class has the two members SMOTE needs. A definition is
matched to the code objects entered by its file and first line (its first
decorator's, if it has one), since Python 3.10 has no `co_qualname`.
Functions that run only while gelid is imported count as not entered.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

from conftest import THREE_VIDEO_WORLD, write_world
from gelid import pipeline
from gelid.cli import main
from test_cli import _EVAL_FILES, _EVAL_OUTPUTS, _stage_chain
from test_golden import _CLUSTERERS, _MODELS
from test_layout import PACKAGE

_IMPORT = "runs while gelid is imported"
_ERROR = "an error path"
_LOADTXT = ("the np.loadtxt fallback, for a descriptor CSV the block "
            "decoder does not take")
_EMBEDDING = "the embedding table, which the world's config leaves out"
_PPM = "PPM frames, which the world's manifest does not use"

# what the world leaves out, and why
NOT_REACHED = {
    "cli._Parser.error": _ERROR,
    "config._setting": _IMPORT,
    "errors.GelidError.__init__": _ERROR,
    "errors.GelidError.__str__": _ERROR,
    "errors.StageError.__init__": _ERROR,
    "features.EmbeddingTable.__post_init__": _EMBEDDING,
    "features.embedding_features": _EMBEDDING,
    "features.load_embedding_table": _EMBEDDING,
    "frames.VideoTrack.frames": ("the frame count benchmarks/tracing.py "
                                 "takes, which no command reads"),
    "frames._data_lines": _ERROR,
    "frames._load_rows": _LOADTXT,
    "frames._parses": _ERROR,
    "frames._unparsable_row": _ERROR,
    "frames.compute_histogram": _PPM,
    "frames.parse_ppm_frame": _PPM,
    "subtitles.parse_vtt": "WebVTT subtitles, which the world does not use",
}

_SECOND_PRESENTATION = {"vid_d": [
    {"duration_ms": 20000, "base_bin": 13, "label": "Presentation"},
    {"duration_ms": 20000, "base_bin": 0, "label": "Logic"}]}


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) of every function and method in `src/gelid`, and
    its dotted name (`module.Class.method`, `module.outer.inner`)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        todo = [(node, path.stem) for node in tree.body]
        while todo:
            node, prefix = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{node.name}"
                if isinstance(node, ast.FunctionDef):
                    first = min([node.lineno] + [decorator.lineno for
                                                 decorator in
                                                 node.decorator_list])
                    found[(str(path), first)] = name
                todo += [(child, name) for child in node.body]
            else:
                todo += [(child, prefix)
                         for child in ast.iter_child_nodes(node)]
    return found


def _every_command(tmp_path) -> None:
    world = {**THREE_VIDEO_WORLD, **_SECOND_PRESENTATION}
    for clusterer, model in zip(sorted(_CLUSTERERS), sorted(_MODELS)):
        paths = write_world(tmp_path / model, world, config_overrides={
            **_CLUSTERERS[clusterer], **_MODELS[model], "train.smote": "on"})
        out = tmp_path / model / "out"
        assert main(["run", "--manifest", str(paths["manifest"]),
                     "--config", str(paths["config"]), "--out", str(out)]) == 0
        pipeline.load_bundle(out / "model.json")
    paths = write_world(tmp_path / "world", THREE_VIDEO_WORLD)
    stage = tmp_path / "stage"
    _stage_chain(paths, stage)
    for fmt in ("json", "html"):
        assert main(["report", "--hierarchy", str(stage / "hierarchy.json"),
                     "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    for name, value in _EVAL_FILES.items():
        (tmp_path / name).write_text(json.dumps(value))
    for argv, code, _ in _EVAL_OUTPUTS:
        if code == 0:
            argv = [str(tmp_path / arg) if arg.endswith(".json") else arg
                    for arg in argv.split()]
            assert main(["eval", *argv,
                         "--out", str(tmp_path / "eval.json")]) == 0


def test_every_definition_is_entered_or_declared(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # a cached function is entered only on a miss
    for path in PACKAGE.glob("*.py"):
        for value in vars(importlib.import_module(f"gelid.{path.stem}")
                          ).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    sys.setprofile(profile)
    try:
        _every_command(tmp_path)
    finally:
        sys.setprofile(None)
    hit = {(str(Path(file).resolve()), line) for file, line in
           {(code.co_filename, code.co_firstlineno) for code in entered}}
    names = definitions()
    missing = sorted(name for key, name in names.items()
                     if key not in hit and name not in NOT_REACHED)
    assert not missing, f"nothing entered {', '.join(missing)}"
    stale = sorted(set(NOT_REACHED) - {name for key, name in names.items()
                                       if key not in hit})
    assert not stale, f"NOT_REACHED names {', '.join(stale)}, which is " \
        "entered or gone"
