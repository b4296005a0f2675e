"""The benchmark tracer finds every gelid function it wraps.

`benchmarks/tracing.py` wraps functions by module and name. A function
that is renamed, moved or called through another name would silently
drop out of every traced benchmark run; here it fails instead.
"""

import importlib.util
from pathlib import Path

import gelid.features

_SPEC = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "benchmarks"
    / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

# `gelid.cli` reaches these through `pipeline`, so it has no name of its
# own for the tracer to wrap
NOT_IN_CLI = ["parse_subtitle_file", "load_track", "segment_video",
              "run_pipeline", "classify_segments", "hierarchy_to_json",
              "export_report"]


def test_tracer_wraps_every_target_but_the_names_cli_lacks():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == [f"gelid.cli.{name}" for name in NOT_IN_CLI]
    finally:
        tracer.uninstall()
    assert not hasattr(gelid.features.video_features, "__wrapped__")
