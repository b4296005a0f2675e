"""gelid command line: stage-by-stage artifacts or the whole pipeline.

Subcommands: ingest, segment, features, train, classify, group, cluster,
run, eval, report, each stated once in `_commands`; a call builds its
own command's parser only. Exit codes: 0 success, 1 usage/config error, 2
data/format error, 3 internal invariant violation. The stage subcommands
run their step in a `pipeline.StageClock`, as `run` runs each stage, so a
step's failure names its stage and exits as `run`'s would.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from . import features, pipeline, stats
from .config import SECTIONS, load_config
from .errors import (ConfigError, DataError, GelidError, fits, naming,
                     read_text, write_file)
from .frames import write_descriptor_csv
from .segmentation import write_segments_jsonl
from .subtitles import write_srt

log = logging.getLogger("gelid")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _ingest(args, config):
    return pipeline.ingest(pipeline.load_manifest(args.manifest), config)


def cmd_ingest(args, config) -> int:
    transcripts, tracks = _ingest(args, config)
    out = Path(args.out)
    for video_id, track in tracks.items():
        write_file(out / f"{video_id}.srt", write_srt(transcripts[video_id]))
        write_file(out / f"{video_id}.descriptors.csv",
                   write_descriptor_csv(track))
    print(f"ingested {len(tracks)} video(s) into {out}")
    return 0


def cmd_segment(args, config) -> int:
    segments = pipeline.segment(*_ingest(args, config), config)
    out = Path(args.out)
    write_file(out / "segments.jsonl", write_segments_jsonl(segments))
    print(f"wrote {len(segments)} segment(s) to {out / 'segments.jsonl'}")
    return 0


def cmd_features(args, config) -> int:
    transcripts, tracks = _ingest(args, config)
    segments = pipeline.load_segments(args.segments, tracks)
    space, matrix = pipeline.StageClock()(
        "features", lambda: pipeline.extract_features(
            segments, transcripts, tracks, config))
    out = Path(args.out)
    write_file(out / "features.csv", features.write_feature_csv(matrix))
    write_file(out / "vocabulary.json",
               json.dumps(space.to_dict(), sort_keys=True, indent=2) + "\n")
    print(f"wrote features for {len(matrix.segment_ids)} segment(s) to {out}")
    return 0


def cmd_train(args, config) -> int:
    with naming(args.features):
        matrix = features.read_feature_csv(read_text(args.features))
    # the space `gelid features` fixed; the config's features.* go unread
    with naming(args.vocabulary):
        space = features.FeatureSpace.from_dict(pipeline.read_json(
            args.vocabulary, features.SPACE_SHAPE))
    labels = pipeline.load_segment_labels(args.labels)
    bundle = pipeline.StageClock()("train", lambda: pipeline.train_bundle(
        matrix, labels, space, config))
    write_file(args.out, bundle.to_json() + "\n")
    print(f"trained {config.model_kind}; model at {args.out}")
    return 0


def _write_labels(out: Path, predictions: dict[str, str]) -> None:
    write_file(out / "labels.jsonl", "".join(
        json.dumps({"segment_id": sid, "label": predictions[sid]},
                   sort_keys=True) + "\n"
        for sid in sorted(predictions)))


def cmd_classify(args, config) -> int:
    bundle = pipeline.load_bundle(args.model)
    transcripts, tracks = _ingest(args, config)
    segments = pipeline.load_segments(args.segments, tracks)
    predictions = pipeline.StageClock()(
        "classify", lambda: pipeline.classify_segments(
            segments, transcripts, tracks, bundle))
    _write_labels(Path(args.out), predictions)
    print(f"classified {len(predictions)} segment(s)")
    return 0


def _read_labels_of(path: str, segments) -> dict[str, str]:
    """Segment labels of a labels.jsonl that labels every segment."""
    labels = pipeline.load_segment_labels(path)
    missing = [s.segment_id for s in segments if s.segment_id not in labels]
    if missing:
        raise DataError(f"labels file is missing segment(s): {missing[:5]}"
                        f"{'...' if len(missing) > 5 else ''}", path=path)
    return labels


def cmd_group(args, config) -> int:
    # contexts come from keyframes alone: no subtitle file is parsed
    timed = pipeline.StageClock()
    tracks = {e.video_id: pipeline.ingest_track(e, config, timed)
              for e in pipeline.load_manifest(args.manifest).videos}
    segments = pipeline.load_segments(args.segments, tracks)
    labels = _read_labels_of(args.labels, segments)
    assignment, _ = timed("group", lambda: pipeline.group_contexts(
        segments, labels, tracks, config))
    out = Path(args.out)
    write_file(out / "contexts.json", json.dumps(
        assignment.to_dict(), sort_keys=True, indent=2) + "\n")
    print(f"grouped {len(assignment.ids)} segment(s) into "
          f"{len(assignment.clusters())} context(s) "
          f"+ {len(assignment.noise())} noise")
    return 0


def cmd_cluster(args, config) -> int:
    # the whole bundle is read and checked before any source is parsed
    space = pipeline.load_bundle(args.model).space
    transcripts, tracks = _ingest(args, config)
    segments = pipeline.load_segments(args.segments, tracks)
    labels = _read_labels_of(args.labels, segments)
    hierarchy = pipeline.StageClock()(
        "cluster", lambda: pipeline.build_hierarchy(
            segments, labels, transcripts, tracks, config, space))
    out = Path(args.out)
    write_file(out / "hierarchy.json", pipeline.hierarchy_to_json(hierarchy))
    print(f"wrote hierarchy with {hierarchy['counts']['n_contexts']} "
          f"context(s) to {out / 'hierarchy.json'}")
    return 0


def cmd_run(args, config) -> int:
    manifest = pipeline.load_manifest(args.manifest)
    bundle = pipeline.load_bundle(args.model) if args.model else None
    result = pipeline.run_pipeline(manifest, config, bundle=bundle)
    out = Path(args.out)
    write_file(out / "segments.jsonl", write_segments_jsonl(result.segments))
    _write_labels(out, result.predictions)
    write_file(out / "hierarchy.json",
               pipeline.hierarchy_to_json(result.hierarchy))
    write_file(out / "model.json", result.bundle.to_json() + "\n")
    write_file(out / "run_report.json",
               json.dumps(result.run_report, sort_keys=True, indent=2) + "\n")
    pipeline.export_report(result.hierarchy, "html", out / "report.html")
    counts = result.hierarchy["counts"]
    print(f"run complete: {counts['n_segments']} segments, "
          f"{counts['n_informative']} informative, "
          f"{counts['n_contexts']} contexts -> {out}")
    return 0


def cmd_report(args) -> int:
    hierarchy = pipeline.read_json(args.hierarchy, pipeline.HIERARCHY_SHAPE)
    pipeline.export_report(hierarchy, args.format, args.out)
    print(f"wrote {args.format} report to {args.out}")
    return 0


# an id or a group: a string or a number
_LABEL = (str, float)
# a sample file: a JSON array of numbers
_SAMPLE = [float]


def _label_mapping(value) -> bool:
    """an object from ids to group labels, all strings or all numbers"""
    # were they mixed, 1 and "1" would name two groups
    return fits(value, {str: str}) or fits(value, {str: float})


def _ratings(value) -> bool:
    """a list of ratings, all strings or all numbers"""
    # were they mixed, 1 and "1" would be two categories
    return fits(value, [str]) or fits(value, [float])


_PARTITION = {"groups?": [[_LABEL]], "mapping?": _label_mapping}


def _partition_from_file(path: str) -> stats.Partition:
    """{"groups": [[id, ...], ...]} or {"mapping": {id: group, ...}}; by
    its groups if it has both."""
    with naming(path):
        obj = pipeline.read_json(path, _PARTITION)
        partition = (stats.Partition.from_groups(obj["groups"])
                     if "groups" in obj
                     else stats.Partition.from_mapping(obj.get("mapping", {})))
        if not partition.n_objects:
            raise DataError("expected 'groups' or 'mapping' with at least "
                            "one object")
    return partition


def _partitions(args) -> tuple[stats.Partition, stats.Partition]:
    return (_partition_from_file(args.partition_a),
            _partition_from_file(args.partition_b))


def _samples(args) -> tuple[list, list]:
    return (pipeline.read_json(args.x, _SAMPLE),
            pipeline.read_json(args.y, _SAMPLE))


def _mojofm(args) -> dict:
    a, b = _partitions(args)
    return {"mno": stats.mno(a, b), "max_mno": stats.max_mno(b),
            "mojofm": stats.mojo_fm(a, b)}


def _kappa(args) -> dict:
    x = pipeline.read_json(args.x, _ratings)
    y = pipeline.read_json(args.y, _ratings)
    if x and y and isinstance(x[0], str) != isinstance(y[0], str):
        raise DataError(f"ratings must be all strings or all numbers, as "
                        f"in {args.x}", path=args.y)
    return {"kappa": stats.cohens_kappa(x, y)}


# each statistic: the files it reads, the flags it cannot run without, and
# its result's fields; a stat that reads no file takes flags only, so its
# DataError is a usage error
_EVAL_STATS = {
    "mojofm": (("partition_a", "partition_b"), (), _mojofm),
    "mno": (("partition_a", "partition_b"), (),
            lambda args: {"mno": stats.mno(*_partitions(args))}),
    "kappa": (("x", "y"), (), _kappa),
    "mann-whitney": (("x", "y"), (), lambda args: asdict(
        stats.mann_whitney_u(*_samples(args)))),
    "cliffs-delta": (("x", "y"), (), lambda args: asdict(
        stats.cliffs_delta(*_samples(args)))),
    "bh": (("p",), (), lambda args: {"adjusted": stats.benjamini_hochberg(
        pipeline.read_json(args.p, _SAMPLE))}),
    "margin": ((), ("n",), lambda args: {
        "margin_of_error": stats.margin_of_error(args.n, args.confidence)}),
    "likert-std": ((), (), lambda args: asdict(stats.simulate_likert_std(
        args.sims, args.group_size, seed=args.sim_seed))),
    "power": ((), (), lambda args: asdict(stats.simulate_power(
        args.group_size, args.shift, args.sd, args.alpha, n_sims=args.sims,
        seed=args.sim_seed))),
    "atomicity": ((), (), lambda args: {
        "score": stats.atomicity_score(args.extras)}),
}


def cmd_eval(args) -> int:
    stat = args.stat
    files, flags, evaluate = _EVAL_STATS[stat]
    missing = [f"--{name.replace('_', '-')}" for name in files + flags
               if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"--stat {stat} needs {' and '.join(missing)}")
    try:
        fields = {"stat": stat, **evaluate(args)}
    except DataError as exc:
        if files:
            raise
        raise ConfigError(str(exc)) from None
    text = json.dumps(fields, sort_keys=True, indent=2) + "\n"
    if args.out:
        write_file(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _arg(*flags, **options) -> tuple:
    """One argument: its flags and its add_argument keywords."""
    return flags, options


# the arguments of every command that reads a manifest
_MANIFEST_STAGE = (
    _arg("--manifest", required=True, help="dataset manifest JSON"),
    _arg("--config", default=None, help="flat key=value run config"),
    _arg("--seed", type=int, default=None,
         help="seed override (mandatory somewhere)"),
    _arg("--out", required=True, help="output directory"),
)


def _commands() -> dict[str, tuple]:
    """Each command: its function, help line, the config sections it
    checks (none: it reads no config) and its arguments. Built per call,
    so that a `cmd_*` replaced on this module is the one a call runs."""
    return {
        "ingest": (cmd_ingest, "normalize subtitles and descriptors",
                   {"frames"}, *_MANIFEST_STAGE),
        "segment": (cmd_segment, "detect cut points and segments",
                    {"frames", "segmenter"}, *_MANIFEST_STAGE),
        "features": (cmd_features, "fit vocabulary and emit features",
                     {"frames", "features"}, *_MANIFEST_STAGE,
                     _arg("--segments", required=True,
                          help="segments.jsonl")),
        "train": (cmd_train, "train a classifier bundle", {"model", "train"},
                  _arg("--config", default=None),
                  _arg("--seed", type=int, default=None),
                  _arg("--features", required=True, help="features.csv"),
                  _arg("--vocabulary", required=True,
                       help="vocabulary.json: the feature space"),
                  _arg("--labels", required=True,
                       help="JSONL of {segment_id, label}"),
                  _arg("--out", required=True, help="model JSON path")),
        "classify": (cmd_classify, "label segments with a trained model",
                     {"frames"}, *_MANIFEST_STAGE,
                     _arg("--segments", required=True),
                     _arg("--model", required=True)),
        "group": (cmd_group, "cluster informative segments by context",
                  {"frames", "clustering"}, *_MANIFEST_STAGE,
                  _arg("--segments", required=True),
                  _arg("--labels", required=True)),
        "cluster": (cmd_cluster, "full hierarchy: contexts, categories, "
                                 "issue clusters",
                    {"frames", "clustering"}, *_MANIFEST_STAGE,
                    _arg("--segments", required=True),
                    _arg("--labels", required=True),
                    _arg("--model", required=True)),
        "run": (cmd_run, "all stages end to end", SECTIONS, *_MANIFEST_STAGE,
                _arg("--model", default=None, help="pretrained bundle JSON")),
        "report": (cmd_report, "render a hierarchy JSON", set(),
                   _arg("--hierarchy", required=True),
                   _arg("--format", choices=("json", "html"), default="html"),
                   _arg("--out", required=True)),
        "eval": (cmd_eval, "statistics harness", set(),
                 _arg("--stat", required=True, choices=tuple(_EVAL_STATS)),
                 _arg("--partition-a",
                      help="partition JSON (groups or mapping)"),
                 _arg("--partition-b",
                      help="partition JSON (groups or mapping)"),
                 _arg("--x", help="JSON array of values"),
                 _arg("--y", help="JSON array of values"),
                 _arg("--p", help="JSON array of p-values"),
                 _arg("--n", type=int, help="sample size (margin)"),
                 _arg("--confidence", type=float, default=0.95),
                 _arg("--group-size", type=int, default=200),
                 _arg("--shift", type=float, default=0.5),
                 _arg("--sd", type=float, default=1.41),
                 _arg("--alpha", type=float, default=0.05),
                 _arg("--sims", type=int, default=1000),
                 _arg("--sim-seed", type=int, default=0),
                 _arg("--extras", type=int, default=0),
                 _arg("--out", default=None)),
    }


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    commands = _commands()
    try:
        if argv and argv[0] in commands:
            func, _, sections, *arguments = commands[argv[0]]
            parser = _Parser(prog=f"gelid {argv[0]}")
            for flags, options in arguments:
                parser.add_argument(*flags, **options)
            args, unknown = parser.parse_known_args(argv[1:])
            if not unknown:
                return (func(args, load_config(args.config, args.seed,
                                               sections))
                        if sections else func(args))
            argv = argv[:1] + unknown  # the top level reports them
        # help or a usage error, by the top level: names and help lines
        parser = _Parser(prog="gelid", description="Mine gameplay-video "
                         "derivatives for issue reports.")
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (_, help, *_) in commands.items():
            sub.add_parser(name, help=help)
        parser.parse_args(argv)  # exits, or raises the usage error
    except GelidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:  # e.g. a simulation too large
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
