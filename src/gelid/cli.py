"""gelid command line: stage-by-stage artifacts or the whole pipeline.

Subcommands: ingest, segment, features, train, classify, group, cluster,
run, eval, report. Exit codes: 0 success, 1 usage/config error, 2
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
from .config import load_config
from .errors import ConfigError, DataError, GelidError, fits
from .frames import write_descriptor_csv
from .segmentation import write_segments_jsonl
from .subtitles import write_srt

log = logging.getLogger("gelid")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _ingest(args, config):
    return pipeline.ingest(pipeline.load_manifest(args.manifest), config)


def cmd_ingest(args) -> int:
    config = load_config(args.config, args.seed, stage=args.command)
    transcripts, tracks = _ingest(args, config)
    out = Path(args.out)
    for video_id, track in tracks.items():
        _write(out / f"{video_id}.srt", write_srt(transcripts[video_id]))
        _write(out / f"{video_id}.descriptors.csv",
               write_descriptor_csv(track))
    print(f"ingested {len(tracks)} video(s) into {out}")
    return 0


def cmd_segment(args) -> int:
    config = load_config(args.config, args.seed, stage=args.command)
    segments = pipeline.segment(*_ingest(args, config), config)
    out = Path(args.out)
    _write(out / "segments.jsonl", write_segments_jsonl(segments))
    print(f"wrote {len(segments)} segment(s) to {out / 'segments.jsonl'}")
    return 0


def cmd_features(args) -> int:
    config = load_config(args.config, args.seed, stage=args.command)
    transcripts, tracks = _ingest(args, config)
    segments = pipeline.load_segments(args.segments, tracks)
    space, matrix = pipeline.StageClock()(
        "features", lambda: pipeline.extract_features(
            segments, transcripts, tracks, config))
    out = Path(args.out)
    _write(out / "features.csv", features.write_feature_csv(matrix))
    _write(out / "vocabulary.json",
           json.dumps(space.to_dict(), sort_keys=True, indent=2) + "\n")
    print(f"wrote features for {len(matrix.segment_ids)} segment(s) to {out}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, args.seed, stage=args.command)
    matrix = features.read_feature_csv(pipeline.read_text(args.features),
                                       args.features)
    # the space `gelid features` fixed; the config's features.* go unread
    space_obj = pipeline.read_json(args.vocabulary, features.SPACE_SHAPE)
    try:
        space = features.FeatureSpace.from_dict(space_obj)
    except DataError as exc:
        raise DataError(f"{args.vocabulary}: {exc}") from None
    labels = pipeline.load_segment_labels(args.labels)
    bundle = pipeline.StageClock()("train", lambda: pipeline.train_bundle(
        matrix, labels, space, config))
    _write(Path(args.out), bundle.to_json() + "\n")
    print(f"trained {config.model_kind}; model at {args.out}")
    return 0


def _write_labels(out: Path, predictions: dict[str, str]) -> None:
    _write(out / "labels.jsonl", "".join(
        json.dumps({"segment_id": sid, "label": predictions[sid]},
                   sort_keys=True) + "\n"
        for sid in sorted(predictions)))


def cmd_classify(args) -> int:
    config = load_config(args.config, args.seed, stage=args.command)
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
        raise DataError(f"{path}: labels file is missing segment(s): "
                        f"{missing[:5]}{'...' if len(missing) > 5 else ''}")
    return labels


def cmd_group(args) -> int:
    config = load_config(args.config, args.seed, stage=args.command)
    _, tracks = _ingest(args, config)
    segments = pipeline.load_segments(args.segments, tracks)
    labels = _read_labels_of(args.labels, segments)
    assignment, _ = pipeline.StageClock()(
        "group", lambda: pipeline.group_contexts(segments, labels, tracks,
                                                 config))
    out = Path(args.out)
    _write(out / "contexts.json",
           json.dumps(assignment.to_dict(), sort_keys=True, indent=2) + "\n")
    print(f"grouped {len(assignment.ids)} segment(s) into "
          f"{len(assignment.clusters())} context(s) "
          f"+ {len(assignment.noise())} noise")
    return 0


def cmd_cluster(args) -> int:
    config = load_config(args.config, args.seed, stage=args.command)
    bundle = pipeline.load_bundle(args.model)
    transcripts, tracks = _ingest(args, config)
    segments = pipeline.load_segments(args.segments, tracks)
    labels = _read_labels_of(args.labels, segments)
    hierarchy = pipeline.StageClock()(
        "cluster", lambda: pipeline.build_hierarchy(
            segments, labels, transcripts, tracks, config, bundle))
    out = Path(args.out)
    _write(out / "hierarchy.json", pipeline.hierarchy_to_json(hierarchy))
    print(f"wrote hierarchy with {hierarchy['counts']['n_contexts']} "
          f"context(s) to {out / 'hierarchy.json'}")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config, args.seed, stage=args.command)
    manifest = pipeline.load_manifest(args.manifest)
    bundle = pipeline.load_bundle(args.model) if args.model else None
    result = pipeline.run_pipeline(manifest, config, bundle=bundle)
    out = Path(args.out)
    _write(out / "segments.jsonl", write_segments_jsonl(result.segments))
    _write_labels(out, result.predictions)
    _write(out / "hierarchy.json",
           pipeline.hierarchy_to_json(result.hierarchy))
    _write(out / "model.json", result.bundle.to_json() + "\n")
    _write(out / "run_report.json",
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
    obj = pipeline.read_json(path, _PARTITION)
    try:
        partition = (stats.Partition.from_groups(obj["groups"])
                     if "groups" in obj
                     else stats.Partition.from_mapping(obj.get("mapping", {})))
        if not partition.n_objects:
            raise DataError("expected 'groups' or 'mapping' with at least "
                            "one object")
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
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
        raise DataError(f"{args.y}: ratings must be all strings or all "
                        f"numbers, as in {args.x}")
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
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gelid",
                     description="Mine gameplay-video derivatives for "
                                 "issue reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--manifest", required=True,
                       help="dataset manifest JSON")
        p.add_argument("--config", default=None,
                       help="flat key=value run config")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (mandatory somewhere)")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("ingest", help="normalize subtitles and descriptors")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("segment", help="detect cut points and segments")
    common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("features", help="fit vocabulary and emit features")
    common(p)
    p.add_argument("--segments", required=True, help="segments.jsonl")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a classifier bundle")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--features", required=True, help="features.csv")
    p.add_argument("--vocabulary", required=True,
                   help="vocabulary.json: the feature space")
    p.add_argument("--labels", required=True,
                   help="JSONL of {segment_id, label}")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="label segments with a trained model")
    common(p)
    p.add_argument("--segments", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("group", help="cluster informative segments by context")
    common(p)
    p.add_argument("--segments", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("cluster", help="full hierarchy: contexts, categories, "
                                       "issue clusters")
    common(p)
    p.add_argument("--segments", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("run", help="all stages end to end")
    common(p)
    p.add_argument("--model", default=None, help="pretrained bundle JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="render a hierarchy JSON")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--format", choices=("json", "html"), default="html")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("eval", help="statistics harness")
    p.add_argument("--stat", required=True, choices=tuple(_EVAL_STATS))
    p.add_argument("--partition-a", help="partition JSON (groups or mapping)")
    p.add_argument("--partition-b", help="partition JSON (groups or mapping)")
    p.add_argument("--x", help="JSON array of values")
    p.add_argument("--y", help="JSON array of values")
    p.add_argument("--p", help="JSON array of p-values")
    p.add_argument("--n", type=int, help="sample size (margin)")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--group-size", type=int, default=200)
    p.add_argument("--shift", type=float, default=0.5)
    p.add_argument("--sd", type=float, default=1.41)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--sims", type=int, default=1000)
    p.add_argument("--sim-seed", type=int, default=0)
    p.add_argument("--extras", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except GelidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
