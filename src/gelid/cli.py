"""gelid command line: stage-by-stage artifacts or the whole pipeline.

Subcommands: ingest, segment, features, train, classify, group, cluster,
run, eval, report. Exit codes: 0 success, 1 usage/config error, 2
data/format error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from . import features, pipeline, stats
from .config import load_config
from .errors import ConfigError, DataError, GelidError
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
    config = load_config(args.config, seed_override=args.seed)
    transcripts, tracks = _ingest(args, config)
    out = Path(args.out)
    for video_id, track in tracks.items():
        _write(out / f"{video_id}.srt", write_srt(transcripts[video_id]))
        write_descriptor_csv(track, out / f"{video_id}.descriptors.csv")
    print(f"ingested {len(tracks)} video(s) into {out}")
    return 0


def cmd_segment(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    segments = pipeline.segment(*_ingest(args, config), config)
    out = Path(args.out)
    _write(out / "segments.jsonl", write_segments_jsonl(segments))
    print(f"wrote {len(segments)} segment(s) to {out / 'segments.jsonl'}")
    return 0


def cmd_features(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    transcripts, tracks = _ingest(args, config)
    segments = pipeline.load_segments(args.segments, tracks)
    vocab, matrix = pipeline.extract_features(segments, transcripts, tracks,
                                              config)
    out = Path(args.out)
    _write(out / "features.csv", features.write_feature_csv(matrix))
    _write(out / "vocabulary.json",
           json.dumps(vocab.to_dict(), sort_keys=True, indent=2) + "\n")
    print(f"wrote features for {len(matrix.segment_ids)} segment(s) to {out}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    matrix = features.read_feature_csv(pipeline.read_text(args.features),
                                       args.features)
    vocab_obj = pipeline.read_json(args.vocabulary)
    try:
        vocab = features.Vocabulary.from_dict(vocab_obj)
    except DataError as exc:
        raise DataError(f"vocabulary {args.vocabulary}: {exc}") from None
    bundle = pipeline.train_bundle(
        matrix, pipeline.load_segment_labels(args.labels), vocab, config)
    _write(Path(args.out), bundle.to_json() + "\n")
    print(f"trained {config.model_kind}; model at {args.out}")
    return 0


def _write_labels(out: Path, predictions: dict[str, str]) -> None:
    _write(out / "labels.jsonl", "".join(
        json.dumps({"segment_id": sid, "label": predictions[sid]},
                   sort_keys=True) + "\n"
        for sid in sorted(predictions)))


def cmd_classify(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    transcripts, tracks = _ingest(args, config)
    segments = pipeline.load_segments(args.segments, tracks)
    bundle = pipeline.load_bundle(args.model)
    predictions = pipeline.classify_segments(segments, transcripts, tracks,
                                             bundle)
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
    config = load_config(args.config, seed_override=args.seed)
    _, tracks = _ingest(args, config)
    segments = pipeline.load_segments(args.segments, tracks)
    assignment, _ = pipeline.group_contexts(
        segments, _read_labels_of(args.labels, segments), tracks, config)
    out = Path(args.out)
    _write(out / "contexts.json",
           json.dumps(assignment.to_dict(), sort_keys=True, indent=2) + "\n")
    print(f"grouped {len(assignment.ids)} segment(s) into "
          f"{len(assignment.clusters())} context(s) "
          f"+ {len(assignment.noise())} noise")
    return 0


def cmd_cluster(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    transcripts, tracks = _ingest(args, config)
    segments = pipeline.load_segments(args.segments, tracks)
    labels = _read_labels_of(args.labels, segments)
    bundle = pipeline.load_bundle(args.model)
    hierarchy = pipeline.build_hierarchy(segments, labels, transcripts,
                                         tracks, config, bundle)
    out = Path(args.out)
    _write(out / "hierarchy.json", pipeline.hierarchy_to_json(hierarchy))
    print(f"wrote hierarchy with {hierarchy['counts']['n_contexts']} "
          f"context(s) to {out / 'hierarchy.json'}")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    if args.model:
        config.model_path = args.model
    result = pipeline.run_pipeline(pipeline.load_manifest(args.manifest),
                                   config)
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


# each level below a hierarchy's contexts: the key every node of the level
# has, and the list of its children
_HIERARCHY_LEVELS = (("context_id", "categories"), ("label", "clusters"),
                     ("cluster_id", "members"))


def _check_nodes(path: str, nodes: list, level: int = 0) -> None:
    """A DataError naming `path` at the first context, category or cluster
    in `nodes`, or below them, that a report cannot render."""
    key, children = _HIERARCHY_LEVELS[level]
    for node in nodes:
        summary = node.get("summary", {}) if isinstance(node, dict) else None
        if not (isinstance(summary, dict) and key in node
                and isinstance(node.get(children), list)
                and isinstance(summary.get("label_distribution", {}), dict)):
            raise DataError(f"{path}: expected an object with {key!r} and a "
                            f"list of {children!r}, got "
                            f"{json.dumps(node)[:80]}")
        if level + 1 < len(_HIERARCHY_LEVELS):
            _check_nodes(path, node[children], level + 1)


def cmd_report(args) -> int:
    hierarchy = pipeline.read_json(args.hierarchy)
    version = pipeline.HIERARCHY_SCHEMA_VERSION
    if not (isinstance(hierarchy, dict) and isinstance(
            hierarchy.get("contexts"), list)
            and isinstance(hierarchy.get("counts", {}), dict)
            and hierarchy.get("schema_version") == version):
        raise DataError(f"{args.hierarchy}: not a hierarchy (an object with "
                        f"schema_version {version} and a list of contexts)")
    _check_nodes(args.hierarchy, hierarchy["contexts"])
    pipeline.export_report(hierarchy, args.format, args.out)
    print(f"wrote {args.format} report to {args.out}")
    return 0


def _finite(value) -> bool:
    """A JSON number that is neither NaN nor infinite."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or a huge integer
        return False


def _label(value) -> bool:
    """An id or a category: a string or a finite number."""
    return isinstance(value, str) or _finite(value)


def _read_sample(path: str, ratings: bool = False) -> list:
    """A JSON array of finite numbers; ratings may also be strings."""
    obj = pipeline.read_json(path)
    if not isinstance(obj, list) \
            or not all(map(_label if ratings else _finite, obj)):
        raise DataError(f"{path}: expected a JSON array of "
                        + ("strings or " if ratings else "") + "finite numbers")
    return obj


def _partition_from_file(path: str) -> stats.Partition:
    """{"groups": [[id, ...], ...]} or {"mapping": {id: group, ...}}."""
    obj = pipeline.read_json(path)
    obj = obj if isinstance(obj, dict) else {}
    groups, mapping = obj.get("groups"), obj.get("mapping")
    try:
        if isinstance(groups, list) and groups and all(
                isinstance(g, list) and all(map(_label, g)) for g in groups):
            return stats.Partition.from_groups(groups)
        if isinstance(mapping, dict) and mapping \
                and all(map(_label, mapping.values())):
            return stats.Partition.from_mapping(mapping)
        raise DataError("expected an object with 'groups', a non-empty list "
                        "of lists of ids, or 'mapping', a non-empty object "
                        "of group labels")
    except DataError as exc:
        raise DataError(f"partition {path}: {exc}") from None


# the input flags each statistic reads
_EVAL_INPUTS = {"mojofm": ("partition_a", "partition_b"),
                "mno": ("partition_a", "partition_b"),
                "kappa": ("x", "y"), "mann-whitney": ("x", "y"),
                "cliffs-delta": ("x", "y"), "bh": ("p",), "margin": ("n",)}


def cmd_eval(args) -> int:
    stat = args.stat
    missing = [f"--{name.replace('_', '-')}"
               for name in _EVAL_INPUTS.get(stat, ())
               if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"--stat {stat} needs {' and '.join(missing)}")
    if stat in ("mojofm", "mno"):
        a = _partition_from_file(args.partition_a)
        b = _partition_from_file(args.partition_b)
        result = {"stat": stat, "mno": stats.mno(a, b)}
        if stat == "mojofm":
            result.update(max_mno=stats.max_mno(b),
                          mojofm=stats.mojo_fm(a, b))
    elif stat == "kappa":
        result = {"stat": stat, "kappa": stats.cohens_kappa(
            _read_sample(args.x, True), _read_sample(args.y, True))}
    elif stat == "mann-whitney":
        r = stats.mann_whitney_u(_read_sample(args.x), _read_sample(args.y))
        result = {"stat": stat, "u": r.u, "p_value": r.p_value,
                  "exact": r.exact}
    elif stat == "cliffs-delta":
        r = stats.cliffs_delta(_read_sample(args.x), _read_sample(args.y))
        result = {"stat": stat, "delta": r.delta, "magnitude": r.magnitude}
    elif stat == "bh":
        result = {"stat": stat,
                  "adjusted": stats.benjamini_hochberg(
                      _read_sample(args.p))}
    elif stat == "margin":
        result = {"stat": stat,
                  "margin_of_error": stats.margin_of_error(args.n,
                                                           args.confidence)}
    elif stat == "likert-std":
        r = stats.simulate_likert_std(args.sims, args.group_size,
                                      seed=args.sim_seed)
        result = {"stat": stat, "min": r.min, "max": r.max, "mean": r.mean}
    elif stat == "power":
        r = stats.simulate_power(args.group_size, args.shift, args.sd,
                                 args.alpha, n_sims=args.sims,
                                 seed=args.sim_seed)
        result = {"stat": stat, "power": r.power,
                  "power_mann_whitney": r.power_mann_whitney,
                  "n_sims": r.n_sims}
    elif stat == "atomicity":
        result = {"stat": stat, "score": stats.atomicity_score(args.extras)}
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown stat {stat!r}")
    text = json.dumps(result, sort_keys=True, indent=2) + "\n"
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
    p.add_argument("--vocabulary", required=True, help="vocabulary.json")
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
    p.add_argument("--stat", required=True,
                   choices=("mojofm", "mno", "kappa", "mann-whitney",
                            "cliffs-delta", "bh", "margin", "likert-std",
                            "power", "atomicity"))
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
