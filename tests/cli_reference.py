"""The `gelid` parser as one argparse tree: a top level whose subparsers
each hold every argument of their command.

`gelid.cli.main` builds the top level with names and help lines only, or
one command's parser alone. The tests hold its help, usage and usage
errors to this tree's, byte for byte.
"""

import argparse
import sys

from gelid import cli
from gelid.errors import ConfigError


def _arg(*flags, **options) -> tuple:
    return flags, options


_MANIFEST_STAGE = (
    _arg("--manifest", required=True, help="dataset manifest JSON"),
    _arg("--config", default=None, help="flat key=value run config"),
    _arg("--seed", type=int, default=None,
         help="seed override (mandatory somewhere)"),
    _arg("--out", required=True, help="output directory"),
)


def reference_parser() -> argparse.ArgumentParser:
    """Every command with every one of its arguments."""
    parser = cli._Parser(prog="gelid",
                         description="Mine gameplay-video derivatives for "
                                     "issue reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, *arguments):
        p = sub.add_parser(name, help=help)
        for flags, options in arguments:
            p.add_argument(*flags, **options)

    add("ingest", "normalize subtitles and descriptors", *_MANIFEST_STAGE)
    add("segment", "detect cut points and segments", *_MANIFEST_STAGE)
    add("features", "fit vocabulary and emit features", *_MANIFEST_STAGE,
        _arg("--segments", required=True, help="segments.jsonl"))
    add("train", "train a classifier bundle",
        _arg("--config", default=None),
        _arg("--seed", type=int, default=None),
        _arg("--features", required=True, help="features.csv"),
        _arg("--vocabulary", required=True,
             help="vocabulary.json: the feature space"),
        _arg("--labels", required=True, help="JSONL of {segment_id, label}"),
        _arg("--out", required=True, help="model JSON path"))
    add("classify", "label segments with a trained model",
        *_MANIFEST_STAGE, _arg("--segments", required=True),
        _arg("--model", required=True))
    add("group", "cluster informative segments by context",
        *_MANIFEST_STAGE, _arg("--segments", required=True),
        _arg("--labels", required=True))
    add("cluster", "full hierarchy: contexts, categories, issue clusters",
        *_MANIFEST_STAGE, _arg("--segments", required=True),
        _arg("--labels", required=True), _arg("--model", required=True))
    add("run", "all stages end to end", *_MANIFEST_STAGE,
        _arg("--model", default=None, help="pretrained bundle JSON"))
    add("report", "render a hierarchy JSON",
        _arg("--hierarchy", required=True),
        _arg("--format", choices=("json", "html"), default="html"),
        _arg("--out", required=True))
    add("eval", "statistics harness",
        _arg("--stat", required=True,
             choices=("mojofm", "mno", "kappa", "mann-whitney",
                      "cliffs-delta", "bh", "margin", "likert-std", "power",
                      "atomicity")),
        _arg("--partition-a", help="partition JSON (groups or mapping)"),
        _arg("--partition-b", help="partition JSON (groups or mapping)"),
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
        _arg("--out", default=None))
    return parser


def reference_commands() -> dict[str, argparse.ArgumentParser]:
    """The reference tree's parser of each command, by name."""
    return reference_parser()._subparsers._group_actions[0].choices


def reference_parse(argv) -> int | None:
    """Parse `argv` as `main` did: the exit code of help (0) or of a usage
    error (1, its message printed as `main` prints it); None when `argv`
    parses."""
    try:
        reference_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return None
