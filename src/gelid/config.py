"""Flat `section.key = value` run configuration.

The format is deliberately language-neutral: one key per line, no nesting.
A `#` that starts a line or follows whitespace starts a comment; one inside
a value (`runs/#3/x`) stays in it. Unknown keys are hard errors so typos
cannot silently fall back to defaults. The config file is the only way to
set a key; the CLI's `--seed` alone overrides one. A stage subcommand
checks only the sections it reads (`STAGE_SECTIONS`), `run` all of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .clustering import CLUSTERERS, blend_weight, check_params
from .errors import ConfigError, DataError, check_shape, positive_int
from .features import FEATURE_GROUPS, NGRAM_MAX
from .frames import DEFAULT_BINS, histogram_bins
from .models import (DEFAULT_HYPER, HYPER_SHAPES, KIND_FFN, KIND_FOREST,
                     KIND_LOGISTIC, MODEL_KINDS)
from .segmentation import SEGMENTER_SHAPE, SegmenterConfig


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _setting(key: str, default):
    """A RunConfig field that the config file sets as `key`."""
    return field(default=default, metadata={"key": key})


_LOGISTIC, _FOREST, _FFN = (DEFAULT_HYPER[kind]
                            for kind in (KIND_LOGISTIC, KIND_FOREST, KIND_FFN))


@dataclass
class RunConfig:
    """Every setting of a run: its config key, type and default. A default
    that a library module also applies is read from it; the clusterers
    take theirs from here."""

    seed: int | None = _setting("seed", None)
    k_seconds: int = _setting("segmenter.k_seconds", SegmenterConfig.k_seconds)
    alpha: float = _setting("segmenter.alpha", SegmenterConfig.alpha)
    window: int = _setting("segmenter.window", SegmenterConfig.window)
    min_shot_ms: int = _setting("segmenter.min_shot_ms",
                                SegmenterConfig.min_shot_ms)
    min_segment_ms: int = _setting("segmenter.min_segment_ms",
                                   SegmenterConfig.min_segment_ms)
    silence_ms: int = _setting("segmenter.silence_ms",
                               SegmenterConfig.silence_ms)
    gap_ms: int = _setting("segmenter.gap_ms", SegmenterConfig.gap_ms)
    max_keyframes: int = _setting("segmenter.max_keyframes",
                                  SegmenterConfig.max_keyframes)
    bins_per_channel: int = _setting("frames.bins_per_channel", DEFAULT_BINS)
    ngram_max: int = _setting("features.ngram_max", 1)
    min_df: int = _setting("features.min_df", 1)
    stopwords: str = _setting("features.stopwords", "")
    embedding_path: str = _setting("features.embedding_path", "")
    feature_groups: str = _setting("features.groups", "text,video,speech")
    model_kind: str = _setting("model.kind", KIND_LOGISTIC)
    l2: float = _setting("model.l2", _LOGISTIC["l2"])
    iterations: int = _setting("model.iterations", _LOGISTIC["iterations"])
    learning_rate: float = _setting("model.learning_rate",
                                    _LOGISTIC["learning_rate"])
    n_trees: int = _setting("model.n_trees", _FOREST["n_trees"])
    min_leaf: int = _setting("model.min_leaf", _FOREST["min_leaf"])
    # 0 means unlimited
    max_depth: int = _setting("model.max_depth", _FOREST["max_depth"] or 0)
    hidden: int = _setting("model.hidden", _FFN["hidden"])
    epochs: int = _setting("model.epochs", _FFN["epochs"])
    batch_size: int = _setting("model.batch_size", _FFN["batch_size"])
    ffn_learning_rate: float = _setting("model.ffn_learning_rate",
                                        _FFN["learning_rate"])
    labels_path: str = _setting("train.labels_path", "")
    smote: bool = _setting("train.smote", True)
    smote_k: int = _setting("train.smote_k", 5)
    context_algorithm: str = _setting("clustering.context_algorithm", "dbscan")
    context_eps: float = _setting("clustering.context_eps", 0.3)
    context_min_pts: int = _setting("clustering.context_min_pts", 3)
    context_eps_max: float = _setting("clustering.context_eps_max", 1.0)
    context_eps_cut: float = _setting("clustering.context_eps_cut", 0.3)
    context_bandwidth: float = _setting("clustering.context_bandwidth", 0.25)
    issue_algorithm: str = _setting("clustering.issue_algorithm", "dbscan")
    issue_eps: float = _setting("clustering.issue_eps", 0.3)
    issue_min_pts: int = _setting("clustering.issue_min_pts", 2)
    issue_eps_max: float = _setting("clustering.issue_eps_max", 1.0)
    issue_eps_cut: float = _setting("clustering.issue_eps_cut", 0.3)
    issue_bandwidth: float = _setting("clustering.issue_bandwidth", 0.25)
    issue_alpha: float = _setting("clustering.alpha", 0.5)

    def validate(self, stage: str | None = None) -> None:
        """The seed, then the ranges and cross-checks of the sections
        `stage` reads (`STAGE_SECTIONS`), or of all of them."""
        if self.seed is None:
            raise ConfigError("seed is mandatory (set `seed = <u64>` in the "
                              "config, or pass --seed)")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        sections = STAGE_SECTIONS.get(stage, _SECTIONS)
        try:  # each module that takes a setting holds its range
            for key, shape in _SHAPES.items():
                if key.partition(".")[0] in sections:
                    check_shape(getattr(self, _FIELDS[key].name), shape, key)
            if "features" in sections:
                self._check_feature_groups()
            for which in _STAGES if "clustering" in sections else ():
                check_params(getattr(self, f"{which}_algorithm"),
                             self.cluster_params(which), f"clustering.{which}")
        except DataError as exc:
            raise ConfigError(str(exc)) from None

    def _check_feature_groups(self) -> None:
        groups = self.feature_group_list()
        check_shape(list(groups), [set(FEATURE_GROUPS)], "features.groups")
        if not groups:
            raise ConfigError("features.groups names no feature group")
        if "embedding" in groups and not self.embedding_path:
            raise ConfigError("features.groups names embedding but "
                              "features.embedding_path is not set")

    def segmenter_config(self) -> SegmenterConfig:
        return SegmenterConfig(**{f.name: getattr(self, f.name)
                                  for f in fields(SegmenterConfig)})

    def feature_group_list(self) -> tuple[str, ...]:
        return tuple(g.strip() for g in self.feature_groups.split(",")
                     if g.strip())

    def stopword_set(self) -> frozenset[str]:
        return frozenset(w.strip() for w in self.stopwords.split(",")
                         if w.strip())

    def model_hyper(self) -> dict:
        if self.model_kind == KIND_LOGISTIC:
            return {"l2": self.l2, "iterations": self.iterations,
                    "learning_rate": self.learning_rate}
        if self.model_kind == KIND_FOREST:
            return {"n_trees": self.n_trees, "min_leaf": self.min_leaf,
                    "max_depth": self.max_depth or None}
        return {"hidden": self.hidden, "epochs": self.epochs,
                "batch_size": self.batch_size,
                "learning_rate": self.ffn_learning_rate}

    def cluster_params(self, stage: str) -> dict:
        """The parameters of the `stage` ("context" or "issue") clusterer:
        `<stage>_<name>` for each parameter name of its algorithm."""
        return {name: getattr(self, f"{stage}_{name}")
                for name in CLUSTERERS[getattr(self, f"{stage}_algorithm")]}


_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}
_SECTIONS = {key.partition(".")[0] for key in _FIELDS}
# the sections (a key's part before its dot) each stage subcommand reads
STAGE_SECTIONS = {
    "ingest": {"frames"}, "segment": {"frames", "segmenter"},
    "features": {"frames", "features"}, "train": {"model", "train"},
    "classify": {"frames"}, "group": {"frames", "clustering"},
    "cluster": {"frames", "clustering"}}
_STAGES = ("context", "issue")
# the range of each setting that has one, as a shape (see `check_shape`);
# model.learning_rate is logistic's
_SHAPES = {
    **{f"segmenter.{name}": shape for name, shape in SEGMENTER_SHAPE.items()},
    "model.kind": set(MODEL_KINDS),
    **{f"model.{name}": shape for kind in reversed(MODEL_KINDS)
       for name, shape in HYPER_SHAPES[kind].items()},
    "model.ffn_learning_rate": HYPER_SHAPES[KIND_FFN]["learning_rate"],
    "frames.bins_per_channel": histogram_bins, "features.ngram_max": NGRAM_MAX,
    "features.min_df": positive_int, "train.smote_k": positive_int,
    **{f"clustering.{stage}_algorithm": set(CLUSTERERS) for stage in _STAGES},
    **{f"clustering.{stage}_{name}": shape for stage in _STAGES
       for params in CLUSTERERS.values() for name, shape in params.items()},
    "clustering.alpha": blend_weight}
# a field's annotation -> its parser; a bool reads true/false and friends
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}
_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_config(text: str) -> RunConfig:
    """Parse the flat format; unknown keys are hard errors."""
    cfg = RunConfig()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.sub("", line).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {line_no}: expected "
                              f"'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        type_name = _FIELDS[key].type.removesuffix(" | None")
        try:
            value = _PARSERS[type_name](raw.strip())
        except ValueError:
            raise ConfigError(f"config key {key}: cannot parse {raw!r} as "
                              f"{type_name}") from None
        setattr(cfg, _FIELDS[key].name, value)
    return cfg


def load_config(path: str | None, seed_override: int | None = None,
                stage: str | None = None) -> RunConfig:
    """The config file (defaults without one; a byte-order mark is
    skipped), then the CLI seed override, then validation for `stage`."""
    try:  # UnicodeDecodeError is a ValueError
        text = ("" if path is None
                else Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config(text)
    if seed_override is not None:
        cfg.seed = seed_override
    cfg.validate(stage)
    return cfg
