"""Flat `section.key = value` run configuration.

The format is deliberately language-neutral: one key per line, `#` comments,
no nesting. Unknown keys are hard errors so typos cannot silently fall back
to defaults. Every key can be overridden by an environment variable named
GELID_<KEY> with dots replaced by underscores, upper-cased
(e.g. GELID_SEGMENTER_K_SECONDS).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .clustering import CLUSTERERS
from .errors import ConfigError
from .features import FEATURE_GROUPS
from .frames import DEFAULT_BINS
from .models import (DEFAULT_HYPER, KIND_FFN, KIND_FOREST, KIND_LOGISTIC,
                     MODEL_KINDS)
from .segmentation import SegmenterConfig

ENV_PREFIX = "GELID_"


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# dotted key -> (attribute, type); defaults are the RunConfig fields
_KEY_SPEC: dict[str, tuple[str, type]] = {
    "seed": ("seed", int),
    "segmenter.k_seconds": ("k_seconds", int),
    "segmenter.alpha": ("alpha", float),
    "segmenter.window": ("window", int),
    "segmenter.min_shot_ms": ("min_shot_ms", int),
    "segmenter.min_segment_ms": ("min_segment_ms", int),
    "segmenter.silence_ms": ("silence_ms", int),
    "segmenter.gap_ms": ("gap_ms", int),
    "segmenter.max_keyframes": ("max_keyframes", int),
    "frames.bins_per_channel": ("bins_per_channel", int),
    "features.ngram_max": ("ngram_max", int),
    "features.min_df": ("min_df", int),
    "features.stopwords": ("stopwords", str),
    "features.embedding_path": ("embedding_path", str),
    "features.groups": ("feature_groups", str),
    "model.kind": ("model_kind", str),
    "model.l2": ("l2", float),
    "model.iterations": ("iterations", int),
    "model.learning_rate": ("learning_rate", float),
    "model.n_trees": ("n_trees", int),
    "model.min_leaf": ("min_leaf", int),
    "model.max_depth": ("max_depth", int),  # 0 means unlimited
    "model.hidden": ("hidden", int),
    "model.epochs": ("epochs", int),
    "model.batch_size": ("batch_size", int),
    "model.ffn_learning_rate": ("ffn_learning_rate", float),
    "train.labels_path": ("labels_path", str),
    "train.model_path": ("model_path", str),
    "train.smote": ("smote", bool),
    "train.smote_k": ("smote_k", int),
    "clustering.context_algorithm": ("context_algorithm", str),
    "clustering.context_eps": ("context_eps", float),
    "clustering.context_min_pts": ("context_min_pts", int),
    "clustering.context_eps_max": ("context_eps_max", float),
    "clustering.context_eps_cut": ("context_eps_cut", float),
    "clustering.context_bandwidth": ("context_bandwidth", float),
    "clustering.issue_algorithm": ("issue_algorithm", str),
    "clustering.issue_eps": ("issue_eps", float),
    "clustering.issue_min_pts": ("issue_min_pts", int),
    "clustering.issue_eps_max": ("issue_eps_max", float),
    "clustering.issue_eps_cut": ("issue_eps_cut", float),
    "clustering.issue_bandwidth": ("issue_bandwidth", float),
    "clustering.alpha": ("issue_alpha", float),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEY_SPEC.items()}
_LOGISTIC, _FOREST, _FFN = (DEFAULT_HYPER[kind]
                            for kind in (KIND_LOGISTIC, KIND_FOREST, KIND_FFN))


@dataclass
class RunConfig:
    """Every setting of a run. A default that a library module also
    applies is read from it; the clusterers take theirs from here."""

    seed: int | None = None
    k_seconds: int = SegmenterConfig.k_seconds
    alpha: float = SegmenterConfig.alpha
    window: int = SegmenterConfig.window
    min_shot_ms: int = SegmenterConfig.min_shot_ms
    min_segment_ms: int = SegmenterConfig.min_segment_ms
    silence_ms: int = SegmenterConfig.silence_ms
    gap_ms: int = SegmenterConfig.gap_ms
    max_keyframes: int = SegmenterConfig.max_keyframes
    bins_per_channel: int = DEFAULT_BINS
    ngram_max: int = 1
    min_df: int = 1
    stopwords: str = ""
    embedding_path: str = ""
    feature_groups: str = "text,video,speech"
    model_kind: str = KIND_LOGISTIC
    l2: float = _LOGISTIC["l2"]
    iterations: int = _LOGISTIC["iterations"]
    learning_rate: float = _LOGISTIC["learning_rate"]
    n_trees: int = _FOREST["n_trees"]
    min_leaf: int = _FOREST["min_leaf"]
    max_depth: int = _FOREST["max_depth"] or 0
    hidden: int = _FFN["hidden"]
    epochs: int = _FFN["epochs"]
    batch_size: int = _FFN["batch_size"]
    ffn_learning_rate: float = _FFN["learning_rate"]
    labels_path: str = ""
    model_path: str = ""
    smote: bool = True
    smote_k: int = 5
    context_algorithm: str = "dbscan"
    context_eps: float = 0.3
    context_min_pts: int = 3
    context_eps_max: float = 1.0
    context_eps_cut: float = 0.3
    context_bandwidth: float = 0.25
    issue_algorithm: str = "dbscan"
    issue_eps: float = 0.3
    issue_min_pts: int = 2
    issue_eps_max: float = 1.0
    issue_eps_cut: float = 0.3
    issue_bandwidth: float = 0.25
    issue_alpha: float = 0.5

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("seed is mandatory (set `seed = <u64>` in the "
                              "config, GELID_SEED, or --seed)")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not 0.0 <= self.issue_alpha <= 1.0:
            raise ConfigError("clustering.alpha must lie in [0, 1]")
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model.kind {self.model_kind!r}")
        for group in self.feature_group_list():
            if group not in FEATURE_GROUPS:
                raise ConfigError(f"unknown feature group {group!r}")
        for attr in ("context_algorithm", "issue_algorithm"):
            if getattr(self, attr) not in CLUSTERERS:
                raise ConfigError(f"unknown {_ATTR_TO_KEY[attr]} "
                                  f"{getattr(self, attr)!r}; expected one of "
                                  f"{', '.join(CLUSTERERS)}")
        try:
            self.segmenter_config().validate()
        except Exception as exc:
            raise ConfigError(str(exc)) from None

    def segmenter_config(self) -> SegmenterConfig:
        return SegmenterConfig(
            k_seconds=self.k_seconds, alpha=self.alpha, window=self.window,
            min_shot_ms=self.min_shot_ms, min_segment_ms=self.min_segment_ms,
            silence_ms=self.silence_ms, gap_ms=self.gap_ms,
            max_keyframes=self.max_keyframes)

    def feature_group_list(self) -> tuple[str, ...]:
        return tuple(g.strip() for g in self.feature_groups.split(",")
                     if g.strip())

    def stopword_set(self) -> frozenset[str]:
        return frozenset(w.strip() for w in self.stopwords.split(",")
                         if w.strip())

    def model_hyper(self) -> dict:
        if self.model_kind == "logistic_regression":
            return {"l2": self.l2, "iterations": self.iterations,
                    "learning_rate": self.learning_rate}
        if self.model_kind == "random_forest":
            return {"n_trees": self.n_trees, "min_leaf": self.min_leaf,
                    "max_depth": self.max_depth or None}
        return {"hidden": self.hidden, "epochs": self.epochs,
                "batch_size": self.batch_size,
                "learning_rate": self.ffn_learning_rate}

    def context_params(self) -> dict:
        if self.context_algorithm == "dbscan":
            return {"eps": self.context_eps, "min_pts": self.context_min_pts}
        if self.context_algorithm == "optics":
            return {"min_pts": self.context_min_pts,
                    "eps_max": self.context_eps_max,
                    "eps_cut": self.context_eps_cut}
        return {"bandwidth": self.context_bandwidth}

    def issue_params(self) -> dict:
        if self.issue_algorithm == "dbscan":
            return {"eps": self.issue_eps, "min_pts": self.issue_min_pts}
        if self.issue_algorithm == "optics":
            return {"min_pts": self.issue_min_pts,
                    "eps_max": self.issue_eps_max,
                    "eps_cut": self.issue_eps_cut}
        return {"bandwidth": self.issue_bandwidth}


def _convert(key: str, raw: str):
    _, typ = _KEY_SPEC[key]
    try:
        if typ is bool:
            return _parse_bool(raw)
        return typ(raw.strip())
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as "
                          f"{typ.__name__}") from None


def parse_config(text: str) -> RunConfig:
    """Parse the flat format; unknown keys are hard errors."""
    cfg = RunConfig()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {line_no}: expected "
                              f"'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEY_SPEC:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        setattr(cfg, _KEY_SPEC[key][0], _convert(key, raw))
    return cfg


def apply_env_overrides(cfg: RunConfig, environ=None) -> RunConfig:
    environ = os.environ if environ is None else environ
    for key, (attr, _) in _KEY_SPEC.items():
        env_name = ENV_PREFIX + key.replace(".", "_").upper()
        if env_name in environ:
            setattr(cfg, attr, _convert(key, environ[env_name]))
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{_ATTR_TO_KEY[f.name]} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path: str | None, environ=None,
                seed_override: int | None = None) -> RunConfig:
    """File -> env -> CLI seed override, then validation."""
    if path is None:
        cfg = RunConfig()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
    apply_env_overrides(cfg, environ)
    if seed_override is not None:
        cfg.seed = seed_override
    cfg.validate()
    return cfg
