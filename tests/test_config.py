import re
from pathlib import Path

import pytest

from gelid.cli import build_parser
from gelid.config import (_FIELDS, STAGE_SECTIONS, RunConfig, load_config,
                          parse_config)
from gelid.errors import ConfigError


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, bool):  # a float's str is its repr
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def test_parse_minimal_config():
    cfg = parse_config("seed = 7\nsegmenter.k_seconds = 10\n")
    assert cfg.seed == 7
    assert cfg.k_seconds == 10


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("seed = 1\nsegmenter.k_second = 5\n")


def test_bad_value_reports_key_and_type():
    with pytest.raises(ConfigError, match="segmenter.alpha"):
        parse_config("segmenter.alpha = wide\n")


def test_comments_and_blank_lines_skipped():
    cfg = parse_config("# run settings\n\nseed = 3\n")
    assert cfg.seed == 3


def test_a_hash_after_whitespace_starts_a_comment():
    cfg = parse_config("seed = 3 # the seed\n  # indented\n"
                       "features.stopwords = a,b\t# c\n"
                       "train.labels_path = runs/#3/labels.jsonl\n")
    assert cfg.seed == 3
    assert cfg.stopword_set() == {"a", "b"}
    assert cfg.labels_path == "runs/#3/labels.jsonl"


def test_readme_config_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S)[1]
    cfg = parse_config(block)
    cfg.validate()
    assert (cfg.seed, cfg.k_seconds, cfg.model_kind, cfg.issue_alpha,
            cfg.labels_path) == (7, 5, "logistic_regression", 0.5,
                                 "labels.jsonl")


def test_config_with_a_byte_order_mark_loads(tmp_path):
    path = tmp_path / "c.conf"
    path.write_bytes(b"\xef\xbb\xbfseed = 7\nsegmenter.k_seconds = 10\n")
    cfg = load_config(str(path))
    assert (cfg.seed, cfg.k_seconds) == (7, 10)


def test_missing_equals_is_error():
    with pytest.raises(ConfigError):
        parse_config("seed 3\n")


def test_round_trip_identity():
    cfg = parse_config("seed = 11\nmodel.kind = random_forest\n"
                       "clustering.alpha = 0.75\ntrain.smote = false\n")
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


def test_seed_is_mandatory():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="seed"):
        cfg.validate()


def test_cli_seed_override(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("segmenter.k_seconds = 5\n")
    cfg = load_config(str(path), seed_override=42)
    assert cfg.seed == 42


@pytest.mark.parametrize("key", ["split.evaluation", "split.test"])
def test_split_keys_are_unknown(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"seed = 1\n{key} = 0.5\n")


def test_bad_model_kind_rejected():
    cfg = parse_config("seed = 1\nmodel.kind = svm\n")
    with pytest.raises(ConfigError, match="model.kind"):
        cfg.validate()


def test_bad_feature_group_rejected():
    cfg = parse_config("seed = 1\nfeatures.groups = text,audio\n")
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("groups", ["", " , ,"])
def test_feature_groups_naming_no_group_rejected(groups):
    cfg = parse_config(f"seed = 1\nfeatures.groups = {groups}\n")
    with pytest.raises(ConfigError, match="features.groups names no feature "
                       "group"):
        cfg.validate()


def test_model_hyper_by_kind():
    cfg = parse_config("seed = 1\nmodel.kind = random_forest\n"
                       "model.n_trees = 25\nmodel.max_depth = 4\n")
    assert cfg.model_hyper() == {"n_trees": 25, "min_leaf": 2, "max_depth": 4}
    cfg2 = parse_config("seed = 1\nmodel.kind = feedforward_net\n")
    assert cfg2.model_hyper()["learning_rate"] == 0.01


# every key with its default, in declaration order
DEFAULTS = "".join(f"{line}\n" for line in (
    "seed = 1",
    "segmenter.k_seconds = 5",
    "segmenter.alpha = 3.0",
    "segmenter.window = 24",
    "segmenter.min_shot_ms = 2000",
    "segmenter.min_segment_ms = 3000",
    "segmenter.silence_ms = 3000",
    "segmenter.gap_ms = 1500",
    "segmenter.max_keyframes = 10",
    "frames.bins_per_channel = 16",
    "features.ngram_max = 1",
    "features.min_df = 1",
    "features.stopwords = ",
    "features.embedding_path = ",
    "features.groups = text,video,speech",
    "model.kind = logistic_regression",
    "model.l2 = 0.0001",
    "model.iterations = 500",
    "model.learning_rate = 0.1",
    "model.n_trees = 100",
    "model.min_leaf = 2",
    "model.max_depth = 0",
    "model.hidden = 64",
    "model.epochs = 50",
    "model.batch_size = 32",
    "model.ffn_learning_rate = 0.01",
    "train.labels_path = ",
    "train.smote = true",
    "train.smote_k = 5",
    "clustering.context_algorithm = dbscan",
    "clustering.context_eps = 0.3",
    "clustering.context_min_pts = 3",
    "clustering.context_eps_max = 1.0",
    "clustering.context_eps_cut = 0.3",
    "clustering.context_bandwidth = 0.25",
    "clustering.issue_algorithm = dbscan",
    "clustering.issue_eps = 0.3",
    "clustering.issue_min_pts = 2",
    "clustering.issue_eps_max = 1.0",
    "clustering.issue_eps_cut = 0.3",
    "clustering.issue_bandwidth = 0.25",
    "clustering.alpha = 0.5",
))


def test_serialized_defaults_name_every_key_once():
    assert serialize_config(RunConfig(seed=1)) == DEFAULTS
    assert parse_config(DEFAULTS) == RunConfig(seed=1)


def test_unreadable_config_is_a_config_error(tmp_path):
    path = tmp_path / "c.conf"
    path.write_bytes(b"seed = 1\n# caf\xe9\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(path))


def test_boolean_parsing():
    assert parse_config("train.smote = false\n").smote is False
    assert parse_config("train.smote = TRUE\n").smote is True
    with pytest.raises(ConfigError):
        parse_config("train.smote = maybe\n")


# per section, a setting out of its range (or a failed cross-check) and the
# message it gives; the message names its key
_BAD_SECTIONS = {
    "frames": ("frames.bins_per_channel = 100", "frames.bins_per_channel"),
    "segmenter": ("segmenter.window = 0", "segmenter.window"),
    "features": ("features.ngram_max = 3", "features.ngram_max"),
    "model": ("model.n_trees = 0", "model.n_trees"),
    "train": ("train.smote_k = 0", "train.smote_k"),
    "clustering": ("clustering.issue_eps = 0", "clustering.issue_eps"),
    "features-groups": ("features.groups =",
                        "features.groups names no feature group"),
    "clustering-optics": ("clustering.context_algorithm = optics\n"
                          "clustering.context_eps_cut = 1.5",
                          "clustering.context: optics needs eps_cut"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SECTIONS))
@pytest.mark.parametrize("stage", [*sorted(STAGE_SECTIONS), "run", None])
def test_a_stage_checks_only_the_sections_it_reads(tmp_path, stage, case):
    line, message = _BAD_SECTIONS[case]
    path = tmp_path / "c.conf"
    path.write_text(f"seed = 1\n{line}\n")
    if stage in STAGE_SECTIONS and \
            case.partition("-")[0] not in STAGE_SECTIONS[stage]:
        assert load_config(str(path), stage=stage).seed == 1
    else:
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(str(path), stage=stage)
    path.write_text(f"{line}\n")
    with pytest.raises(ConfigError, match="seed is mandatory"):
        load_config(str(path), stage=stage)


def test_every_stage_subcommand_names_the_sections_it_reads():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    taking_config = {name for name, sub in subcommands.items()
                     if any("--config" in action.option_strings
                            for action in sub._actions)}
    assert set(STAGE_SECTIONS) == taking_config - {"run"}
    sections = {key.partition(".")[0] for key in _FIELDS}
    for stage, read in STAGE_SECTIONS.items():
        assert read <= sections, stage
