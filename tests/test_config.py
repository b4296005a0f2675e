import pytest

from gelid.config import (RunConfig, apply_env_overrides, load_config,
                          parse_config, serialize_config)
from gelid.errors import ConfigError


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


def test_missing_equals_is_error():
    with pytest.raises(ConfigError):
        parse_config("seed 3\n")


def test_round_trip_identity():
    cfg = parse_config("seed = 11\nmodel.kind = random_forest\n"
                       "clustering.alpha = 0.75\ntrain.smote = false\n")
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


def test_env_override_wins_over_file():
    cfg = parse_config("seed = 1\nsegmenter.k_seconds = 0\n")
    apply_env_overrides(cfg, {"GELID_SEGMENTER_K_SECONDS": "10",
                              "GELID_SEED": "99"})
    assert cfg.k_seconds == 10
    assert cfg.seed == 99


def test_seed_is_mandatory():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="seed"):
        cfg.validate()


def test_cli_seed_override(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("segmenter.k_seconds = 5\n")
    cfg = load_config(str(path), environ={}, seed_override=42)
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


def test_model_hyper_by_kind():
    cfg = parse_config("seed = 1\nmodel.kind = random_forest\n"
                       "model.n_trees = 25\nmodel.max_depth = 4\n")
    assert cfg.model_hyper() == {"n_trees": 25, "min_leaf": 2, "max_depth": 4}
    cfg2 = parse_config("seed = 1\nmodel.kind = feedforward_net\n")
    assert cfg2.model_hyper()["learning_rate"] == 0.01


def test_boolean_parsing():
    assert parse_config("train.smote = false\n").smote is False
    assert parse_config("train.smote = TRUE\n").smote is True
    with pytest.raises(ConfigError):
        parse_config("train.smote = maybe\n")
