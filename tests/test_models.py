import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gelid import models
from gelid.errors import DataError
from gelid.models import (DEFAULT_HYPER, KIND_FFN, KIND_FOREST, KIND_LOGISTIC,
                          LABEL_ORDER, MODEL_KINDS, NON_INFORMATIVE,
                          ffn_shapes, model_from_dict, model_to_dict,
                          predict, predict_proba, train)
from gelid.stats import mann_whitney_u
from test_kernel_references import (ffn_loss_and_grad, ffn_pack,
                                    logistic_loss_and_grad)


def _blobs(n_per_class=8, spread=0.15, seed=0, d=4):
    """Linearly separable 5-class blobs with a wide margin."""
    rng = np.random.default_rng(seed)
    centers = np.eye(len(LABEL_ORDER), d) * 10.0
    rows, labels = [], []
    for c, name in enumerate(LABEL_ORDER):
        rows.append(centers[c] + rng.normal(0, spread, size=(n_per_class, d)))
        labels += [name] * n_per_class
    return np.vstack(rows), np.array(labels)


def test_label_order_fixed_and_five():
    assert LABEL_ORDER == ("NonInformative", "Logic", "Presentation",
                           "Balance", "Performance")
    assert NON_INFORMATIVE == LABEL_ORDER[0]


# --- gradient checks ---------------------------------------------------------

def _central_difference(fn, x0, eps=1e-6):
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        bump = np.zeros_like(x0)
        bump.flat[i] = eps
        grad.flat[i] = (fn(x0 + bump) - fn(x0 - bump)) / (2 * eps)
    return grad


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n, d = int(rng.integers(3, 8)), int(rng.integers(2, 5))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 5, size=n)
        wb = rng.normal(scale=0.5, size=(d + 1, 5))
        l2 = 10.0 ** rng.uniform(-5, -2)
        _, analytic = logistic_loss_and_grad(wb, x, y, l2)
        numeric = _central_difference(
            lambda flat: logistic_loss_and_grad(
                flat.reshape(d + 1, 5), x, y, l2)[0], wb.ravel())
        denom = np.maximum(np.abs(analytic.ravel()) + np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic.ravel() - numeric) / denom) < 1e-4


def test_ffn_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n, d, h = int(rng.integers(3, 7)), int(rng.integers(2, 5)), 6
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 5, size=n)
        shapes = ffn_shapes(d, h)
        flat = ffn_pack([rng.normal(scale=0.4, size=s) for s in shapes])
        _, analytic = ffn_loss_and_grad(flat, shapes, x, y)
        numeric = _central_difference(
            lambda f: ffn_loss_and_grad(f, shapes, x, y)[0], flat)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


# --- training ------------------------------------------------------------------

def test_logistic_separable_blobs_reach_perfect_training_accuracy():
    x, y = _blobs()
    model = train(KIND_LOGISTIC, x, y, seed=1)
    assert predict(model, x) == list(y)


def test_forest_depth_zero_is_majority_class_predictor():
    x, y = _blobs(n_per_class=4)
    y = y.copy()
    y[:12] = "Logic"  # make Logic the clear majority
    model = train(KIND_FOREST, x, y,
                  hyper={"n_trees": 1, "max_depth": 0}, seed=0)
    assert set(predict(model, x)) == {"Logic"}


def test_training_is_deterministic_per_seed():
    x, y = _blobs(n_per_class=5, seed=3)
    for kind in MODEL_KINDS:
        m1 = train(kind, x, y, seed=42)
        m2 = train(kind, x, y, seed=42)
        assert model_to_dict(m1) == model_to_dict(m2)


_TRAIN_AT_BENCHMARK_SHAPES = """\
import hashlib
import numpy as np
from gelid.models import (DEFAULT_HYPER, KIND_LOGISTIC, N_LABELS,
                          _train_logistic)
for n, d in ((250, 341), (510, 106)):
    rng = np.random.default_rng(n * d)
    x = rng.normal(size=(n, d))
    y_idx = rng.integers(0, N_LABELS, size=n)
    hyper = dict(DEFAULT_HYPER[KIND_LOGISTIC], iterations=50)
    fit = _train_logistic(x, y_idx, hyper, seed=0)
    print(hashlib.sha256(fit["weights"].tobytes()
                         + fit["bias"].tobytes()).hexdigest())
"""


def test_logistic_weights_do_not_depend_on_blas_threads():
    """At the catalog and longplay training shapes (250 x 341, 510 x 106)
    the weights are the same bytes under one BLAS thread and under two;
    larger matrices are not (ROADMAP item 1). In subprocesses, as a BLAS
    reads its thread count when it loads."""
    src = str(Path(models.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", _TRAIN_AT_BENCHMARK_SHAPES],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


def test_single_class_training_is_error():
    x = np.zeros((4, 2))
    y = np.array(["Logic"] * 4)
    with pytest.raises(DataError):
        train(KIND_LOGISTIC, x, y, seed=0)


def test_nan_feature_is_error():
    x = np.array([[0.0, np.nan], [1.0, 2.0]])
    y = np.array(["Logic", "Balance"])
    with pytest.raises(DataError):
        train(KIND_LOGISTIC, x, y, seed=0)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("column", [[1e308] * 4, [1e308, -1e308] * 2],
                         ids=["mean_overflows", "std_overflows"])
def test_feature_too_large_to_standardize_is_error(kind, column):
    x = np.column_stack([np.arange(4.0), column])
    y = np.array(["Logic", "Balance"] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^feature 'big' is too large"):
            train(kind, x, y, seed=0, feature_names=("small", "big"))


def test_feature_name_count_is_checked_before_training():
    x, y = _blobs()
    with mock.patch("gelid.models._train_logistic") as fit:
        with pytest.raises(DataError, match="3 feature names for 4 columns"):
            train(KIND_LOGISTIC, x, y, seed=0, feature_names=("a", "b", "c"))
    fit.assert_not_called()


def test_unknown_label_is_error():
    x = np.zeros((2, 2))
    with pytest.raises(DataError):
        train(KIND_LOGISTIC, x, np.array(["Logic", "Gameplay"]), seed=0)


def test_unknown_hyper_key_is_error():
    x, y = _blobs(n_per_class=3)
    with pytest.raises(DataError):
        train(KIND_LOGISTIC, x, y, hyper={"momentum": 0.9}, seed=0)


# --- prediction ------------------------------------------------------------------

def test_zero_weight_logistic_gives_uniform_probabilities():
    x, y = _blobs(n_per_class=3)
    model = train(KIND_LOGISTIC, x, y,
                  hyper={"iterations": 0}, seed=0)  # stays at zero init
    probs = predict_proba(model, x[:2])
    assert np.allclose(probs, 0.2)


def test_probabilities_sum_to_one():
    x, y = _blobs(n_per_class=4, seed=9)
    for kind in MODEL_KINDS:
        model = train(kind, x, y, seed=5)
        probs = predict_proba(model, x)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_unanimous_forest_gives_probability_one():
    leaf = {"leaf": [0.0, 1.0, 0.0, 0.0, 0.0]}
    model = model_from_dict({
        "schema_version": 1, "kind": KIND_FOREST,
        "feature_names": ["f0", "f1"], "label_order": list(LABEL_ORDER),
        "standardization": {"mean": [0.0, 0.0], "std": [1.0, 1.0]},
        "hyper": dict(DEFAULT_HYPER[KIND_FOREST]),
        "parameters": {"trees": [leaf, leaf, leaf]}})
    probs = predict_proba(model, np.array([[0.3, -0.7]]))
    assert probs[0, 1] == 1.0
    assert predict(model, np.array([[0.3, -0.7]])) == ["Logic"]


def test_feature_name_mismatch_is_error():
    x, y = _blobs(n_per_class=3)
    model = train(KIND_LOGISTIC, x, y,
                  feature_names=[f"f{i}" for i in range(x.shape[1])], seed=0)
    with pytest.raises(DataError):
        predict_proba(model, x, feature_names=["a", "b", "c", "d"])


def test_dimension_mismatch_is_error():
    x, y = _blobs(n_per_class=3)
    model = train(KIND_LOGISTIC, x, y, seed=0)
    with pytest.raises(DataError):
        predict_proba(model, x[:, :2])


def test_irrelevant_feature_perturbation_leaves_logistic_output_unchanged():
    x, y = _blobs(n_per_class=4, seed=6)
    padded = np.hstack([x, np.full((x.shape[0], 1), 2.5)])  # constant column
    model = train(KIND_LOGISTIC, padded, y, seed=0)
    probe = padded[:3].copy()
    base = predict_proba(model, probe)
    probe[:, -1] += 100.0  # constant column trains to zero weight
    assert np.allclose(predict_proba(model, probe), base, atol=1e-9)


def test_standardization_absorbs_affine_feature_rescaling():
    x, y = _blobs(n_per_class=5, seed=13)
    rescaled = x.copy()
    rescaled[:, 1] = rescaled[:, 1] * 37.0 + 4.0
    m1 = train(KIND_LOGISTIC, x, y, seed=0)
    m2 = train(KIND_LOGISTIC, rescaled, y, seed=0)
    probe = x[:7]
    probe_rescaled = probe.copy()
    probe_rescaled[:, 1] = probe_rescaled[:, 1] * 37.0 + 4.0
    assert np.allclose(predict_proba(m1, probe),
                       predict_proba(m2, probe_rescaled), atol=1e-6)


# --- AUC as U / (n+ * n-) ------------------------------------------------------
# A class's one-vs-rest AUC is the share of (positive, negative) pairs the
# positive's score wins, a tie worth half: U / (n+ * n-).


def _pair_auc(pos, neg):
    """Wins plus half of ties over every (positive, negative) pair."""
    pairs = [(p > n) + 0.5 * (p == n) for p in pos for n in neg]
    return sum(pairs) / len(pairs)


def _u_auc(pos, neg):
    return mann_whitney_u(pos, neg).u / (len(pos) * len(neg))


def test_auc_perfect_ranking():
    pos, neg = [0.9, 0.8], [0.1, 0.2]
    assert _u_auc(pos, neg) == _pair_auc(pos, neg) == 1.0


def test_auc_hand_enumerated_half():
    # pairs: (.8>.6), (.8>.4) wins; (.2<.6), (.2<.4) losses -> 2/4
    pos, neg = [0.8, 0.2], [0.6, 0.4]
    assert _u_auc(pos, neg) == _pair_auc(pos, neg) == 0.5


def test_auc_equals_mann_whitney_u_identity():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n_pos = int(rng.integers(1, 12))
        n_neg = int(rng.integers(1, 12))
        scores = np.round(rng.random(n_pos + n_neg), 2)  # force ties
        pos, neg = scores[:n_pos], scores[n_pos:]
        # exact: both count halves
        assert _u_auc(pos, neg) == _pair_auc(pos.tolist(), neg.tolist())


def test_auc_none_when_class_absent():
    """With no positives or no negatives there are no pairs to count."""
    for pos, neg in (([], [0.5, 0.1]), ([0.5], [])):
        with pytest.raises(DataError, match="non-empty"):
            mann_whitney_u(pos, neg)


# --- serialization -------------------------------------------------------------------

def test_model_json_round_trip_all_kinds():
    x, y = _blobs(n_per_class=4, seed=10)
    probe = x[:5]
    for kind in MODEL_KINDS:
        hyper = {"n_trees": 10} if kind == KIND_FOREST else None
        model = train(kind, x, y, hyper=hyper, seed=3)
        clone = model_from_dict(model_to_dict(model))
        assert np.allclose(predict_proba(model, probe),
                           predict_proba(clone, probe))
        assert clone.feature_names == model.feature_names


def test_model_json_version_refusal():
    x, y = _blobs(n_per_class=3)
    model = train(KIND_LOGISTIC, x, y, seed=0)
    payload = {**model_to_dict(model), "schema_version": 99}
    with pytest.raises(DataError, match="schema_version"):
        model_from_dict(payload)


def _edit_parameters(kind, edit):
    """A model_to_dict value of `kind` after `edit(payload)`."""
    x, y = _blobs(n_per_class=3)
    hyper = {"n_trees": 2, "max_depth": 2} if kind == KIND_FOREST else None
    payload = json.loads(json.dumps(model_to_dict(train(
        kind, x, y, hyper=hyper, seed=0))))
    edit(payload)
    return payload


def _set_root(tree):
    def edit(payload):
        payload["parameters"]["trees"][0] = tree
    return edit


def _set_deepest_leaf(leaf):
    """Replace the last tree's leaf reached by always going right."""
    def edit(payload):
        node = payload["parameters"]["trees"][-1]
        assert "leaf" not in node  # the edit lands below a split
        while "leaf" not in node["right"]:
            node = node["right"]
        node["right"] = {"leaf": leaf}
    return edit


@pytest.mark.parametrize("kind,edit", [
    (KIND_LOGISTIC, lambda p: p["parameters"].update(weights=[[1.0]])),
    (KIND_LOGISTIC, lambda p: p["parameters"].update(bias=["a"] * 5)),
    (KIND_LOGISTIC, lambda p: p["standardization"].update(std=[1.0, None])),
    (KIND_LOGISTIC, lambda p: p.update(feature_names="f0")),
    (KIND_LOGISTIC, lambda p: p.update(label_order=["Logic"])),
    (KIND_LOGISTIC, lambda p: p.update(label_order="Logic")),
    (KIND_LOGISTIC, lambda p: p.update(parameters=[])),
    (KIND_FFN, lambda p: p["parameters"].update(b1=[0.0])),
    (KIND_FFN, lambda p: p["hyper"].update(hidden=3)),
    (KIND_FOREST, lambda p: p["parameters"].update(trees=[])),
    (KIND_FOREST, _set_root({"leaf": ["0.2"] * 5})),
    (KIND_FOREST, _set_root({"feature": 4, "threshold": 0.0,
                             "left": {"leaf": [1.0, 0, 0, 0, 0]},
                             "right": {"leaf": [1.0, 0, 0, 0, 0]}})),
    (KIND_FOREST, _set_root({"feature": 0, "threshold": "0",
                             "left": {"leaf": [1.0, 0, 0, 0, 0]},
                             "right": {"leaf": [1.0, 0, 0, 0, 0]}})),
    (KIND_FOREST, _set_root({"feature": 0, "threshold": 0.0,
                             "left": {"leaf": [1.0, 0, 0, 0, 0]}})),
    (KIND_FOREST, _set_deepest_leaf([0.2, 0.2, 0.2, 0.2, float("nan")])),
    (KIND_FOREST, _set_root({"feature": 0, "threshold": True,
                             "left": {"leaf": [1.0, 0, 0, 0, 0]},
                             "right": {"leaf": [1.0, 0, 0, 0, 0]}})),
    (KIND_FOREST, _set_root({"feature": 0, "threshold": 0.0,
                             "right": {"leaf": [1.0, 0, 0, 0, 0]}})),
], ids=["weights_shape", "bias_strings", "std_null", "names_string",
        "label_order", "label_order_string", "parameters_list", "ffn_b1_shape", "ffn_hidden",
        "no_trees", "leaf_strings", "split_feature_out_of_range",
        "threshold_string", "split_without_right", "deep_leaf_nan",
        "threshold_bool", "split_without_left"])
def test_model_of_another_shape_is_a_data_error(kind, edit):
    with pytest.raises(DataError):
        model_from_dict(_edit_parameters(kind, edit))


_SPLIT_LEAF = {"leaf": [1.0, 0, 0, 0, 0]}


@pytest.mark.parametrize("edit,message", [
    (_set_root({"leaf": ["0.2"] * 5}), "a leaf: expected finite numbers"),
    (_set_deepest_leaf([0.5, 0.5]),
     r"a leaf: expected finite numbers of shape \(5,\)"),
    (_set_deepest_leaf([0.2, 0.2, 0.2, 0.2, float("inf")]),
     r"a leaf: expected finite numbers of shape \(5,\)"),
    (_set_root({"feature": 0, "threshold": True, "left": _SPLIT_LEAF,
                "right": _SPLIT_LEAF}),
     r"a threshold: expected finite numbers of shape \(\)"),
    (_set_root({"feature": 0, "threshold": float("nan"), "left": _SPLIT_LEAF,
                "right": _SPLIT_LEAF}),
     r"a threshold: expected finite numbers of shape \(\)"),
    (_set_root({"feature": 0, "threshold": 0.0, "right": _SPLIT_LEAF}),
     "tree node None is not a leaf or a split on one of 4 features"),
], ids=["leaf_strings", "deep_leaf_short", "deep_leaf_inf", "threshold_bool",
        "threshold_nan", "split_without_left"])
def test_bad_forest_node_error_names_the_node_kind(edit, message):
    with pytest.raises(DataError, match=message):
        model_from_dict(_edit_parameters(KIND_FOREST, edit))


def _first_number_true(*path):
    """Set the first number of the list at `path` in the payload to true."""
    def edit(payload):
        for key in path:
            payload = payload[key]
        while isinstance(payload[0], list):
            payload = payload[0]
        payload[0] = True
    return edit


@pytest.mark.parametrize("kind, edit, where", [
    (KIND_LOGISTIC, _first_number_true("parameters", "weights"),
     "$.parameters.weights"),
    (KIND_LOGISTIC, _first_number_true("parameters", "bias"),
     "$.parameters.bias"),
    (KIND_LOGISTIC, _first_number_true("standardization", "mean"),
     "$.standardization.mean"),
    (KIND_LOGISTIC, _first_number_true("standardization", "std"),
     "$.standardization.std"),
    *[(KIND_FFN, _first_number_true("parameters", key), f"$.parameters.{key}")
      for key in ("w1", "b1", "w2", "b2")],
    (KIND_FOREST, _set_root({"leaf": [True, 0, 0, 0, 0]}), "$: a leaf"),
    (KIND_FOREST, _set_root({"feature": 0, "threshold": True,
                             "left": _SPLIT_LEAF, "right": _SPLIT_LEAF}),
     "$: a threshold"),
], ids=["weights", "bias", "mean", "std", "w1", "b1", "w2", "b2", "leaf",
        "threshold"])
def test_bool_among_model_numbers_is_a_data_error(kind, edit, where):
    """JSON true is not the number 1, wherever a model holds numbers."""
    with pytest.raises(DataError,
                       match=re.escape(f"{where}: expected finite numbers")):
        model_from_dict(_edit_parameters(kind, edit))
