"""Segment categorization: logistic regression, random forest, and a one
hidden-layer feed-forward network over the five segment labels.

All three are trained from scratch on dense feature matrices, seeded and
deterministic. The two gradient-trained models, logistic regression and
the feed-forward net, inline their gradients and step in place on their
own arrays, computing no loss; the tests hold each trainer to the bits of
a loop of plain steps on its objective's reference loss and gradient,
which finite-difference checks exercise. One softmax kernel, reduced
down the label axis, serves training and prediction; logistic regression
holds each step's logits label-major, one contiguous row per label, and
every value keeps the bits of the row-major step.

A random forest is one set of node arrays over all its trees, each tree's
nodes depth first, left first: `feature` (int64, -1 at a leaf),
`threshold` (float64), `left` and `right` (int64 node indices, -1 at a
leaf), `leaf` (float64, one class distribution per node, 0 at a split)
and `roots` (int64, one per tree). Trees grow off an explicit stack,
prediction moves every (tree, row) pair down one level per step, and
model.json keeps its nested trees, rebuilt from the arrays byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, check_shape, count, non_negative, positive,
                     positive_int)

MODEL_SCHEMA_VERSION = 1


NON_INFORMATIVE = "NonInformative"
LABEL_ORDER = (NON_INFORMATIVE, "Logic", "Presentation", "Balance",
               "Performance")
N_LABELS = len(LABEL_ORDER)

KIND_LOGISTIC = "logistic_regression"
KIND_FOREST = "random_forest"
KIND_FFN = "feedforward_net"
MODEL_KINDS = (KIND_LOGISTIC, KIND_FOREST, KIND_FFN)

DEFAULT_HYPER = {
    KIND_LOGISTIC: {"l2": 1e-4, "iterations": 500, "learning_rate": 0.1},
    KIND_FOREST: {"n_trees": 100, "min_leaf": 2, "max_depth": None},
    KIND_FFN: {"hidden": 64, "epochs": 50, "batch_size": 32,
               "learning_rate": 0.01},
}
# the range of each hyper-parameter (see check_shape)
HYPER_SHAPES = {
    KIND_LOGISTIC: {"l2": non_negative, "iterations": count,
                    "learning_rate": positive},
    KIND_FOREST: {"n_trees": positive_int, "min_leaf": positive_int,
                  "max_depth": ({None}, count)},
    KIND_FFN: {"hidden": positive_int, "epochs": positive_int,
               "batch_size": positive_int, "learning_rate": positive},
}


def _reject_unknown_hyper(kind: str, hyper: dict, where: str = "") -> None:
    unknown = set(hyper) - set(HYPER_SHAPES[kind])
    if unknown:
        raise DataError(f"{where}unknown hyper-parameter(s) for {kind}: "
                        f"{sorted(unknown)}")


@dataclass
class TrainedModel:
    kind: str
    feature_names: tuple[str, ...]
    mean: np.ndarray          # standardization, from training data
    std: np.ndarray
    hyper: dict
    parameters: dict = field(repr=False, default_factory=dict)


def _label_indices(y) -> np.ndarray:
    index = {name: i for i, name in enumerate(LABEL_ORDER)}
    try:
        return np.array([index[v] for v in y], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"unknown label {exc.args[0]!r}; expected one of "
                        f"{LABEL_ORDER}") from None


def standardize_fit(x: np.ndarray, names: tuple[str, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Column means and stds (1 for a constant column); a DataError names
    the first column too large for them to be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        std = x.std(axis=0)
    finite = np.isfinite(mean) & np.isfinite(std)
    if not finite.all():
        raise DataError(f"feature {names[int(np.argmin(finite))]!r} is too "
                        f"large to standardize: its mean or std is not finite")
    std[std == 0] = 1.0
    return mean, std


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of an (n, K) float array, written over z and returned.

    Reduced down axis 0 of `z.T`, so a row-major z and the `.T` of a
    label-major array take the same calls; either way a row sums as
    ``((e0 + e1) + e2) + ...``, the order of ``e.sum(axis=1)`` on rows
    this short."""
    t = z.T
    t -= np.maximum.reduce(t, axis=0)
    np.exp(t, out=t)
    t /= np.add.reduce(t, axis=0)
    return z


# ---------------------------------------------------------------------------
# Logistic regression (multinomial softmax, L2, full-batch gradient descent)


def _train_logistic(x: np.ndarray, y_idx: np.ndarray, hyper: dict,
                    seed: int) -> dict:
    """Gradient descent on the mean cross-entropy plus l2*||W||^2 (bias
    unpenalized), in buffers allocated once and without the loss.

    A step holds its logits label-major, one contiguous row of `z` per
    label, and `_softmax` writes over it through `z.T`. Each value
    keeps the bits of the row-major step: ``w.T @ x.T`` gives those of
    ``x @ w``, a max is exact, five terms add as ``((e0 + e1) + e2) + ...``
    in any reduction, and an elementwise op rounds once in any layout. The
    scaled residual is written through `delta.T` into the row-major
    `delta`, since ``x.T @ delta`` must keep its operands: with one
    column, NumPy's other forms of it round differently."""
    n, d = x.shape
    lr, decay = hyper["learning_rate"], 2 * hyper["l2"]
    w, b = np.zeros((d, N_LABELS)), np.zeros(N_LABELS)
    hot = np.zeros((N_LABELS, n))
    hot[y_idx, np.arange(n)] = 1.0
    x_t = x.T  # a view, as in x.T @ delta, so BLAS sums in that order
    z, delta = np.empty((N_LABELS, n)), np.empty((n, N_LABELS))
    grad, shrink = np.empty((d, N_LABELS)), np.empty((d, N_LABELS))
    for _ in range(hyper["iterations"]):
        np.matmul(w.T, x_t, out=z)
        z += b[:, None]
        _softmax(z.T)
        z -= hot
        np.divide(z, n, out=delta.T)
        np.matmul(x_t, delta, out=grad)
        np.multiply(decay, w, out=shrink)
        grad += shrink
        grad *= lr
        w -= grad
        b -= lr * delta.sum(axis=0)
    return {"weights": w, "bias": b}


# ---------------------------------------------------------------------------
# Feed-forward network (one hidden ReLU layer, softmax, mini-batch SGD)


def ffn_shapes(d: int, hidden: int) -> list[tuple[int, ...]]:
    return [(d, hidden), (hidden,), (hidden, N_LABELS), (N_LABELS,)]


def _train_ffn(x: np.ndarray, y_idx: np.ndarray, hyper: dict,
               seed: int) -> dict:
    """Mini-batch gradient descent on the mean cross-entropy, each step
    taken in place on the four arrays and without the loss."""
    rng = np.random.default_rng(seed)
    d, h = x.shape[1], hyper["hidden"]
    w1 = rng.normal(0.0, math.sqrt(2.0 / d), size=(d, h))
    b1 = np.zeros(h)
    w2 = rng.normal(0.0, math.sqrt(2.0 / h), size=(h, N_LABELS))
    b2 = np.zeros(N_LABELS)
    n = x.shape[0]
    batch = min(hyper["batch_size"], n)
    lr = hyper["learning_rate"]
    for _ in range(hyper["epochs"]):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start:start + batch]
            xb = x[rows]
            pre = xb @ w1 + b1
            hidden = np.maximum(pre, 0.0)
            delta = _softmax(hidden @ w2 + b2)
            delta[np.arange(rows.size), y_idx[rows]] -= 1.0
            delta /= rows.size
            back = (delta @ w2.T) * (pre > 0)
            w2 -= lr * (hidden.T @ delta)
            b2 -= lr * delta.sum(axis=0)
            w1 -= lr * (xb.T @ back)
            b1 -= lr * back.sum(axis=0)
    return {"w1": w1, "b1": b1, "w2": w2, "b2": b2}


# ---------------------------------------------------------------------------
# Random forest (Gini, bootstrap rows, sqrt(d) features per split)


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p ** 2).sum())


def _best_split(values: np.ndarray, y_idx: np.ndarray, counts: np.ndarray
                ) -> tuple[float, int, float] | None:
    """The (gain, candidate, threshold) of the best Gini split of a node.

    `values` holds one row per candidate feature, in ascending feature
    order, of the node's values. Thresholds are the midpoints between
    neighbouring distinct values of each candidate, visited in candidate,
    then threshold, order; one replaces the best so far only if its gain
    is more than 1e-15 higher. All are scored at once, from one sort per
    candidate and the class counts of each run of equal values, with the
    arithmetic of ``_gini`` row by row."""
    n = values.shape[1]
    ordered = np.sort(values, axis=1)
    starts = np.empty(values.shape, dtype=bool)  # where a run begins
    starts[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    # (candidate, row) of every run boundary, in the order thresholds are
    # visited
    col, row = np.nonzero(starts[:, 1:])
    if not col.size:
        return None
    # the runs of all candidates numbered from 1 in that order too, and the
    # class counts through each (run 0: none); a candidate's own counts
    # start after the run before its first
    run = np.cumsum(starts.ravel())
    labels = y_idx[np.argsort(values, axis=1)].ravel()
    through = np.cumsum(np.bincount(run * N_LABELS + labels,
                                    minlength=(run[-1] + 1) * N_LABELS
                                    ).reshape(-1, N_LABELS), axis=0)
    upper = ordered[col, row + 1]
    thresholds = (ordered[col, row] + upper) / 2.0
    # the finite midpoint of a < b lies in [a, b]: below b it keeps a's run
    # on the left, on b it keeps b's run (the next) too; one that overflows
    # keeps all of the candidate's runs or none
    first = col * n
    before = run[first] - 1  # the run before the candidate's first
    left_run = run[first + row] + (thresholds >= upper)
    over = np.isinf(thresholds)
    if over.any():
        left_run[over] = np.where(thresholds[over] > 0,
                                  run[first + n - 1][over], before[over])
    left = through[left_run] - through[before]
    n_left = left.sum(axis=1)
    keep = (n_left > 0) & (n_left < n)
    if not keep.any():
        return None
    col, thresholds, n_left, left = (col[keep], thresholds[keep],
                                     n_left[keep], left[keep])
    p_left = left / n_left[:, None]
    p_right = (counts - left) / (n - n_left)[:, None]
    gini_left = 1.0 - (p_left ** 2).sum(axis=1)
    gini_right = 1.0 - (p_right ** 2).sum(axis=1)
    weighted = (n_left * gini_left + (n - n_left) * gini_right) / n
    gains = _gini(counts) - weighted
    # best + 1e-15 is at least every gain before it, so a gain no larger than
    # an earlier one never passes the 1e-15 rule: only the prefix-maximum
    # records need the sequential scan
    records = np.flatnonzero(gains[1:] > np.maximum.accumulate(gains)[:-1])
    best = 0
    for j in (records + 1).tolist():
        if gains[j] > gains[best] + 1e-15:
            best = j
    return float(gains[best]), int(col[best]), float(thresholds[best])


def _new_nodes() -> dict:
    """Per-node lists of a forest being built: `feature` and `right` have
    an entry per node, `threshold` one per split, `leaf` one per leaf, and
    `roots` one per tree."""
    return {key: [] for key in ("feature", "right", "threshold", "leaf",
                                "roots")}


def _grow_tree(x: np.ndarray, y_idx: np.ndarray, rng: np.random.Generator,
               min_leaf: int, max_depth: int | None, nodes: dict) -> None:
    """Grow one tree on (x, y_idx) and append it to `nodes` (`_new_nodes`).

    Nodes come off an explicit stack depth first, left first: the nodes,
    and the rng.choice draws, of a recursion that finishes the left subtree
    before it starts the right one. A split's left child is the next node;
    its right child's index is filled in when that child is reached."""
    n, d = x.shape
    by_feature = np.ascontiguousarray(x.T)
    root = math.isqrt(d)
    n_candidates = min(max(1, root + (root * root != d)), d)
    feature, right = nodes["feature"], nodes["right"]
    nodes["roots"].append(len(feature))
    stack = [(np.arange(n), 0, -1)]  # rows, depth, parent if a right child
    while stack:
        rows, depth, parent = stack.pop()
        if parent >= 0:
            right[parent] = len(feature)
        y = y_idx[rows]
        counts = np.bincount(y, minlength=N_LABELS)
        best = None
        if not (rows.size < min_leaf or np.count_nonzero(counts) <= 1
                or (max_depth is not None and depth >= max_depth)):
            features = np.sort(rng.choice(d, size=n_candidates,
                                          replace=False))
            values = by_feature[features[:, None], rows]
            best = _best_split(values, y, counts)
        if best is None or best[0] <= 1e-15:
            feature.append(-1)
            right.append(-1)
            nodes["leaf"].append(counts / counts.sum())
            continue
        _, j, threshold = best
        mask = values[j] <= threshold
        stack.append((rows[~mask], depth + 1, len(feature)))
        stack.append((rows[mask], depth + 1, -1))
        feature.append(int(features[j]))
        right.append(-1)  # filled in when the right child comes off
        nodes["threshold"].append(threshold)


def _node_arrays(nodes: dict) -> dict:
    """The forest arrays of `_new_nodes` lists, a split's leaf row 0 and a
    leaf's threshold 0."""
    feature = np.array(nodes["feature"], dtype=np.int64)
    split = feature >= 0
    threshold = np.zeros(feature.size)
    threshold[split] = nodes["threshold"]
    leaf = np.zeros((feature.size, N_LABELS))
    leaf[~split] = nodes["leaf"]
    return {"feature": feature, "threshold": threshold,
            "left": np.where(split, np.arange(1, feature.size + 1), -1),
            "right": np.array(nodes["right"], dtype=np.int64),
            "leaf": leaf, "roots": np.array(nodes["roots"], dtype=np.int64)}


def _nest_trees(forest: dict) -> list[dict]:
    """The forest arrays as model.json's nested trees: a leaf is
    {"leaf": [...]}, a split {"feature", "threshold", "left", "right"}."""
    nodes = [{"leaf": leaf} if f < 0 else {"feature": f, "threshold": t}
             for f, t, leaf in zip(forest["feature"].tolist(),
                                   forest["threshold"].tolist(),
                                   forest["leaf"].tolist())]
    for node, left, right in zip(nodes, forest["left"].tolist(),
                                 forest["right"].tolist()):
        if left >= 0:
            node["left"], node["right"] = nodes[left], nodes[right]
    return [nodes[root] for root in forest["roots"].tolist()]


def _train_forest(x: np.ndarray, y_idx: np.ndarray, hyper: dict,
                  seed: int) -> dict:
    n = x.shape[0]
    nodes = _new_nodes()
    for child in np.random.SeedSequence(seed).spawn(hyper["n_trees"]):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, size=n)
        _grow_tree(x[rows], y_idx[rows], rng, hyper["min_leaf"],
                   hyper["max_depth"], nodes)
    return _node_arrays(nodes)


# ---------------------------------------------------------------------------
# Public API


def train(kind: str, x: np.ndarray, y, *, seed: int,
          hyper: dict | None = None, feature_names=None) -> TrainedModel:
    """Train one of the three model kinds on a dense (n, d) matrix."""
    check_shape(kind, set(MODEL_KINDS), "model kind")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("training matrix must be (n, d) with n >= 1")
    if not np.all(np.isfinite(x)):
        raise DataError("training matrix contains NaN or Inf")
    y_idx = _label_indices(y)
    if y_idx.shape[0] != x.shape[0]:
        raise DataError("one label per training row required")
    if np.unique(y_idx).size < 2:
        raise DataError("training data must contain at least 2 classes")
    _reject_unknown_hyper(kind, hyper or {})
    merged = dict(DEFAULT_HYPER[kind])
    merged.update(hyper or {})
    check_shape(merged, HYPER_SHAPES[kind], f"{kind} hyper-parameters: $")
    names = (tuple(feature_names) if feature_names is not None
             else tuple(f"f{i}" for i in range(x.shape[1])))
    if len(names) != x.shape[1]:
        raise DataError(f"{len(names)} feature names for {x.shape[1]} columns")
    mean, std = standardize_fit(x, names)
    # one (n, d) buffer: (x - mean) / std would hold two
    xs = np.subtract(x, mean)
    xs /= std
    if kind == KIND_LOGISTIC:
        parameters = _train_logistic(xs, y_idx, merged, seed)
    elif kind == KIND_FFN:
        parameters = _train_ffn(xs, y_idx, merged, seed)
    else:
        parameters = _train_forest(xs, y_idx, merged, seed)
    return TrainedModel(kind=kind, feature_names=names, mean=mean, std=std,
                        hyper=merged, parameters=parameters)


def predict_proba(model: TrainedModel, x: np.ndarray,
                  feature_names=None) -> np.ndarray:
    """Per-class probabilities, rows summing to 1."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if feature_names is not None and tuple(feature_names) != model.feature_names:
        raise DataError("feature names do not match the trained model")
    if x.shape[1] != len(model.feature_names):
        raise DataError(f"expected {len(model.feature_names)} features, "
                        f"got {x.shape[1]}")
    xs = np.subtract(x, model.mean)
    xs /= model.std
    if model.kind == KIND_LOGISTIC:
        return _softmax(xs @ model.parameters["weights"]
                        + model.parameters["bias"])
    if model.kind == KIND_FFN:
        p = model.parameters
        hidden = np.maximum(xs @ p["w1"] + p["b1"], 0.0)
        return _softmax(hidden @ p["w2"] + p["b2"])
    forest = model.parameters
    feature, threshold = forest["feature"], forest["threshold"]
    n, trees = xs.shape[0], forest["roots"].size
    # every (tree, row) pair moves down one level per step, tree-major
    node = np.repeat(forest["roots"], n)
    row = np.tile(np.arange(n), trees)
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        go_left = xs[row[active], feature[at]] <= threshold[at]
        node[active] = np.where(go_left, forest["left"][at],
                                forest["right"][at])
        active = active[feature[node[active]] >= 0]
    # the leaf rows added tree by tree, in the order a walk per row adds them
    votes = np.zeros((n, N_LABELS))
    for leaves in node.reshape(trees, n):
        votes += forest["leaf"][leaves]
    return votes / trees


def predict(model: TrainedModel, x: np.ndarray,
            feature_names=None) -> list[str]:
    """Argmax labels; ties resolve to the earliest label in LABEL_ORDER."""
    probs = predict_proba(model, x, feature_names)
    return [LABEL_ORDER[i] for i in probs.argmax(axis=1)]


# ---------------------------------------------------------------------------
# Serialization


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind,
        "feature_names": list(model.feature_names),
        "label_order": list(LABEL_ORDER),
        "standardization": {"mean": model.mean.tolist(),
                            "std": model.std.tolist()},
        "hyper": model.hyper,
        "parameters": (
            {"trees": _nest_trees(model.parameters)}
            if model.kind == KIND_FOREST else
            {k: v.tolist() for k, v in model.parameters.items()}),
    }


def float_array(value, shape: tuple, what: str) -> np.ndarray:
    """A JSON value as a float array of `shape`; a leading None takes a
    list of any length of values of the rest of it. Any other value, a
    bool among the numbers or ragged nesting too, is a DataError naming
    `what` and the shape of one value."""
    try:  # ragged nesting: a ValueError
        array = np.asarray(value)
        scalars = [value]
        for _ in shape:  # nested lists, as the array's shape checks them
            scalars = itertools.chain.from_iterable(scalars)
        if (array.dtype.kind in "iuf" and array.ndim == len(shape)
                and all(n in (size, None)
                        for size, n in zip(array.shape, shape))
                and set(map(type, scalars)) <= {int, float}
                and np.all(np.isfinite(array))):
            return array.astype(float)
    except (TypeError, ValueError, OverflowError):
        pass
    one = shape[1:] if shape[:1] == (None,) else shape
    raise DataError(f"{what}: expected finite numbers of shape {one}")


def _forest_from_trees(trees, d: int, where: str) -> dict:
    """model.json's nested trees as the forest arrays, flattened in one
    walk, depth first and left first, as `_grow_tree` appends them."""
    if not (isinstance(trees, list) and trees):
        raise DataError(f"{where}: model trees must be a non-empty list")
    nodes = _new_nodes()
    feature, right = nodes["feature"], nodes["right"]
    for tree in trees:
        nodes["roots"].append(len(feature))
        stack = [(tree, -1)]  # node, parent if a right child
        while stack:
            node, parent = stack.pop()
            if parent >= 0:
                right[parent] = len(feature)
            if isinstance(node, dict) and "leaf" in node:
                feature.append(-1)
                nodes["leaf"].append(node["leaf"])
            elif (isinstance(node, dict) and type(node.get("feature")) is int
                  and 0 <= node["feature"] < d):
                stack += [(node.get("right"), len(feature)),
                          (node.get("left"), -1)]
                feature.append(node["feature"])
                nodes["threshold"].append(node.get("threshold"))
            else:
                raise DataError(f"{where}: tree node {str(node)[:80]} is not "
                                f"a leaf or a split on one of {d} features")
            right.append(-1)
    nodes["leaf"] = float_array(nodes["leaf"], (None, N_LABELS),
                                f"{where}: a leaf")
    nodes["threshold"] = float_array(nodes["threshold"], (None,),
                                     f"{where}: a threshold")
    return _node_arrays(nodes)


def _is_label_order(value) -> bool:
    """the labels in gelid's order"""
    return value == list(LABEL_ORDER)


# a model_to_dict value; float_array and the tree walk check the numbers
MODEL_SHAPE = {"schema_version": {MODEL_SCHEMA_VERSION},
               "kind": set(MODEL_KINDS), "feature_names": [str],
               "label_order": _is_label_order,
               "standardization": {"mean": list, "std": list},
               "hyper": dict, "parameters": dict}


def model_from_dict(obj, where: str = "$") -> TrainedModel:
    """A `model_to_dict` value; any other shape is a DataError naming
    `where`, the JSON path of `obj`."""
    check_shape(obj, MODEL_SHAPE, where)
    kind, names, params = obj["kind"], obj["feature_names"], obj["parameters"]
    check_shape(obj["hyper"], HYPER_SHAPES[kind], f"{where}.hyper")
    _reject_unknown_hyper(kind, obj["hyper"], f"{where}.hyper: ")
    d = len(names)
    if kind == KIND_FOREST:
        parameters = _forest_from_trees(params.get("trees"), d, where)
    else:
        shapes = ({"weights": (d, N_LABELS), "bias": (N_LABELS,)}
                  if kind == KIND_LOGISTIC else
                  dict(zip(("w1", "b1", "w2", "b2"),
                           ffn_shapes(d, obj["hyper"]["hidden"]))))
        parameters = {key: float_array(params.get(key), shape,
                                       f"{where}.parameters.{key}")
                      for key, shape in shapes.items()}
    scale = obj["standardization"]
    return TrainedModel(
        kind=kind, feature_names=tuple(names),
        mean=float_array(scale["mean"], (d,), f"{where}.standardization.mean"),
        std=float_array(scale["std"], (d,), f"{where}.standardization.std"),
        hyper=obj["hyper"], parameters=parameters)
