"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerances and runtime budget and prints one
PASS line (run pytest with -s or check captured output). Tolerances are
pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import THREE_VIDEO_WORLD, write_world
from mno_oracles import mno_enumerated
from gelid.clustering import group_by_context
from gelid.config import RunConfig
from gelid.models import LABEL_ORDER, MODEL_KINDS, ffn_shapes, predict, train
from gelid.segmentation import SegmenterConfig, SnapRule, derive_cut_points
from gelid.stats import (Partition, cliffs_delta, cohens_kappa,
                         benjamini_hochberg, mann_whitney_u, margin_of_error,
                         mno, mojo_fm, simulate_likert_std, simulate_power)
from gelid.subtitles import Cue, Transcript
from gelid.features import smote_oversample
from test_kernel_references import (ffn_loss_and_grad, ffn_pack,
                                    logistic_loss_and_grad)


class _Budget:
    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)")
            print(f"PASS  {self.label}  [{elapsed:.2f}s]")
        return False


def test_criterion_1_reaction_shift_worked_example():
    with _Budget(1.0, "criterion 1: shifted shot snaps to sentence end "
                      "(825000 ms + 5 s -> cut at 845000 ms)"):
        cues = [
            Cue(826000, 833000, "so I just walked into the cave and"),
            Cue(833000, 838000, "the whole screen started flickering"),
            Cue(838000, 845000, "until the textures were gone."),
            Cue(851000, 853000, "anyway."),
        ]
        transcript = Transcript(video_id="v", cues=cues)
        cuts = derive_cut_points([825000], transcript,
                                 SegmenterConfig(k_seconds=5))
        assert len(cuts) == 1
        assert cuts[0].cut_ms == 845000
        assert cuts[0].snap_rule is SnapRule.SENTENCE_END


def test_criterion_2_margin_of_error():
    with _Budget(1.0, "criterion 2: margin_of_error(1000, 0.95) is 3.1%"):
        m = margin_of_error(1000, 0.95)
        assert 0.0305 <= m <= 0.0315


def test_criterion_3_likert_std_simulation():
    with _Budget(5.0, "criterion 3: simulated Likert std near sqrt(2); "
                      "bimodal worst case near 2.005"):
        out = simulate_likert_std(1000, 200, seed=20240301)
        assert abs(out.mean - math.sqrt(2.0)) <= 0.02
        bimodal = [1] * 100 + [5] * 100
        assert abs(np.std(bimodal, ddof=1) - 2.005) <= 0.01


def test_criterion_4_power_simulation():
    with _Budget(60.0, "criterion 4: Monte-Carlo power brackets the "
                       "analytic 90-97% range; sd=2 gives ~71%"):
        results = {sd: simulate_power(200, 0.5, sd, 0.05, n_sims=10000,
                                      seed=0) for sd in (1.54, 1.28, 2.0)}
        for sd in (1.54, 1.28):
            assert 0.88 <= results[sd].power <= 0.99
        for estimate in (results[1.54].power,
                         results[1.54].power_mann_whitney):
            assert 0.87 <= estimate <= 0.93
        for estimate in (results[1.28].power,
                         results[1.28].power_mann_whitney):
            assert estimate >= 0.95
        for estimate in (results[2.0].power,
                         results[2.0].power_mann_whitney):
            assert 0.67 <= estimate <= 0.75


def test_criterion_5_mojofm_oracle_equivalence():
    with _Budget(60.0, "criterion 5: matching-based move/join distance "
                       "equals enumeration on 500 random pairs (n <= 8)"):
        rng = np.random.default_rng(99)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            a = Partition.from_mapping(
                {f"{i:02d}": int(g) for i, g in
                 enumerate(rng.integers(0, n, size=n))})
            b = Partition.from_mapping(
                {f"{i:02d}": int(g) for i, g in
                 enumerate(rng.integers(0, n, size=n))})
            assert mno(a, b) == mno_enumerated(a, b)
            assert mojo_fm(a, a) == 100.0


def test_criterion_6_auc_u_identity():
    with _Budget(5.0, "criterion 6: pair-count AUC equals U/(n+ * n-) to "
                      "1e-12 on 200 random score sets"):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_pos = int(rng.integers(1, 25))
            n_neg = int(rng.integers(1, 25))
            decimals = int(rng.integers(1, 4))
            scores = np.round(rng.random(n_pos + n_neg), decimals)
            pos, neg = scores[:n_pos], scores[n_pos:]
            # wins plus half of ties over every (positive, negative) pair
            diff = pos[:, None] - neg[None, :]
            auc = ((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size
            u = mann_whitney_u(pos, neg).u
            assert abs(auc - u / (n_pos * n_neg)) <= 1e-12


def test_criterion_7_gradient_checks():
    with _Budget(30.0, "criterion 7: analytic gradients match central "
                       "finite differences (rel err < 1e-4, 20 instances)"):
        rng = np.random.default_rng(123)

        def central(fn, x0, eps=1e-6):
            grad = np.zeros_like(x0)
            for i in range(x0.size):
                bump = np.zeros_like(x0)
                bump.flat[i] = eps
                grad.flat[i] = (fn(x0 + bump) - fn(x0 - bump)) / (2 * eps)
            return grad

        for _ in range(10):
            n, d = int(rng.integers(3, 8)), int(rng.integers(2, 5))
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 5, size=n)
            wb = rng.normal(scale=0.5, size=(d + 1, 5))
            _, analytic = logistic_loss_and_grad(wb, x, y, 1e-4)
            numeric = central(lambda flat: logistic_loss_and_grad(
                flat.reshape(d + 1, 5), x, y, 1e-4)[0], wb.ravel())
            denom = np.maximum(np.abs(analytic.ravel()) + np.abs(numeric),
                               1e-8)
            assert np.max(np.abs(analytic.ravel() - numeric) / denom) < 1e-4

        for _ in range(10):
            n, d, h = int(rng.integers(3, 7)), int(rng.integers(2, 5)), 5
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 5, size=n)
            shapes = ffn_shapes(d, h)
            flat = ffn_pack([rng.normal(scale=0.4, size=s) for s in shapes])
            _, analytic = ffn_loss_and_grad(flat, shapes, x, y)
            numeric = central(lambda f: ffn_loss_and_grad(f, shapes, x, y)[0],
                              flat)
            denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_criterion_8_planted_context_recovery():
    with _Budget(30.0, "criterion 8: DBSCAN/OPTICS/Mean-Shift each recover "
                       "3 planted scenes at MoJoFM >= 90"):
        rng = np.random.default_rng(808)
        keyframes = {}
        truth = {}
        for scene in range(3):
            base = np.zeros((3, 16))
            base[:, scene * 5] = 1.0
            for i in range(20):
                k = int(rng.integers(1, 4))
                hists = []
                for _ in range(k):
                    noisy = base + rng.random((3, 16)) * 0.02
                    noisy /= noisy.sum(axis=1, keepdims=True)
                    hists.append(noisy.reshape(48))
                sid = f"scene{scene}_seg{i:02d}"
                keyframes[sid] = np.stack(hists)
                truth[sid] = scene
        planted = Partition.from_mapping(truth)
        for algorithm in ("dbscan", "optics", "mean_shift"):
            out = group_by_context(
                sorted(keyframes), keyframes, algorithm=algorithm,
                params=RunConfig(context_algorithm=algorithm)
                .cluster_params("context"))
            got = Partition.from_mapping(
                {sid: (lbl if lbl != -1 else f"noise_{sid}")
                 for sid, lbl in out.labels.items()})
            score = mojo_fm(got, planted)
            assert score >= 90.0, (algorithm, score)


def test_criterion_9_classifier_sanity_and_smote():
    with _Budget(60.0, "criterion 9: all three classifiers reach 0.95 test "
                       "accuracy on separable blobs; SMOTE equalizes "
                       "counts with collinear synthetics"):
        rng = np.random.default_rng(2024)
        d = 8
        centers = rng.normal(0, 1, size=(5, d))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        centers *= 8.0
        rows, labels = [], []
        for c, name in enumerate(LABEL_ORDER):
            rows.append(centers[c] + rng.normal(0, 0.3, size=(40, d)))
            labels += [name] * 40
        x = np.vstack(rows)
        y = np.array(labels)
        order = rng.permutation(len(y))
        x, y = x[order], y[order]
        x_train, x_test = x[:100], x[100:]
        y_train, y_test = y[:100], y[100:]
        for kind in MODEL_KINDS:
            model = train(kind, x_train, y_train, seed=7)
            accuracy = float(np.mean(
                np.array(predict(model, x_test)) == y_test))
            assert accuracy >= 0.95, (kind, accuracy)

        # imbalanced copy: strip most rows of two classes, then SMOTE
        keep = np.ones(len(y), dtype=bool)
        keep[np.flatnonzero(y == "Balance")[4:]] = False
        keep[np.flatnonzero(y == "Performance")[10:]] = False
        xi, yi = x[keep], y[keep]
        xs, ys = smote_oversample(xi, yi, k_neighbors=3, seed=11)
        _, counts = np.unique(ys, return_counts=True)
        assert len(set(counts.tolist())) == 1  # exactly equalized
        n_original = len(yi)
        for synth, label in zip(xs[n_original:], ys[n_original:]):
            originals = xi[yi == label]
            on_segment = False
            for i in range(len(originals)):
                for j in range(len(originals)):
                    if i == j:
                        continue
                    dvec = originals[j] - originals[i]
                    t = np.dot(synth - originals[i], dvec) / np.dot(dvec,
                                                                    dvec)
                    if -1e-9 <= t <= 1 + 1e-9 and np.allclose(
                            synth, originals[i] + t * dvec, atol=1e-9):
                        on_segment = True
                        break
                if on_segment:
                    break
            assert on_segment


def test_criterion_10_statistics_hand_oracles():
    with _Budget(1.0, "criterion 10: kappa, Cliff's delta, BH, and exact "
                      "Mann-Whitney match hand-computed values"):
        assert cohens_kappa(["a", "b", "a", "b"], ["a", "b", "a", "b"]) == 1.0
        assert cohens_kappa(["a", "b", "a", "b"],
                            ["b", "a", "b", "a"]) == pytest.approx(-1.0)
        assert cliffs_delta([1, 2, 3], [2, 3, 4]).delta == pytest.approx(
            -5 / 9, abs=1e-15)
        assert benjamini_hochberg([0.01, 0.02, 0.03, 0.04]) == pytest.approx(
            [0.04, 0.04, 0.04, 0.04], abs=1e-15)
        r = mann_whitney_u([1, 2], [3, 4])
        assert r.exact
        assert r.p_value == pytest.approx(1 / 3, abs=1e-15)


def test_criterion_11_end_to_end_determinism(tmp_path):
    with _Budget(60.0, "criterion 11: two runs of the 3-video manifest are "
                       "byte-identical and conserve segments"):
        from gelid.cli import main
        paths = write_world(tmp_path / "world", THREE_VIDEO_WORLD, seed=4242)
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        for out in (out1, out2):
            assert main(["run", "--manifest", str(paths["manifest"]),
                         "--config", str(paths["config"]),
                         "--out", str(out)]) == 0
        bytes1 = (out1 / "hierarchy.json").read_bytes()
        bytes2 = (out2 / "hierarchy.json").read_bytes()
        assert bytes1 == bytes2
        hierarchy = json.loads(bytes1)
        counts = hierarchy["counts"]
        assert counts["n_informative"] + counts["n_non_informative"] == \
            counts["n_segments"]
        members = [m for context in hierarchy["contexts"]
                   for category in context["categories"]
                   for cluster in category["clusters"]
                   for m in cluster["members"]]
        assert len(members) == len(set(members)) == counts["n_informative"]
