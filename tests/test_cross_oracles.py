"""Cross-validation against third-party implementations where semantics
overlap. These are belt-and-braces checks on top of the hand-built oracles;
each skips cleanly if the library is absent.
"""

import numpy as np
import pytest

from gelid.clustering import DistanceMatrix
from gelid.clustering import dbscan as our_dbscan
from gelid.features import (document_terms, fit_vocabulary, text_features,
                            tokenize)
from gelid.stats import benjamini_hochberg, cohens_kappa


def _random_euclidean_matrix(rng, n):
    pts = rng.random((n, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    dist = np.clip(dist / max(dist.max(), 1e-9), 0, 1)
    np.fill_diagonal(dist, 0.0)
    return (dist + dist.T) / 2


def test_dbscan_core_partition_matches_sklearn():
    sklearn_cluster = pytest.importorskip("sklearn.cluster")
    rng = np.random.default_rng(31)
    for trial in range(30):
        n = int(rng.integers(3, 25))
        dist = _random_euclidean_matrix(rng, n)
        eps = float(rng.uniform(0.05, 0.5))
        min_pts = int(rng.integers(1, 5))
        ids = tuple(f"s{i:02d}" for i in range(n))
        ours = our_dbscan(DistanceMatrix(ids=ids, values=dist), eps, min_pts)
        ref = sklearn_cluster.DBSCAN(eps=eps, min_samples=min_pts,
                                     metric="precomputed").fit(dist)
        ref_core = set(ref.core_sample_indices_.tolist())
        our_core = {i for i in range(n)
                    if (dist[i] <= eps).sum() >= min_pts}
        assert our_core == ref_core
        # noise (unreachable points) is deterministic in both
        ref_noise = {ids[i] for i, lbl in enumerate(ref.labels_) if lbl == -1}
        assert set(ours.noise()) == ref_noise
        # core points co-clustered identically
        for i in our_core:
            for j in our_core:
                same_ours = ours.labels[ids[i]] == ours.labels[ids[j]]
                same_ref = ref.labels_[i] == ref.labels_[j]
                assert same_ours == same_ref


def test_tfidf_matches_sklearn_with_aligned_tokenizer():
    text_mod = pytest.importorskip("sklearn.feature_extraction.text")
    docs = ["the game crashed when I opened the map",
            "huge lag spike in the boss arena",
            "crashed again same map corner",
            "textures flicker and the hud vanishes"]
    vectorizer = text_mod.TfidfVectorizer(analyzer=tokenize)
    ref = vectorizer.fit_transform(docs).toarray()
    ref_terms = list(vectorizer.get_feature_names_out())
    documents = document_terms(docs, ngram_max=1, stopwords=frozenset())
    vocab = fit_vocabulary(documents, min_df=1)
    assert list(vocab.terms) == ref_terms
    for row, ours in enumerate(text_features(documents, vocab)):
        assert np.allclose(ours, ref[row], atol=1e-12)


def test_kappa_matches_sklearn():
    metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        r1 = rng.integers(0, 4, size=n).tolist()
        r2 = rng.integers(0, 4, size=n).tolist()
        if len(set(r1)) == 1 and len(set(r2)) == 1:
            continue  # degenerate convention differs by design
        ours = cohens_kappa(r1, r2)
        theirs = metrics.cohen_kappa_score(r1, r2)
        if np.isnan(theirs):
            continue
        assert ours == pytest.approx(theirs, abs=1e-12)


def test_bh_matches_statsmodels():
    multitest = pytest.importorskip("statsmodels.stats.multitest")
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(1, 30))
        p = rng.random(m)
        ours = benjamini_hochberg(p.tolist())
        _, theirs, _, _ = multitest.multipletests(p, method="fdr_bh")
        assert np.allclose(ours, theirs, atol=1e-12)
