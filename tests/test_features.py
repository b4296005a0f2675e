import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelid.errors import DataError, ParseError, naming, utf8_text
from gelid.features import (FEATURE_GROUPS, SPACE_SHAPE, SPEECH_NAMES,
                            VIDEO_NAMES, EmbeddingTable, FeatureMatrix,
                            FeatureSpace, Vocabulary, assemble_features,
                            document_terms, embedding_features,
                            fit_vocabulary,
                            load_embedding_table,
                            read_feature_csv, segment_text, smote_oversample,
                            speech_features, text_features, tokenize,
                            video_features, write_feature_csv)
from gelid.frames import VideoTrack, compute_histogram
from gelid.segmentation import Segment
from gelid.subtitles import Cue, Transcript


# the tokenizer settings of RunConfig's defaults
TEXT = {"ngram_max": 1, "stopwords": frozenset()}


def _fit(texts, ngram_max=1, stopwords=frozenset(), min_df=1):
    return fit_vocabulary(document_terms(texts, ngram_max, stopwords),
                          min_df=min_df)


def _tfidf(texts, vocab):
    return text_features(document_terms(texts, **TEXT), vocab)


# --- vocabulary -------------------------------------------------------------

def test_fit_vocabulary_document_frequencies():
    vocab = _fit(["bug bug", "lag"])
    assert vocab.terms == ("bug", "lag")
    assert vocab.document_frequencies == (1, 1)
    assert vocab.n_documents == 2


def test_fit_vocabulary_min_df_filters_all_terms():
    with pytest.raises(DataError, match="no surviving terms"):
        _fit(["bug bug", "lag"], min_df=2)


def test_fit_vocabulary_bigrams():
    vocab = _fit(["game crashed"], ngram_max=2)
    assert "game crashed" in vocab.terms


def test_fit_vocabulary_stopwords_removed_before_ngrams():
    vocab = _fit(["the game crashed"], ngram_max=2,
                           stopwords={"the"})
    assert "game crashed" in vocab.terms
    assert all("the" not in t.split() for t in vocab.terms)


def test_fit_vocabulary_all_empty_is_error():
    with pytest.raises(DataError):
        _fit(["", "   ", "\n"])


def test_fit_vocabulary_terms_lexicographic():
    vocab = _fit(["zebra apple", "mango apple"])
    assert list(vocab.terms) == sorted(vocab.terms)


def test_tokenize_alphanumeric_runs():
    assert tokenize("It's FPS-drop #2!") == ["it", "s", "fps", "drop", "2"]


# --- tf-idf ------------------------------------------------------------------

def test_text_features_empty_text_zero_vector():
    vocab = _fit(["bug", "lag"])
    values = _tfidf([""], vocab)[0]
    assert values.shape == (2,)
    assert not values.any()


def test_text_features_single_token_unit_norm():
    vocab = _fit(["bug", "lag"])
    values = _tfidf(["bug"], vocab)[0]
    assert np.linalg.norm(values) == pytest.approx(1.0)
    assert values[0] > 0 and values[1] == 0


def test_text_features_tfidf_arithmetic():
    # tf = (2, 1), idf identical for both terms -> direction (2, 1)/sqrt(5)
    vocab = _fit(["bug bug", "lag"])
    values = _tfidf(["bug bug lag"], vocab)[0]
    w = math.log(3 / 2) + 1
    raw = np.array([2 * w, 1 * w])
    assert np.allclose(values, raw / np.linalg.norm(raw))
    assert np.allclose(values, [2 / math.sqrt(5), 1 / math.sqrt(5)])


def test_text_features_out_of_vocabulary_ignored():
    vocab = _fit(["bug"])
    values = _tfidf(["quantum flux bug"], vocab)[0]
    assert np.linalg.norm(values) == pytest.approx(1.0)


def test_transform_does_not_mutate_vocabulary():
    vocab = _fit(["bug bug", "lag"])
    before = (vocab.terms, vocab.document_frequencies, vocab.n_documents)
    _tfidf(["totally new words here"], vocab)
    assert (vocab.terms, vocab.document_frequencies, vocab.n_documents) \
        == before


# --- embeddings ---------------------------------------------------------------

def _table():
    return EmbeddingTable(vectors={"bug": np.array([1.0, 0.0]),
                                   "lag": np.array([0.0, 2.0])}, dim=2)


def test_embedding_features_no_hits_zero_vector():
    values = embedding_features(["nothing known"], _table())[0]
    assert np.array_equal(values, [0.0, 0.0])


def test_embedding_features_single_token():
    values = embedding_features(["bug"], _table())[0]
    assert np.array_equal(values, [1.0, 0.0])


def test_embedding_features_mean_of_two():
    values = embedding_features(["bug lag"], _table())[0]
    assert np.array_equal(values, [0.5, 1.0])


def test_load_embedding_table(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("bug 1.0 0.0\nlag 0.0 2.0\n")
    table = load_embedding_table(path)
    assert table.dim == 2
    assert np.array_equal(table.vectors["lag"], [0.0, 2.0])


def test_load_embedding_table_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("bug 1.0 0.0\nlag 0.0\n")
    with pytest.raises(DataError):
        load_embedding_table(path)


@pytest.mark.parametrize("line", [b"lag 0.0 two", b"lag 0.0 nan",
                                  b"lag 0.0 inf", b"l\xffg 0.0 2.0"])
def test_load_embedding_table_bad_line_names_file_and_line(tmp_path, line):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"bug 1.0 0.0\n" + line + b"\n")
    with pytest.raises(ParseError, match="emb.txt") as info:
        load_embedding_table(path)
    assert info.value.line == 2


def test_load_embedding_table_token_without_values_is_a_parse_error(
        tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("crash\nlag\n")
    with pytest.raises(ParseError, match="emb.txt") as info:
        load_embedding_table(path)
    assert info.value.line == 1
    assert "token 'crash' has no values" in str(info.value)


def test_assemble_embedding_without_a_table_is_an_error():
    seg, transcript, track, vocab = _mini_world()
    with pytest.raises(DataError, match="without a table"):
        _assemble([seg], transcript, track, _space(vocab, table=None))


# --- video / speech features ---------------------------------------------------

def _hist(dominant):
    h = np.zeros(48)
    for c in range(3):
        h[c * 16 + dominant] = 1.0
    return h


def _track(stamps, hists, luminance, duration_ms):
    """A track from its columns."""
    return VideoTrack("vid", np.array(stamps, dtype=np.int64),
                      np.array(hists).reshape(len(stamps), 48),
                      np.array(luminance, dtype=np.float64), duration_ms)


def _seg(start, end, cue_indices=(), video_id="vid", keyframes=()):
    return Segment(segment_id=f"{video_id}_{start}", video_id=video_id,
                   start_ms=start, end_ms=end, cue_indices=cue_indices,
                   keyframe_timestamps=keyframes)


def _video_by_name(track):
    """The video features of [0, 2000) by name."""
    return dict(zip(VIDEO_NAMES,
                    video_features([_seg(0, 2000)], {"vid": track})[0]))


def test_video_features_black_segment():
    track = _track([0, 500, 1000], [_hist(0)] * 3, [0.0] * 3, 2000)
    by = _video_by_name(track)
    assert by["video:luminance_mean"] == 0.0
    assert by["video:blank_fraction"] == 1.0
    assert by["video:had_video"] == 1.0


def test_video_features_constant_frames_zero_motion():
    track = _track([0, 500, 1000], [_hist(3)] * 3, [0.4] * 3, 2000)
    by = _video_by_name(track)
    assert by["video:motion_mean"] == 0.0
    assert by["video:motion_std"] == 0.0


def test_video_features_alternating_frames_motion_from_oracle():
    hists = [_hist(0), _hist(15), _hist(0), _hist(15)]
    track = _track([0, 500, 1000, 1500], hists, [0.0] * 4, 2000)
    by = _video_by_name(track)
    # independent brute-force L1 oracle
    expected = []
    for a, b in zip(hists, hists[1:]):
        expected.append(sum(abs(x - y) for x, y in zip(a, b)))
    assert by["video:motion_mean"] == pytest.approx(np.mean(expected))
    assert by["video:motion_std"] == pytest.approx(np.std(expected))
    assert by["video:motion_mean"] == pytest.approx(6.0)


def test_video_features_single_frame_flags_no_video():
    track = _track([100], [_hist(0)], [0.5], 2000)
    by = _video_by_name(track)
    assert by["video:had_video"] == 0.0
    assert by["video:motion_mean"] == 0.0


def _transcript(cue_specs):
    cues = [Cue(start_ms=s, end_ms=e, text=t) for s, e, t in cue_specs]
    return Transcript(video_id="vid", cues=cues)


def test_speech_features_no_cues_all_zero():
    values = speech_features([_seg(0, 5000)],
                             {"vid": Transcript(video_id="vid")})
    assert not values.any()


def test_speech_features_full_span_cue_density_one():
    t = _transcript([(0, 5000, "talking the whole time")])
    by = dict(zip(SPEECH_NAMES,
                  speech_features([_seg(0, 5000)], {"vid": t})[0]))
    assert by["speech:density"] == 1.0
    assert by["speech:n_cues"] == 1.0


def test_speech_features_words_per_second():
    t = _transcript([(0, 5000, "one two three four five six seven eight "
                               "nine ten")])
    by = dict(zip(SPEECH_NAMES,
                  speech_features([_seg(0, 5000)], {"vid": t})[0]))
    assert by["speech:words_per_second"] == 2.0


# --- assembly ---------------------------------------------------------------

def _mini_world():
    track = _track([0, 1000, 2000], [_hist(0)] * 3, [0.0] * 3, 4000)
    transcript = _transcript([(0, 2000, "the game crashed hard.")])
    seg = _seg(0, 4000, cue_indices=(1,))
    vocab = _fit(["game crashed", "lag spike"])
    return seg, transcript, track, vocab


def _space(vocab, groups=FEATURE_GROUPS, table=_table()):
    """The space of `groups` over `vocab` and `table`, with the default
    tokenizer settings."""
    return FeatureSpace(groups, vocab, **TEXT, embedding=table)


def _assemble(segments, transcript, track, space):
    """`assemble_features` on one video, with the segments' own texts."""
    texts = [segment_text(s, transcript) for s in segments]
    return assemble_features(
        segments, texts, document_terms(texts, space.ngram_max,
                                        space.stopwords),
        {"vid": transcript}, {"vid": track}, space)


def test_assemble_concatenates_groups_in_order():
    seg, transcript, track, vocab = _mini_world()
    matrix = _assemble([seg], transcript, track, _space(vocab))
    groups = [n.split(":", 1)[0] for n in matrix.names]
    assert groups == sorted(groups, key=["text", "embedding", "video",
                                         "speech"].index)
    assert len(matrix.values[0]) == len(vocab.terms) + 2 + 7 + 3


def test_assemble_rows_equal_one_segment_at_a_time():
    # each group's block is built for all segments at once; a row must not
    # depend on the other segments
    seg, transcript, track, vocab = _mini_world()
    transcript = _transcript([(0, 2000, "the game crashed hard."),
                              (2500, 3900, "lag spike, lag")])
    segments = [_seg(0, 2000, (1,)), _seg(2000, 4000, (2,)), _seg(0, 4000),
                _seg(1000, 4000, (1, 2))]
    matrix = _assemble(segments, transcript, track, _space(vocab))
    assert matrix.segment_ids == tuple(s.segment_id for s in segments)
    for k, segment in enumerate(segments):
        alone = _assemble([segment], transcript, track, _space(vocab))
        assert alone.names == matrix.names
        assert alone.values[0].tobytes() == matrix.values[k].tobytes()


@pytest.mark.parametrize("groups", [FEATURE_GROUPS, ("speech", "text"),
                                    ("video",), ("embedding",)])
def test_assembled_columns_are_the_feature_names(groups):
    seg, transcript, track, vocab = _mini_world()
    space = _space(vocab, groups)
    matrix = _assemble([seg], transcript, track, space)
    assert matrix.names == space.names
    assert matrix.values.shape == (1, len(matrix.names))


def test_assemble_without_segments_is_an_empty_matrix():
    _, transcript, track, vocab = _mini_world()
    matrix = _assemble([], transcript, track, _space(vocab))
    assert matrix.values.shape == (0, len(vocab.terms) + 2 + 7 + 3)


def test_matrix_rejects_nan():
    with pytest.raises(DataError):
        FeatureMatrix(segment_ids=("s",), names=("x",),
                      values=np.array([[np.nan]]))


def test_matrix_rejects_shape_mismatch():
    with pytest.raises(DataError):
        FeatureMatrix(segment_ids=("s", "t"), names=("x",),
                      values=np.array([[1.0, 2.0]]))


@given(st.text(max_size=60),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_features_always_finite(text, seed):
    rng = np.random.default_rng(seed)
    n_frames = int(rng.integers(0, 4))
    hists, lums = [], []
    for _ in range(n_frames):
        raw = rng.random((4, 4, 3))
        hist, lum = compute_histogram((raw * 255).astype(np.uint8))
        hists.append(hist)
        lums.append(lum)
    track = _track([i * 500 for i in range(n_frames)], hists, lums, 5000)
    transcript = _transcript([(0, 2500, text.replace("\n", " ") or "x")]) \
        if text.strip() else Transcript(video_id="vid")
    seg = _seg(0, 5000, cue_indices=(1,) if transcript.cues else ())
    vocab = _fit(["fallback token"])
    matrix = _assemble([seg], transcript, track, _space(vocab))
    assert np.all(np.isfinite(matrix.values))


# --- vocabulary and feature CSV files ---------------------------------------

@pytest.mark.parametrize("obj", [
    {"schema_version": 1},
    [],
    {"schema_version": 1, "terms": "bug", "document_frequencies": [1],
     "n_documents": 1},
    {"schema_version": 1, "terms": ["bug"], "document_frequencies": [1.5],
     "n_documents": 2},
    {"schema_version": 1, "terms": ["bug"], "document_frequencies": [1],
     "n_documents": None},
    {"schema_version": 1, "terms": ["bug", "lag"],
     "document_frequencies": [1], "n_documents": 1},
])
def test_vocabulary_from_bad_dict_is_data_error(obj):
    with pytest.raises(DataError):
        Vocabulary.from_dict(obj)


@pytest.mark.parametrize("groups, table", [
    (FEATURE_GROUPS, _table()), (("speech", "text"), None),
    (("video",), _table())])
def test_feature_space_round_trips_through_its_dict(groups, table):
    space = FeatureSpace(groups, _fit(["the bug lag", "bug bug"], 2, {"the"}),
                         2, frozenset({"the", "a"}), table)
    obj = json.loads(json.dumps(space.to_dict()))
    assert sorted(obj) == sorted(SPACE_SHAPE)
    again = FeatureSpace.from_dict(obj)
    assert again.to_dict() == space.to_dict()
    assert again.names == space.names
    assert (again.feature_groups, again.stopwords) == (groups, space.stopwords)


@pytest.mark.parametrize("edit, where", [
    (lambda obj: obj.pop("ngram_max"), "$.ngram_max"),
    (lambda obj: obj.update(ngram_max=3), "$.ngram_max"),
    (lambda obj: obj.update(feature_groups=["audio"]), "$.feature_groups[0]"),
    (lambda obj: obj["vocabulary"].pop("terms"), "$.vocabulary.terms"),
    (lambda obj: obj.update(embedding={"bug": [1.0, "x"]}), "$.embedding:"),
    (lambda obj: obj.update(embedding={"bug": [1.0], "lag": [1.0, 2.0]}),
     "embedding for 'lag' has dimension (2,), expected (1,)"),
    (lambda obj: obj.update(embedding=None), "without a table"),
    (lambda obj: obj.update(embedding={"crash": [], "lag": []}),
     "embedding dimension 0, expected >= 1"),
])
def test_feature_space_from_bad_dict_names_the_fault(edit, where):
    obj = _space(_fit(["bug lag"])).to_dict()
    edit(obj)
    with pytest.raises(DataError, match=re.escape(where)):
        FeatureSpace.from_dict(obj)


def test_feature_csv_round_trip():
    matrix = FeatureMatrix(segment_ids=("s1", "s2"), names=("a", "b"),
                           values=np.array([[1.5, -2.0], [0.0, 3.25]]))
    again = read_feature_csv(write_feature_csv(matrix))
    assert again.segment_ids == ("s1", "s2")
    assert np.array_equal(again.values[0], [1.5, -2.0])


def test_feature_csv_round_trip_is_exact():
    values = np.array([0.1 + 0.2, 1 / 3, 5e-324, -2.5e17, 0.0])
    matrix = FeatureMatrix(segment_ids=("s1",), names=tuple("abcde"),
                           values=values[None, :])
    again = read_feature_csv(write_feature_csv(matrix))
    assert again.values[0].tobytes() == values.tobytes()


def test_feature_csv_rows_end_at_lf_only():
    matrix = FeatureMatrix(segment_ids=("s\u2028a", "s\x85b"),
                           names=("a", "b"),
                           values=np.array([[1.5, -2.0], [0.0, 3.25]]))
    text = write_feature_csv(matrix)
    for again in (read_feature_csv(text), read_feature_csv(
            utf8_text(text.replace("\n", "\r\n").encode()))):
        assert (again.segment_ids, again.names) == (matrix.segment_ids,
                                                    matrix.names)
        assert again.values.tobytes() == matrix.values.tobytes()


def test_feature_csv_repeating_a_segment_id_names_file_and_line():
    text = "segment_id,a\ns1,1.0\ns2,2.0\ns1,3.0\n"
    with pytest.raises(ParseError, match="^f.csv:4: segment_id 's1' "
                       "repeats an earlier row$"), naming("f.csv"):
        read_feature_csv(text)


# --- SMOTE ------------------------------------------------------------------------

def test_smote_balanced_input_unchanged():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array(["a", "a", "b", "b"])
    x2, y2 = smote_oversample(x, y, k_neighbors=1, seed=0)
    assert np.array_equal(x2, x)
    assert np.array_equal(y2, y)


def test_smote_pair_synthetic_on_segment():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0],
                  [10.0, 10.0], [11.0, 11.0]])
    y = np.array(["maj", "maj", "maj", "maj", "min", "min"])
    x2, y2 = smote_oversample(x, y, k_neighbors=1, seed=7)
    assert (y2 == "min").sum() == 4
    a, b = x[4], x[5]
    for synth in x2[6:]:
        direction = b - a
        t = np.dot(synth - a, direction) / np.dot(direction, direction)
        assert -1e-12 <= t <= 1 + 1e-12
        assert np.allclose(synth, a + t * direction)


def test_smote_grows_to_majority_within_bounding_box():
    rng = np.random.default_rng(123)
    x_major = rng.normal(0, 1, size=(4, 3))
    x_minor = rng.normal(5, 1, size=(2, 3))
    x = np.vstack([x_major, x_minor])
    y = np.array(["a"] * 4 + ["b"] * 2)
    x2, y2 = smote_oversample(x, y, k_neighbors=1, seed=99)
    assert (y2 == "a").sum() == 4 and (y2 == "b").sum() == 4
    lo, hi = x_minor.min(axis=0), x_minor.max(axis=0)
    for synth in x2[6:]:
        assert np.all(synth >= lo - 1e-12) and np.all(synth <= hi + 1e-12)


def test_smote_singleton_class_is_error():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array(["a", "a", "b"])
    with pytest.raises(DataError, match="single member"):
        smote_oversample(x, y, k_neighbors=5, seed=0)


@pytest.mark.parametrize("names, named", [(None, "f0"), (("big",), "big")],
                         ids=["default_name", "given_name"])
def test_smote_overflowing_column_is_named(names, named):
    x = np.array([[1e308], [-1e308], [0.0], [1.0], [2.0]])
    y = np.array(["a", "a", "b", "b", "b"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^feature '{named}' is too "
                           "large for SMOTE"):
            smote_oversample(x, y, k_neighbors=2, seed=0, names=names)


def test_smote_neighbour_search_holds_row_blocks_not_the_class():
    """A 400 x 341 minority class under an 800-row majority: its pairwise
    differences are taken a few rows at a time, never as a 400 x 400 x
    341 array (373 MiB)."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1200, 341))
    y = np.array(["a"] * 800 + ["b"] * 400)
    tracemalloc.start()
    try:
        x2, _ = smote_oversample(x, y, k_neighbors=5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x2.shape == (1600, 341)
    assert peak < 64 << 20


def test_smote_synthetics_lie_between_same_class_originals():
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(0, 1, size=(8, 4)),
                   rng.normal(4, 1, size=(3, 4))])
    y = np.array(["a"] * 8 + ["b"] * 3)
    x2, y2 = smote_oversample(x, y, k_neighbors=2, seed=21)
    originals = x[y == "b"]
    for synth, label in zip(x2[11:], y2[11:]):
        assert label == "b"
        on_some_segment = False
        for i in range(len(originals)):
            for j in range(len(originals)):
                if i == j:
                    continue
                d = originals[j] - originals[i]
                t = np.dot(synth - originals[i], d) / np.dot(d, d)
                if -1e-9 <= t <= 1 + 1e-9 and np.allclose(
                        synth, originals[i] + t * d, atol=1e-9):
                    on_some_segment = True
        assert on_some_segment


def test_smote_deterministic_with_seed():
    x = np.vstack([np.zeros((5, 2)), np.ones((2, 2)) + np.arange(2)])
    y = np.array(["a"] * 5 + ["b"] * 2)
    out1 = smote_oversample(x, y, k_neighbors=5, seed=4)
    out2 = smote_oversample(x, y, k_neighbors=5, seed=4)
    assert np.array_equal(out1[0], out2[0])
