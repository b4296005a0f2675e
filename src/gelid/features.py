"""Segment feature extraction and class rebalancing.

A stage's features are one `FeatureMatrix`: a row per segment and a named
column per feature, laid out as one block per selected group in
`FEATURE_GROUPS` order, as its `FeatureSpace` names them. Names carry a
`group:` prefix. Raw audio is out of scope, so speech-timing statistics
derived from subtitle cues stand in for vocal activity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import _BLOCK_BYTES
from .errors import (DataError, ParseError, check_shape, naming,
                     positive_int, read_text)
from .frames import VideoTrack
from .segmentation import Segment
from .subtitles import Transcript

FEATURE_GROUPS = ("text", "embedding", "video", "speech")
NGRAM_MAX = {1, 2}  # the n-gram orders a vocabulary can hold
BLANK_LUMINANCE = 0.05

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercased maximal alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class FeatureMatrix:
    """One row of named feature values per segment."""

    segment_ids: tuple[str, ...]
    names: tuple[str, ...]
    values: np.ndarray  # (len(segment_ids), len(names))

    def __post_init__(self):
        if self.values.shape != (len(self.segment_ids), len(self.names)):
            raise DataError(f"{self.values.shape} feature values for "
                            f"{len(self.segment_ids)} segments x "
                            f"{len(self.names)} names")
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature matrix contains NaN or Inf")


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]
    document_frequencies: tuple[int, ...]
    n_documents: int

    def __post_init__(self):
        if len(self.terms) != len(set(self.terms)):
            raise DataError("vocabulary terms must be unique")
        if len(self.document_frequencies) != len(self.terms):
            raise DataError(f"{len(self.document_frequencies)} document "
                            f"frequencies for {len(self.terms)} terms")
        if any(not 1 <= df <= self.n_documents
               for df in self.document_frequencies):
            raise DataError("document frequencies must lie in "
                            "[1, n_documents]")

    def to_dict(self) -> dict:
        return {"schema_version": 1, "terms": list(self.terms),
                "document_frequencies": list(self.document_frequencies),
                "n_documents": self.n_documents}

    @staticmethod
    def from_dict(obj, where: str = "$") -> "Vocabulary":
        """A `to_dict` value; any other shape is a DataError naming
        `where`, the JSON path of `obj`."""
        check_shape(obj, VOCABULARY_SHAPE, where)
        return Vocabulary(tuple(obj["terms"]),
                          tuple(obj["document_frequencies"]),
                          obj["n_documents"])


VOCABULARY_SHAPE = {"schema_version": {1}, "terms": [str],
                    "document_frequencies": [int], "n_documents": int}


def document_terms(texts, ngram_max: int, stopwords) -> list[list[str]]:
    """The terms of each text that `fit_vocabulary` and `text_features`
    count: its tokens less the stopwords and, when ngram_max is 2, the
    bigrams of those tokens."""
    check_shape(ngram_max, NGRAM_MAX, "ngram_max")
    stopwords = frozenset(stopwords)
    documents, distinct = [], {}
    for text in texts:
        terms = [t for t in tokenize(text) if t not in stopwords]
        if ngram_max >= 2:
            terms += [f"{a} {b}" for a, b in zip(terms, terms[1:])]
        # one string per distinct term: a stage holds every document
        # from the vocabulary fit to the tf-idf block
        documents.append([distinct.setdefault(t, t) for t in terms])
    return documents


def fit_vocabulary(documents: list[list[str]], min_df: int) -> Vocabulary:
    """Fit a bag-of-words vocabulary on the `document_terms` of training
    texts only."""
    if not documents:
        raise DataError("cannot fit a vocabulary on zero documents")
    df: dict[str, int] = {}
    any_tokens = False
    for terms in documents:
        terms = set(terms)
        any_tokens = any_tokens or bool(terms)
        for term in terms:
            df[term] = df.get(term, 0) + 1
    if not any_tokens:
        raise DataError("all documents are empty after tokenization")
    kept = sorted(t for t, c in df.items() if c >= min_df)
    if not kept:
        raise DataError(f"no surviving terms with min_df={min_df}")
    return Vocabulary(terms=tuple(kept),
                      document_frequencies=tuple(df[t] for t in kept),
                      n_documents=len(documents))


def text_features(documents: list[list[str]], vocab: Vocabulary
                  ) -> np.ndarray:
    """(n, terms) tf-idf weights over the fitted vocabulary, one
    L2-normalized row per text's `document_terms`.

    tf is the raw in-segment count; idf = ln((1+N)/(1+df)) + 1. Terms
    outside the vocabulary are ignored; empty text gives the zero vector.
    A row's norm is the square root of its own BLAS dot with itself, the
    one `np.linalg.norm` takes.
    """
    index = {t: i for i, t in enumerate(vocab.terms)}
    idf = np.log((1 + vocab.n_documents)
                 / (1 + np.asarray(vocab.document_frequencies))) + 1.0
    out = np.zeros((len(documents), len(vocab.terms)))
    # each occurrence adds 1.0 to its (row, term) cell: exact counts,
    # written straight into the float block; a generator, so that no list
    # holds every cell's int at once
    cells = np.fromiter((row * out.shape[1] + i
                         for row, terms in enumerate(documents)
                         for i in map(index.get, terms) if i is not None),
                        dtype=np.intp)
    np.add.at(out.reshape(-1), cells, 1.0)
    out *= idf
    norms = np.sqrt(np.matmul(out[:, None, :], out[:, :, None]))
    out /= np.where(norms > 0, norms, 1.0).reshape(-1, 1)  # zero rows stay
    return out


@dataclass(frozen=True)
class EmbeddingTable:
    vectors: dict[str, np.ndarray]
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DataError(f"embedding dimension {self.dim}, expected >= 1")
        for token, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise DataError(f"embedding for {token!r} has dimension "
                                f"{vec.shape}, expected ({self.dim},)")


def load_embedding_table(path: str | Path) -> EmbeddingTable:
    """Read `token v1 ... vd` lines (pretrained; never trained here); a
    line that holds a token alone or a non-finite value is a ParseError."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with naming(path):
        for line_no, line in enumerate(read_text(path).split("\n"), start=1):
            try:
                parts = line.split()
                if len(parts) == 1:
                    raise ValueError(f"token {parts[0]!r} has no values")
                vec = np.array([float(v) for v in parts[1:]])
                if not np.all(np.isfinite(vec)):
                    raise ValueError("embedding values must be finite")
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from None
            if not parts:
                continue
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise DataError(f"embedding dimension {vec.size} != {dim}",
                                line_no)
            vectors[parts[0]] = vec
        if not vectors:
            raise DataError("empty embedding table")
    return EmbeddingTable(vectors=vectors, dim=dim)


def embedding_features(texts: list[str], table: EmbeddingTable
                       ) -> np.ndarray:
    """(n, dim): per text, the mean of the vectors of its in-table tokens;
    a zero row when none hit."""
    if not table.vectors:
        raise DataError("embedding table is empty")
    out = np.zeros((len(texts), table.dim))
    for row, text in zip(out, texts):
        hits = [table.vectors[t] for t in tokenize(text) if t in table.vectors]
        if hits:
            row[:] = np.mean(hits, axis=0)
    return out


VIDEO_NAMES = ("video:duration_s", "video:n_frames", "video:motion_mean",
               "video:motion_std", "video:luminance_mean",
               "video:blank_fraction", "video:had_video")


def _windows_by_video(segments: list[Segment]
                      ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per video: the positions of its segments in `segments`, and their
    (start, end) times as a (2, k) int64 array."""
    positions: dict[str, list[int]] = {}
    for i, segment in enumerate(segments):
        positions.setdefault(segment.video_id, []).append(i)
    bounds = np.array([(s.start_ms, s.end_ms) for s in segments],
                      dtype=np.int64).reshape(-1, 2)
    return {video_id: (np.array(at), bounds[at].T)
            for video_id, at in positions.items()}


def _slice_sums(column: np.ndarray, lo: np.ndarray, hi: np.ndarray
                ) -> np.ndarray:
    """np.add.reduce of column[lo:hi] for each window: the sum np.mean
    and np.std take of that slice, rounded as they round it."""
    return np.array([np.add.reduce(column[a:b])
                     for a, b in zip(lo.tolist(), hi.tolist())], dtype=float)


def _mean_std(column: np.ndarray, lo: np.ndarray, hi: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """The bits of column[lo:hi].mean() and .std() for each non-empty
    window: np.std subtracts the slice's mean, squares in place and sums
    the squares over the slice."""
    sizes = hi - lo
    means = _slice_sums(column, lo, hi) / sizes
    ends = np.cumsum(sizes)
    # the windows' rows one after another, each less its window's mean
    deviations = column[np.arange(sizes.sum())
                        + np.repeat(lo - ends + sizes, sizes)]
    deviations -= np.repeat(means, sizes)
    deviations *= deviations
    return means, np.sqrt(_slice_sums(deviations, ends - sizes, ends)
                          / sizes)


def video_features(segments: list[Segment],
                   tracks: dict[str, VideoTrack]) -> np.ndarray:
    """(n, 7): per segment, six motion/luminance statistics of the frames
    in its window plus a had_video flag, in `VIDEO_NAMES` order.

    Segments with fewer than 2 frames get zero motion and had_video=0;
    empty video is itself a signal (likely non-informative).
    """
    out = np.zeros((len(segments), len(VIDEO_NAMES)))
    for video_id, (at, bounds) in _windows_by_video(segments).items():
        track = tracks[video_id]
        lo, hi = np.searchsorted(track.timestamps_ms, bounds)
        sizes = hi - lo
        out[at, 0] = (bounds[1] - bounds[0]) / 1000.0
        out[at, 1] = sizes
        moving = sizes >= 2
        out[at[moving], 2:4] = np.column_stack(
            _mean_std(track.motion, lo[moving], hi[moving] - 1))
        out[at[moving], 6] = 1.0
        seen = sizes > 0
        lo, hi = lo[seen], hi[seen]
        out[at[seen], 4] = (_slice_sums(track.luminance, lo, hi)
                            / sizes[seen])
        blank = np.concatenate(
            ([0], np.cumsum(track.luminance < BLANK_LUMINANCE)))
        out[at[seen], 5] = (blank[hi] - blank[lo]) / sizes[seen]
    return out


SPEECH_NAMES = ("speech:density", "speech:words_per_second", "speech:n_cues")


def speech_features(segments: list[Segment],
                    transcripts: dict[str, Transcript]) -> np.ndarray:
    """(n, 3): per segment, speech-timing statistics over the cues that
    overlap its window, in `SPEECH_NAMES` order."""
    out = np.zeros((len(segments), len(SPEECH_NAMES)))
    for video_id, (at, (start, end)) in _windows_by_video(segments).items():
        cues = transcripts[video_id].cues
        starts = np.array([c.start_ms for c in cues], dtype=np.int64)
        ends = np.array([c.end_ms for c in cues], dtype=np.int64)
        words = np.array([len(c.text.split()) for c in cues], dtype=np.int64)
        # cues from `hi` on start at or after the end; cues before `lo`
        # (and all earlier ones) end at or before the start
        lo = np.searchsorted(np.maximum.accumulate(ends), start, side="right")
        hi = np.searchsorted(starts, end, side="left")
        # one (segment, cue) pair per cue in lo:hi
        counts = np.maximum(hi - lo, 0)
        pair_seg = np.repeat(np.arange(at.size), counts)
        pair_cue = (np.arange(pair_seg.size)
                    + np.repeat(lo - np.cumsum(counts) + counts, counts))
        overlap = (np.minimum(ends[pair_cue], end[pair_seg])
                   - np.maximum(starts[pair_cue], start[pair_seg]))
        hit = overlap > 0
        pair_seg, pair_cue = pair_seg[hit], pair_cue[hit]
        # int64 sums, then the divisions one segment's scalars would make
        overlap_ms = np.zeros(at.size, dtype=np.int64)
        np.add.at(overlap_ms, pair_seg, overlap[hit])
        n_words = np.zeros(at.size, dtype=np.int64)
        np.add.at(n_words, pair_seg, words[pair_cue])
        out[at, 2] = np.bincount(pair_seg, minlength=at.size)
        duration = end - start
        timed = duration != 0
        out[at[timed], 0] = overlap_ms[timed] / duration[timed]
        out[at[timed], 1] = n_words[timed] / (duration[timed] / 1000.0)
    return out


@dataclass(frozen=True)
class FeatureSpace:
    """What each feature column means: the selected groups, the fitted
    vocabulary, the tokenizer settings and the embedding table. Each field
    is its key in `to_dict`; a classifier bundle is a model and its space.
    """

    feature_groups: tuple[str, ...]
    vocabulary: Vocabulary
    ngram_max: int
    stopwords: frozenset[str]
    embedding: EmbeddingTable | None = None

    def __post_init__(self):
        if "embedding" in self.feature_groups and self.embedding is None:
            raise DataError("embedding features requested without a table")

    @property
    def names(self) -> tuple[str, ...]:
        """The columns: one block per selected group, in `FEATURE_GROUPS`
        order."""
        blocks = {"text": [f"text:{t}" for t in self.vocabulary.terms],
                  "video": VIDEO_NAMES, "speech": SPEECH_NAMES}
        if self.embedding is not None:
            blocks["embedding"] = [f"embedding:{i}"
                                   for i in range(self.embedding.dim)]
        return tuple(name for group in FEATURE_GROUPS
                     if group in self.feature_groups for name in blocks[group])

    def to_dict(self) -> dict:
        return {"feature_groups": list(self.feature_groups),
                "vocabulary": self.vocabulary.to_dict(),
                "ngram_max": self.ngram_max,
                "stopwords": sorted(self.stopwords),
                "embedding": None if self.embedding is None else {
                    tok: vec.tolist()
                    for tok, vec in sorted(self.embedding.vectors.items())}}

    @staticmethod
    def from_dict(obj, where: str = "$") -> "FeatureSpace":
        """A `to_dict` value, which may hold other keys; any other shape is
        a DataError naming `where`, the JSON path of `obj`."""
        check_shape(obj, SPACE_SHAPE, where)
        vectors = {tok: np.array(vec, dtype=float)
                   for tok, vec in (obj["embedding"] or {}).items()}
        return FeatureSpace(
            tuple(obj["feature_groups"]),
            Vocabulary.from_dict(obj["vocabulary"], f"{where}.vocabulary"),
            obj["ngram_max"], frozenset(obj["stopwords"]),
            EmbeddingTable(vectors, next(iter(vectors.values())).size)
            if vectors else None)


SPACE_SHAPE = {"feature_groups": [set(FEATURE_GROUPS)], "vocabulary": dict,
               "ngram_max": NGRAM_MAX, "stopwords": [str],
               "embedding": ({str: [float]}, {None})}


def assemble_features(segments: list[Segment], texts: list[str],
                      documents: list[list[str]],
                      transcripts: dict[str, Transcript],
                      tracks: dict[str, VideoTrack],
                      space: FeatureSpace) -> FeatureMatrix:
    """The segments' feature matrix, with the columns `space.names` gives;
    `texts` holds each segment's `segment_text`, and `documents` their
    `document_terms` under `space.ngram_max` and `space.stopwords`."""
    build = {"text": lambda: text_features(documents, space.vocabulary),
             "embedding": lambda: embedding_features(texts, space.embedding),
             "video": lambda: video_features(segments, tracks),
             "speech": lambda: speech_features(segments, transcripts)}
    blocks = [build[group]() for group in FEATURE_GROUPS
              if group in space.feature_groups]
    values = np.hstack(blocks) if blocks else np.zeros((len(segments), 0))
    return FeatureMatrix(segment_ids=tuple(s.segment_id for s in segments),
                         names=space.names, values=values)


def segment_text(segment: Segment, transcript: Transcript) -> str:
    """The text of the segment's cues in transcript order, each once; an
    index that names no cue is ignored."""
    cues = transcript.cues
    return " ".join(cues[i - 1].text for i in sorted(set(segment.cue_indices))
                    if 0 < i <= len(cues))


def smote_oversample(x: np.ndarray, y: np.ndarray, k_neighbors: int,
                     seed: int, names=None) -> tuple[np.ndarray, np.ndarray]:
    """Grow every minority class to the majority count with SMOTE.

    Synthetic points are x + u * (nn - x) with u ~ Uniform(0, 1) and nn one
    of the k nearest same-class neighbors by Euclidean distance. Originals
    are preserved and come first in the output. A DataError names the
    column (from `names`, else f0, f1, ...) with the largest gap when a
    class's distances overflow.
    """
    check_shape(k_neighbors, positive_int, "k_neighbors")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError("x must be (n, d) with one label per row")
    classes, counts = np.unique(y, return_counts=True)
    majority = counts.max()
    rng = np.random.default_rng(seed)
    synth_x: list[np.ndarray] = []
    synth_y: list = []
    for cls, count in zip(classes, counts):
        if count == majority:
            continue
        if count < 2:
            raise DataError(
                f"class {cls!r} has a single member; SMOTE needs >= 2 "
                f"(lower k_neighbors or drop the class)")
        members = x[y == cls]
        k = min(k_neighbors, count - 1)
        # pairwise distances within the class; self excluded via inf
        dists = np.empty((count, count))
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, diffs in _pair_differences(members):
                diffs *= diffs
                diffs.sum(axis=2, out=dists[rows])
            np.sqrt(dists, out=dists)
            if not np.isfinite(dists).all():
                gaps = np.max([np.abs(diffs).max(axis=(0, 1)) for _, diffs
                               in _pair_differences(members)], axis=0)
                j = int(np.argmax(gaps))
                name = names[j] if names is not None else f"f{j}"
                raise DataError(f"feature {name!r} is too large for SMOTE: "
                                f"the distances between class {cls!r} rows "
                                f"overflow")
        np.fill_diagonal(dists, np.inf)
        neighbor_ids = np.argsort(dists, axis=1, kind="stable")[:, :k]
        for _ in range(majority - count):
            base = int(rng.integers(count))
            nn = members[neighbor_ids[base][int(rng.integers(k))]]
            u = rng.random()
            synth_x.append(members[base] + u * (nn - members[base]))
            synth_y.append(cls)
    if not synth_x:
        return x.copy(), y.copy()
    return (np.vstack([x, np.array(synth_x)]),
            np.concatenate([y, np.array(synth_y, dtype=y.dtype)]))


def _pair_differences(members: np.ndarray):
    """(rows, members[rows, None, :] - members[None, :, :]) for blocks of
    rows, each difference array near _BLOCK_BYTES."""
    step = max(1, _BLOCK_BYTES // max(members.nbytes, 1))
    for at in range(0, members.shape[0], step):
        rows = slice(at, at + step)
        yield rows, members[rows, None, :] - members[None, :, :]


def write_feature_csv(matrix: FeatureMatrix) -> str:
    """CSV with a header row of feature names; one row per segment.

    Values are written with `repr`, so reading the file back gives every
    float bit for bit."""
    lines = [",".join(("segment_id",) + matrix.names)]
    for sid, row in zip(matrix.segment_ids, matrix.values.tolist()):
        lines.append(",".join([sid] + [repr(v) for v in row]))
    return "\n".join(lines) + "\n"


def read_feature_csv(text: str) -> FeatureMatrix:
    """The matrix of a `write_feature_csv` file's text, as `read_text`
    gives it, one row per segment_id; a bad row's error names its line."""
    # split at LF only: a segment id may hold other line breaks
    lines = [(no, ln) for no, ln in enumerate(text.split("\n"), start=1)
             if ln.strip()]
    if not lines:
        raise DataError("empty feature CSV")
    header = lines[0][1].split(",")
    if header[0] != "segment_id":
        raise DataError("the first column must be segment_id")
    names = tuple(header[1:])
    rows: dict[str, list[float]] = {}
    for line_no, ln in lines[1:]:
        cells = ln.split(",")
        try:
            if cells[0] in rows:
                raise ValueError(f"segment_id {cells[0]!r} repeats an "
                                 f"earlier row")
            row = [float(v) for v in cells[1:]]
            if len(row) != len(names) or not all(map(math.isfinite, row)):
                raise ValueError(f"expected {len(names)} finite values")
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        rows[cells[0]] = row
    return FeatureMatrix(segment_ids=tuple(rows), names=names,
                         values=np.reshape(list(rows.values()),
                                           (len(rows), len(names))))
