"""Segment feature extraction and class rebalancing.

A stage's features are one `FeatureMatrix`: a row per segment and a named
column per feature, laid out as one block per selected group in
`FEATURE_GROUPS` order, as its `FeatureSpace` names them. Names carry a
`group:` prefix. Raw audio is out of scope, so speech-timing statistics
derived from subtitle cues stand in for vocal activity.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError, check_shape, positive_int
from .frames import VideoTrack
from .segmentation import Segment
from .subtitles import Transcript

log = logging.getLogger(__name__)

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


def _document_terms(text: str, ngram_max: int, stopwords: frozenset[str]
                    ) -> list[str]:
    tokens = [t for t in tokenize(text) if t not in stopwords]
    terms = list(tokens)
    if ngram_max >= 2:
        terms += [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    return terms


def fit_vocabulary(texts, ngram_max: int, stopwords, min_df: int
                   ) -> Vocabulary:
    """Fit a bag-of-words vocabulary on training texts only."""
    check_shape(ngram_max, NGRAM_MAX, "ngram_max")
    stopwords = frozenset(stopwords)
    texts = list(texts)
    if not texts:
        raise DataError("cannot fit a vocabulary on zero documents")
    df: dict[str, int] = {}
    any_tokens = False
    for text in texts:
        terms = set(_document_terms(text, ngram_max, stopwords))
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
                      n_documents=len(texts))


def text_features(texts: list[str], vocab: Vocabulary, ngram_max: int,
                  stopwords) -> np.ndarray:
    """(n, terms) tf-idf weights over the fitted vocabulary, one
    L2-normalized row per text.

    tf is the raw in-segment count; idf = ln((1+N)/(1+df)) + 1. Tokens
    outside the vocabulary are ignored; empty text gives the zero vector.
    """
    stopwords = frozenset(stopwords)
    index = {t: i for i, t in enumerate(vocab.terms)}
    idf = np.log((1 + vocab.n_documents)
                 / (1 + np.asarray(vocab.document_frequencies))) + 1.0
    out = np.zeros((len(texts), len(vocab.terms)))
    for row, text in zip(out, texts):
        for term in _document_terms(text, ngram_max, stopwords):
            i = index.get(term)
            if i is not None:
                row[i] += 1.0
        row *= idf
        norm = np.linalg.norm(row)
        if norm > 0:
            row /= norm
    return out


@dataclass(frozen=True)
class EmbeddingTable:
    vectors: dict[str, np.ndarray]
    dim: int

    def __post_init__(self):
        for token, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise DataError(f"embedding for {token!r} has dimension "
                                f"{vec.shape}, expected ({self.dim},)")


def load_embedding_table(path: str | Path) -> EmbeddingTable:
    """Read `token v1 ... vd` lines (pretrained; never trained here); a
    line that is not UTF-8 or holds a non-finite value is a ParseError."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for line_no, line in enumerate(Path(path).read_bytes().splitlines(),
                                   start=1):
        try:  # UnicodeDecodeError is a ValueError
            parts = line.decode("utf-8").split()
            vec = np.array([float(v) for v in parts[1:]])
            if not np.all(np.isfinite(vec)):
                raise ValueError("embedding values must be finite")
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line_no) from None
        if not parts:
            continue
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DataError(f"{path}:{line_no}: embedding dimension "
                            f"{vec.size} != {dim}")
        vectors[parts[0]] = vec
    if not vectors:
        raise DataError(f"{path}: empty embedding table")
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


def video_features(segments: list[Segment],
                   tracks: dict[str, VideoTrack]) -> np.ndarray:
    """(n, 7): per segment, six motion/luminance statistics of the frames
    in its window plus a had_video flag, in `VIDEO_NAMES` order.

    Segments with fewer than 2 frames get zero motion and had_video=0;
    empty video is itself a signal (likely non-informative).
    """
    out = np.zeros((len(segments), len(VIDEO_NAMES)))
    for row, segment in zip(out, segments):
        track = tracks[segment.video_id]
        rows = track.window(segment.start_ms, segment.end_ms)
        luminance = track.luminance[rows]
        row[:2] = segment.duration_ms / 1000.0, luminance.size
        if luminance.size >= 2:
            hists = track.histograms[rows]
            motion = np.abs(np.diff(hists, axis=0)).sum(axis=1)
            row[2:4] = motion.mean(), motion.std()
            row[6] = 1.0
        if luminance.size:
            row[4:6] = luminance.mean(), (luminance < BLANK_LUMINANCE).mean()
    return out


SPEECH_NAMES = ("speech:density", "speech:words_per_second", "speech:n_cues")


def speech_features(segments: list[Segment],
                    transcripts: dict[str, Transcript]) -> np.ndarray:
    """(n, 3): per segment, speech-timing statistics over the cues that
    overlap its window, in `SPEECH_NAMES` order."""
    out = np.zeros((len(segments), len(SPEECH_NAMES)))
    columns = {}  # per video: cue starts, ends, word counts and reach
    for row, segment in zip(out, segments):
        if segment.video_id not in columns:
            cues = sorted(transcripts[segment.video_id].cues,
                          key=lambda c: c.start_ms)
            ends = np.array([c.end_ms for c in cues], dtype=np.int64)
            columns[segment.video_id] = (
                np.array([c.start_ms for c in cues], dtype=np.int64), ends,
                np.array([len(c.text.split()) for c in cues], dtype=np.int64),
                np.maximum.accumulate(ends))
        starts, ends, words, reach = columns[segment.video_id]
        start, end = segment.start_ms, segment.end_ms
        # cues past `hi` start at or after the end; cues before `lo` (and
        # all earlier ones) end at or before the start
        lo = int(np.searchsorted(reach, start, side="right"))
        hi = int(np.searchsorted(starts, end, side="left"))
        overlap = (np.minimum(ends[lo:hi], end)
                   - np.maximum(starts[lo:hi], start))
        hit = overlap > 0
        row[2] = hit.sum()
        if segment.duration_ms:
            row[:2] = (int(overlap[hit].sum()) / segment.duration_ms,
                       int(words[lo:hi][hit].sum())
                       / (segment.duration_ms / 1000.0))
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
                      transcripts: dict[str, Transcript],
                      tracks: dict[str, VideoTrack],
                      space: FeatureSpace) -> FeatureMatrix:
    """The segments' feature matrix, with the columns `space.names` gives;
    `texts` holds each segment's `segment_text`."""
    build = {"text": lambda: text_features(texts, space.vocabulary,
                                           space.ngram_max, space.stopwords),
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
    index that names no cue is ignored. Cue `i` must be the transcript's
    `i`-th cue, as `subtitles` numbers every transcript it parses."""
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
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = members[:, None, :] - members[None, :, :]
            dists = np.sqrt((diffs ** 2).sum(axis=2))
        if not np.isfinite(dists).all():
            gaps = np.abs(diffs).max(axis=(0, 1))
            j = int(np.argmax(gaps))
            name = names[j] if names is not None else f"f{j}"
            raise DataError(f"feature {name!r} is too large for SMOTE: the "
                            f"distances between class {cls!r} rows overflow")
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


def write_feature_csv(matrix: FeatureMatrix) -> str:
    """CSV with a header row of feature names; one row per segment.

    Values are written with `repr`, so reading the file back gives every
    float bit for bit."""
    lines = [",".join(("segment_id",) + matrix.names)]
    for sid, row in zip(matrix.segment_ids, matrix.values.tolist()):
        lines.append(",".join([sid] + [repr(v) for v in row]))
    return "\n".join(lines) + "\n"


def read_feature_csv(text: str, path: str = "features.csv") -> FeatureMatrix:
    """The matrix of a `write_feature_csv` file, one row per segment_id;
    `path` names it in errors, with the line of a bad row."""
    # rows end at LF only: a segment id may hold other line breaks
    lines = [(no, ln.rstrip("\r")) for no, ln in
             enumerate(text.split("\n"), start=1) if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty feature CSV")
    header = lines[0][1].split(",")
    if header[0] != "segment_id":
        raise DataError(f"{path}: the first column must be segment_id")
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
            raise ParseError(f"{path}: {exc}", line_no) from None
        rows[cells[0]] = row
    return FeatureMatrix(segment_ids=tuple(rows), names=names,
                         values=np.reshape(list(rows.values()),
                                           (len(rows), len(names))))
