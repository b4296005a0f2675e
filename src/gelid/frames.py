"""Frame descriptors: normalized per-channel color histograms plus luminance.

The visual channel is a VideoTrack of 48-dim descriptors (16 bins x 3 RGB
channels by default, each channel block L1-normalized). Raw frames come in
as PPM only, so no image codec is needed; precomputed descriptors come in
as CSV.
"""

from __future__ import annotations

import logging
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InternalError, ParseError, check_shape

log = logging.getLogger(__name__)

DEFAULT_BINS = 16
_CHANNELS = 3
_HIST_ATOL = 1e-9


def histogram_bins(value) -> bool:
    """an integer in [2, 64]"""
    return type(value) is int and 2 <= value <= 64


# Rec. 601 luma weights
_LUMA = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class FrameDescriptor:
    """One frame of a VideoTrack, as a row view of its columns."""

    timestamp_ms: int
    histogram: np.ndarray  # (3 * bins,) float64, each channel block sums to 1
    luminance_mean: float


@dataclass
class VideoTrack:
    """A video's frame descriptors as columns; row i is frame i.

    Timestamps strictly increase, so the frames in [start, end) are one
    contiguous slice (see `window`).
    """

    video_id: str
    timestamps_ms: np.ndarray  # (F,) int64
    histograms: np.ndarray     # (F, 3 * bins) float64
    luminance: np.ndarray      # (F,) float64 in [0, 1]
    duration_ms: int = 0

    @property
    def frames(self) -> "FrameRows":
        """Read-only row views, one per frame; the columns are the fast
        path."""
        return FrameRows(self)

    def window(self, start_ms: int, end_ms: int) -> slice:
        """Rows of the frames with start_ms <= timestamp < end_ms."""
        lo, hi = np.searchsorted(self.timestamps_ms, (start_ms, end_ms))
        return slice(int(lo), int(hi))

    def histograms_at(self, timestamps_ms) -> np.ndarray:
        """Histogram rows of the frames at these timestamps, in order;
        timestamps without a frame are skipped."""
        stamps = self.timestamps_ms
        if not stamps.size:
            return self.histograms
        wanted = np.asarray(timestamps_ms, dtype=np.int64)
        rows = np.minimum(np.searchsorted(stamps, wanted), stamps.size - 1)
        return self.histograms[rows[stamps[rows] == wanted]]

    def validate(self) -> None:
        fault = self._first_fault()
        if fault is not None:
            row, message = fault
            raise DataError(f"frame {row}: {message}")

    def _first_fault(self) -> tuple[int, str] | None:
        """Row and reason of the first frame that breaks a track invariant.

        Timestamps strictly increase and stay within the duration, bins
        are non-negative, every channel block sums to 1 and luminance lies
        in [0, 1]. The block-sum tolerance allows for the 9-decimal
        rounding of the descriptor CSV, which can drift a block sum by
        bins/2 * 1e-9.
        """
        stamps, hists = self.timestamps_ms, self.histograms
        lum = self.luminance
        n = stamps.size
        if (stamps.shape != (n,) or lum.shape != (n,) or hists.ndim != 2
                or hists.shape[0] != n or hists.shape[1] % _CHANNELS):
            raise DataError(f"track columns disagree: timestamps "
                            f"{stamps.shape}, histograms {hists.shape}, "
                            f"luminance {lum.shape}")
        bins = hists.shape[1] // _CHANNELS
        sums = hists.reshape(n, _CHANNELS, bins).sum(axis=2)
        steps = np.zeros(n, dtype=bool)
        steps[1:] = np.diff(stamps) <= 0
        # a row's first failing check names it; NaN fails every comparison
        checks = [
            (steps, lambda i: f"non-monotone timestamp {stamps[i]} after "
                              f"{stamps[i - 1]}"),
            (stamps > self.duration_ms,
             lambda i: f"frame at {stamps[i]} ms exceeds duration "
                       f"{self.duration_ms} ms"),
            ((hists < 0).any(axis=1),
             lambda i: "histogram has negative bins"),
            (~(np.abs(sums - 1.0) <= _HIST_ATOL * bins).all(axis=1),
             lambda i: "histogram channel blocks must each sum to 1"),
            (~((lum >= 0.0) & (lum <= 1.0)),
             lambda i: f"luminance {lum[i]} outside [0,1]"),
        ]
        faults = [(int(np.argmax(bad)), describe)
                  for bad, describe in checks if bad.any()]
        if not faults:
            return None
        row, describe = min(faults, key=lambda fault: fault[0])
        return row, describe(row)


class FrameRows(Sequence):
    """A track's frames as a sequence of FrameDescriptor row views."""

    def __init__(self, track: VideoTrack):
        self._track = track

    def __len__(self) -> int:
        return self._track.timestamps_ms.size

    def __getitem__(self, index: int) -> FrameDescriptor:
        track = self._track
        return FrameDescriptor(int(track.timestamps_ms[index]),
                               track.histograms[index],
                               float(track.luminance[index]))

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


def compute_histogram(image: np.ndarray,
                      bins_per_channel: int = DEFAULT_BINS
                      ) -> tuple[np.ndarray, float]:
    """Histogram + mean luminance of an (H, W, 3) uint8 RGB image.

    Bin b of a channel counts values in [b*256/B, (b+1)*256/B); every
    channel block is L1-normalized, so the result is pixel-order free.
    """
    check_shape(bins_per_channel, histogram_bins, "bins_per_channel")
    pixels = np.asarray(image, dtype=np.uint8).reshape(-1, _CHANNELS)
    if pixels.shape[0] == 0:
        raise DataError("cannot compute histogram of a zero-pixel image")
    bin_ids = (pixels.astype(np.int64) * bins_per_channel) // 256
    hist = np.empty(_CHANNELS * bins_per_channel)
    for c in range(_CHANNELS):
        counts = np.bincount(bin_ids[:, c], minlength=bins_per_channel)
        hist[c * bins_per_channel:(c + 1) * bins_per_channel] = (
            counts / pixels.shape[0])
    luminance = float((pixels @ _LUMA).mean() / 255.0)
    return hist, luminance


_WS_SPLIT = re.compile(rb"\s+")


def _ppm_tokens(data: bytes, limit: int):
    """Yield whitespace-separated header/ASCII tokens, skipping # comments."""
    pos = 0
    count = 0
    while pos < len(data) and count < limit:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
            continue
        if pos >= len(data):
            break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        count += 1
        yield data[start:pos], pos


def parse_ppm_frame(data: bytes) -> np.ndarray:
    """Decode a P6 (binary) or P3 (ASCII) PPM with maxval 255."""
    header = []
    body_at = 0
    for token, pos in _ppm_tokens(data, 4):
        header.append(token)
        body_at = pos
    if len(header) < 4:
        raise ParseError("truncated PPM header")
    magic = header[0]
    if magic not in (b"P6", b"P3"):
        raise ParseError(f"not a PPM image (magic {magic!r})")
    try:
        width, height, maxval = (int(t) for t in header[1:4])
    except ValueError:
        raise ParseError("non-numeric PPM header field") from None
    if width < 1 or height < 1:
        raise ParseError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise ParseError(f"unsupported PPM maxval {maxval} (must be 255)")
    expected = width * height * _CHANNELS
    if magic == b"P6":
        payload = data[body_at + 1:body_at + 1 + expected]
        if len(payload) < expected:
            raise ParseError(f"truncated P6 payload: expected {expected} "
                             f"bytes, found {len(payload)}")
        flat = np.frombuffer(payload, dtype=np.uint8)
    else:
        values = [v for v in _WS_SPLIT.split(data[body_at:]) if v and
                  not v.startswith(b"#")]
        if len(values) < expected:
            raise ParseError(f"truncated P3 payload: expected {expected} "
                             f"values, found {len(values)}")
        try:
            flat = np.array([int(v) for v in values[:expected]], dtype=np.int64)
        except ValueError:
            raise ParseError("non-numeric P3 sample") from None
        if flat.min() < 0 or flat.max() > 255:
            raise ParseError("P3 sample outside [0, 255]")
        flat = flat.astype(np.uint8)
    return flat.reshape(height, width, _CHANNELS)


def descriptor_csv_header(bins_per_channel: int = DEFAULT_BINS) -> list[str]:
    return (["timestamp_ms"]
            + [f"h{i}" for i in range(_CHANNELS * bins_per_channel)]
            + ["luminance"])


def write_descriptor_csv(track: VideoTrack) -> str:
    """`timestamp_ms,h0..h47,luminance` rows, 9 decimal digits."""
    width = track.histograms.shape[1]
    row_format = ",".join(["%d"] + ["%.9f"] * (width + 1))
    rows = [row_format % (ts, *hist, lum) for ts, hist, lum in zip(
        track.timestamps_ms.tolist(), track.histograms.tolist(),
        track.luminance.tolist())]
    header = ",".join(descriptor_csv_header(width // _CHANNELS))
    return "\n".join([header] + rows) + "\n"


def read_descriptor_csv(path: str | Path, video_id: str = "",
                        duration_ms: int | None = None) -> VideoTrack:
    """Parse and validate a descriptor CSV in one vectorized pass.

    Rows are strict: a bad row raises a ParseError naming the file and
    its line; nothing is clamped or skipped except blank lines.
    """
    try:
        timestamps, histograms, luminance = _parse_descriptor_csv(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    if duration_ms is None:
        duration_ms = int(timestamps[-1]) if timestamps.size else 0
    track = VideoTrack(video_id, timestamps, histograms, luminance,
                       duration_ms)
    fault = track._first_fault()
    if fault is not None:
        row, message = fault
        raise ParseError(f"{path}: {message}", _line_of_row(path, row))
    return track


def _parse_descriptor_csv(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header == [""]:
            raise ParseError(f"{path}: empty descriptor CSV", 1)
        width = len(header) - 2
        if (header[0] != "timestamp_ms" or header[-1] != "luminance"
                or width < _CHANNELS or width % _CHANNELS):
            raise ParseError(f"{path}: bad descriptor CSV header", 1)
        row_dtype = np.dtype([("ts", np.int64), ("hist", np.float64, (width,)),
                              ("lum", np.float64)])
        try:
            table = _load_rows(fh, row_dtype)
        except (ValueError, DeprecationWarning):
            table = None
    if table is None:
        raise _unparsable_row(path, row_dtype)
    return (table["ts"].copy(),
            np.ascontiguousarray(table["hist"]).reshape(len(table), width),
            table["lum"].copy())


def _load_rows(lines, row_dtype: np.dtype) -> np.ndarray:
    """np.loadtxt of CSV rows into `row_dtype`, strict on integers.

    Older NumPy reads '1500.5' into an integer field as 1500 with
    only a DeprecationWarning; raising it keeps such rows rejected.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header-only file
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=row_dtype, delimiter=",",
                          comments=None, ndmin=1)


def _data_lines(path: str | Path):
    """(line number, text) of every non-blank line after the header."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no > 1 and line.strip("\r\n"):
                yield line_no, line


def _line_of_row(path: str | Path, row: int) -> int:
    for index, (line_no, _) in enumerate(_data_lines(path)):
        if index == row:
            return line_no
    raise InternalError(f"{path}: no data row {row}")


def _unparsable_row(path: str | Path, row_dtype: np.dtype) -> ParseError:
    """Locate the first row the vectorized parse rejected and say why."""
    n_fields = row_dtype["hist"].shape[0] + 2
    for line_no, line in _data_lines(path):
        try:
            _load_rows([line], row_dtype)
        except (ValueError, DeprecationWarning) as exc:
            cells = line.rstrip("\r\n").split(",")
            if len(cells) != n_fields:
                reason = f"row has {len(cells)} fields, expected {n_fields}"
            elif not _parses(int, cells[0]):
                reason = f"timestamp {cells[0]!r} is not an integer"
            else:
                reason = next((f"non-numeric value {c!r}" for c in cells[1:]
                               if not _parses(float, c)), str(exc))
            return ParseError(f"{path}: {reason}", line_no)
    raise InternalError(f"{path}: parse failed but every row parses")


def _parses(kind, text: str) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


def load_track(path: str | Path, video_id: str = "",
               duration_ms: int | None = None,
               bins_per_channel: int = DEFAULT_BINS) -> VideoTrack:
    """Load a track from a directory of `<timestamp_ms>.ppm` or a CSV."""
    path = Path(path)
    if path.is_dir():
        by_stamp: dict[int, Path] = {}
        hists, lums = [], []
        for entry in sorted(path.iterdir()):
            if entry.suffix.lower() != ".ppm":
                continue
            try:
                ts = int(entry.stem)
            except ValueError:
                raise DataError(f"{entry.name}: frame file name is not a "
                                f"millisecond timestamp") from None
            if ts in by_stamp:
                raise DataError(f"duplicate frame timestamp {ts} ms from "
                                f"{by_stamp[ts].name} and {entry.name}")
            by_stamp[ts] = entry
            try:
                hist, luminance = compute_histogram(
                    parse_ppm_frame(entry.read_bytes()), bins_per_channel)
            except ParseError as exc:
                raise ParseError(f"{entry}: {exc.detail}", exc.line) from None
            hists.append(hist)
            lums.append(luminance)
        if not by_stamp:
            log.warning("no frames found in %s; track is empty", path)
        timestamps = np.array(list(by_stamp), dtype=np.int64)
        order = np.argsort(timestamps)
        if duration_ms is None:
            duration_ms = int(timestamps.max()) if timestamps.size else 0
        hists = np.array(hists, dtype=np.float64).reshape(
            len(hists), _CHANNELS * bins_per_channel)
        track = VideoTrack(video_id, timestamps[order], hists[order],
                           np.array(lums, dtype=np.float64)[order],
                           duration_ms)
        track.validate()
        return track
    if path.is_file():
        return read_descriptor_csv(path, video_id, duration_ms)
    raise DataError(f"track source {path} does not exist")
