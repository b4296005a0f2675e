"""Frame descriptors: normalized per-channel color histograms plus luminance.

The visual channel is a VideoTrack of 48-dim descriptors (16 bins x 3 RGB
channels by default, each channel block L1-normalized). Raw frames come in
as PPM only, so no image codec is needed; precomputed descriptors come in
as CSV.
"""

from __future__ import annotations

import functools
import logging
import re
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import (DataError, InternalError, ParseError, check_shape,
                     naming, read_bytes, read_windows, utf8_text)

log = logging.getLogger(__name__)

DEFAULT_BINS = 16
_CHANNELS = 3
_HIST_ATOL = 1e-9
_MOTION_ROWS = 1024  # the histogram rows `VideoTrack.motion` diffs at once


def histogram_bins(value) -> bool:
    """an integer in [2, 64]"""
    return type(value) is int and 2 <= value <= 64


# Rec. 601 luma weights
_LUMA = np.array([0.299, 0.587, 0.114])


@dataclass
class VideoTrack:
    """A video's frame descriptors as columns; row i is frame i.

    Timestamps strictly increase, so the frames in [start, end) are one
    contiguous slice, which `np.searchsorted` finds.
    """

    video_id: str
    timestamps_ms: np.ndarray  # (F,) int64
    histograms: np.ndarray     # (F, 3 * bins) float64
    luminance: np.ndarray      # (F,) float64 in [0, 1]
    duration_ms: int = 0

    @property
    def frames(self) -> np.ndarray:
        """The frame count `benchmarks/tracing.py` takes `len` of."""
        return self.timestamps_ms

    def histograms_at(self, timestamps_ms) -> np.ndarray:
        """Histogram rows of the frames at these timestamps, in order;
        timestamps without a frame are skipped."""
        stamps = self.timestamps_ms
        if not stamps.size:
            return self.histograms
        wanted = np.asarray(timestamps_ms, dtype=np.int64)
        rows = np.minimum(np.searchsorted(stamps, wanted), stamps.size - 1)
        return self.histograms[rows[stamps[rows] == wanted]]

    @functools.cached_property
    def motion(self) -> np.ndarray:
        """(F - 1,) float64, computed on first use: the L1 distance from
        each frame's histogram to the next, _MOTION_ROWS rows at a time.
        Each row is its own np.add.reduce over its bins, so the bits are
        those of `np.abs(np.diff(histograms, axis=0)).sum(axis=1)`."""
        hists = self.histograms
        motion = np.empty(max(hists.shape[0] - 1, 0))
        for at in range(0, motion.size, _MOTION_ROWS):
            rows = slice(at, min(at + _MOTION_ROWS, motion.size))
            step = hists[rows.start + 1:rows.stop + 1] - hists[rows]
            np.abs(step, out=step).sum(axis=1, out=motion[rows])
        motion.flags.writeable = False  # one column, shared by its readers
        return motion

    def _first_fault(self) -> tuple[int, str] | None:
        """Row and reason of the first frame that breaks a track invariant.

        Timestamps strictly increase and lie in [0, duration], bins
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
        gaps = hists.reshape(n, _CHANNELS, bins).sum(axis=2)
        gaps -= 1.0
        steps = np.zeros(n, dtype=bool)
        steps[1:] = np.diff(stamps) <= 0
        # a row's first failing check names it; NaN fails every comparison
        checks = [
            (steps, lambda i: f"non-monotone timestamp {stamps[i]} after "
                              f"{stamps[i - 1]}"),
            (stamps < 0,
             lambda i: f"frame at {stamps[i]} ms before the video start"),
            (stamps > self.duration_ms,
             lambda i: f"frame at {stamps[i]} ms exceeds duration "
                       f"{self.duration_ms} ms"),
            # a row's least bin, NaN skipped: no (n, bins) temporary
            (np.fmin.reduce(hists, axis=1, initial=np.inf) < 0,
             lambda i: "histogram has negative bins"),
            (~(np.abs(gaps, out=gaps) <= _HIST_ATOL * bins).all(axis=1),
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
# a header token, or a comment: '#' where a token would start, to the LF
_PPM_TOKEN = re.compile(rb"#[^\n]*|\S+")


def parse_ppm_frame(data: bytes) -> np.ndarray:
    """Decode a P6 (binary) or P3 (ASCII) PPM with maxval 255."""
    # the scan stops at the fourth token, short of a P6 payload
    header = list(islice((m for m in _PPM_TOKEN.finditer(data)
                          if not m[0].startswith(b"#")), 4))
    if len(header) < 4:
        raise ParseError("truncated PPM header")
    magic, body_at = header[0][0], header[3].end()
    if magic not in (b"P6", b"P3"):
        raise ParseError(f"not a PPM image (magic {magic!r})")
    try:
        width, height, maxval = (int(m[0]) for m in header[1:])
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


def write_descriptor_csv(track: VideoTrack) -> bytes:
    """`timestamp_ms,h0..h47,luminance` rows, 9 decimal digits: the ASCII
    bytes `%d` and `%.9f` write, the inverse of `_decode_fixed_rows`.

    A track whose timestamps are >= 0 and whose values lie in [+0, 1] is
    written as byte blocks (`_fixed_rows`); any other is formatted row by
    row, which a valid track needs only for a -0.0 or a bin up to
    bins * 1e-9 above 1.
    """
    width = track.histograms.shape[1]
    header = ",".join(descriptor_csv_header(width // _CHANNELS)) + "\n"
    stamps = track.timestamps_ms
    values = np.column_stack([track.histograms, track.luminance]).astype(
        np.float64, copy=False)
    # '%.9f' writes -0.0 as '-0.000000000', a sign the blocks have no room for
    if (stamps < 0).any() or np.signbit(values).any() or not (
            values <= 1).all():
        row_format = ",".join(["%d"] + ["%.9f"] * (width + 1)) + "\n"
        return (header + "".join(row_format % (ts, *row) for ts, row in zip(
            stamps.tolist(), values.tolist()))).encode()
    return b"".join([header.encode(), *_fixed_rows(stamps, values)])


def _fixed_rows(stamps: np.ndarray, values: np.ndarray) -> list[bytes]:
    """The rows `%d` and `%.9f` write for timestamps >= 0 and values in
    [0, 1], as uint8 blocks, one per run of timestamps of one width. Each
    run is written _ROW_BLOCK_BYTES at a time, as `_decode_fixed_rows`
    reads it, so the temporaries stay in cache on long tracks.
    """
    n, fields = values.shape
    # a timestamp's width in digits: how many powers of ten it reaches
    widths = np.maximum(np.searchsorted(_STAMP_POWERS[::-1], stamps,
                                        side="right"), 1)
    starts = np.flatnonzero(np.diff(widths, prepend=0)).tolist()
    blocks = []
    for start, stop in zip(starts, starts[1:] + [n]):
        width = int(widths[start])
        run = np.empty((stop - start, width + _CELL.size * fields + 1),
                       dtype=np.uint8)
        step = max(1, _ROW_BLOCK_BYTES // run.shape[1])
        for at in range(start, stop, step):
            rows = run[at - start:at - start + step]
            block = slice(at, at + rows.shape[0])
            rows[:, :width] = (stamps[block, None]
                               // _STAMP_POWERS[-width:] % 10 + ord("0"))
            rows[:, width:-1] = _value_cells(values[block])
        run[:, -1] = ord("\n")
        blocks.append(run.tobytes())
    return blocks


def _value_cells(values: np.ndarray) -> np.ndarray:
    """The (rows, 12 * fields) bytes `,%.9f` writes for values in [0, 1].

    A value's 12 bytes `,d.ddddddddd` are three 4-byte ASCII words looked
    up by its units of 1e-9, np.rint(v * 1e9): `,d.d` by the units over
    10**8, then two words of four decimals. v * 1e9 < 2**30 rounds within
    2**-24 of the exact product, so np.rint gives the correctly rounded
    digits of `%.9f` unless the product lies within 1e-6 of a half; those
    few values, exact dyadic ties such as 1/1024 among them, are formatted
    with `%` instead.
    """
    scaled = values * 1e9
    nearest = np.rint(scaled)
    units = nearest.astype(np.uint32)
    scaled -= nearest
    near = np.abs(scaled, out=scaled) > 0.5 - 1e-6
    for at in zip(*np.nonzero(near)):
        units[at] = int(("%.9f" % values[at]).replace(".", ""))
    heads, quads = _ascii_words()
    words = np.empty(values.shape + (3,), dtype=np.uint32)
    high = units // 10000
    top = high // 10000
    words[..., 0] = heads[top]
    words[..., 1] = quads[high - top * 10000]
    words[..., 2] = quads[units - high * 10000]
    return words.view(np.uint8).reshape(values.shape[0], -1)


@functools.cache
def _ascii_words() -> tuple[np.ndarray, np.ndarray]:
    """Read-only uint32 tables of ASCII words: `,d.d` for the tenths 0-10
    (0.0-1.0), and the four digits of 0-9999; built on first use, not at
    import."""
    heads = np.frombuffer("".join(f",{k // 10}.{k % 10}"
                                  for k in range(11)).encode(), np.uint32)
    digits = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
    quads = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    quads.flags.writeable = False
    return heads, quads


def read_descriptor_csv(path: str | Path, video_id: str = "",
                        duration_ms: int | None = None) -> VideoTrack:
    """Parse and validate a descriptor CSV (see `_parse_descriptor_csv`).

    Rows are strict: a bad row, or a byte that is not UTF-8, raises a
    ParseError naming the file and its line; nothing is clamped or skipped
    except blank lines.
    """
    with naming(path):
        timestamps, histograms, luminance, lines = _parse_descriptor_csv(path)
        if duration_ms is None:
            duration_ms = int(timestamps[-1]) if timestamps.size else 0
        track = VideoTrack(video_id, timestamps, histograms, luminance,
                           duration_ms)
        fault = track._first_fault()
        if fault is not None:
            row, message = fault
            raise ParseError(message, lines[row])
    return track


def _parse_descriptor_csv(path: str | Path):
    """The columns of a descriptor CSV, read through `read_windows`, and
    each row's line number.

    Only the header line is decoded before `_decode_fixed_rows` decodes
    the windows as byte blocks, if they are the `%d` and `%.9f` rows
    `write_descriptor_csv` writes. When it declines them, the whole file
    is decoded, once, by `utf8_text`, and goes to np.loadtxt: the window
    read, if it is the whole file, as a pipe's is; else the file, read
    again. Both give the same values, bit for bit.
    """
    with read_windows(path) as (size, windows):
        head = next(windows, b"")
        header = utf8_text(re.match(rb"[^\r\n]*", head)[0]).split(",")
        if header == [""]:
            raise ParseError("empty descriptor CSV", 1)
        width = len(header) - 2
        if (header[0] != "timestamp_ms" or header[-1] != "luminance"
                or width < _CHANNELS or width % _CHANNELS):
            raise ParseError("bad descriptor CSV header", 1)
        columns = _decode_fixed_rows(chain([head], windows), width, size)
    if columns is not None:
        # the decoder declines blank lines, so row r is on line r + 2
        return *columns, range(2, columns[0].size + 2)
    numbered = list(_data_lines(utf8_text(
        bytes(head) if len(head) == size else read_bytes(path))))
    row_dtype = np.dtype([("ts", np.int64), ("hist", np.float64, (width,)),
                          ("lum", np.float64)])
    try:
        table = _load_rows([line for _, line in numbered], row_dtype)
    except (ValueError, DeprecationWarning):
        raise _unparsable_row(numbered, row_dtype) from None
    return (table["ts"].copy(),
            np.ascontiguousarray(table["hist"]).reshape(len(table), width),
            table["lum"].copy(), [line_no for line_no, _ in numbered])


# a timestamp's digits are one integer below 10**18 < 2**63; int64 holds
# every power of ten up to 10**18
_STAMP_DIGITS = 18
_STAMP_POWERS = 10 ** np.arange(_STAMP_DIGITS, -1, -1, dtype=np.int64)
# the 12 bytes `,%.9f` writes for a value in [0, 10), `,d.ddddddddd`. A
# byte fits the cell when it minus the cell's byte (uint8) is below the
# limit, 10 at a digit and 1 elsewhere. Those differences are the digits
# and 0 elsewhere, so a value's differences times the powers sum to its
# digits as one integer below 10**10 < 2**53: the value times 1e9.
_CELL = np.frombuffer(b",0.000000000", dtype=np.uint8)
_CELL_LIMITS = np.where(_CELL == ord("0"), 10, 1).astype(np.uint8)
_CELL_POWERS = np.array([0, 1e9, 0, 1e8, 1e7, 1e6, 1e5, 1e4, 1e3, 1e2, 1e1,
                         1e0])
_HEADER_LINE = re.compile(rb"[^\r\n]*\n")
_LF = re.compile(rb"\n")
_ROW_BLOCK_BYTES = 1 << 16


def _decode_fixed_rows(windows, width: int, size: int):
    """The (timestamps, histograms, luminance) columns of a descriptor
    CSV's rows decoded as byte blocks, or None when some row is not a
    timestamp of 1-18 digits and width + 1 `_CELL`s, the `%d` and `%.9f`
    that `write_descriptor_csv` writes, or a line does not end in LF alone.

    `windows` are the file's `size` bytes as `read_windows` gives them,
    whole lines from the header line on. Exact: a value is its digits as
    one integer m below 2**53 over 1e9. Both are exact doubles, so the
    division rounds once, to the double nearest the decimal, the one
    strtod returns (Clinger 1990). Rows of one line length are one
    zero-copy reshape; increasing timestamps never shrink in width, so a
    window holds few such runs. Each block of at most _ROW_BLOCK_BYTES is
    decoded into the columns, allocated once for the most rows `size`
    bytes can hold; the rows found are views of them.
    """
    base, limit = np.tile(_CELL, width + 1), np.tile(_CELL_LIMITS, width + 1)
    row = 0
    for i, window in enumerate(windows):
        at = 0
        if not i:  # the header line, with no CR
            header = _HEADER_LINE.match(window)
            if header is None:
                return None
            at = header.end()
            most = (size - at) // (base.size + 2)
            timestamps = np.empty(most, dtype=np.int64)
            histograms, luminance = np.empty((most, width)), np.empty(most)
        buf = np.frombuffer(window, dtype=np.uint8)
        while at < buf.size:
            lf = _LF.search(window, at, at + base.size + _STAMP_DIGITS + 1)
            line = lf.end() - at if lf else 0
            if not 0 < line - 1 - base.size <= _STAMP_DIGITS:
                return None
            # the run goes on while an LF ends each next `line` bytes; a row
            # that holds two lines fails the layout check below
            lfs = buf[at + line - 1::line] == ord("\n")
            count = lfs.size if lfs.all() else int(np.argmin(lfs))
            if row + count > timestamps.size:  # the file grew
                return None
            stamp_width = line - 1 - base.size
            run = buf[at:at + line * count].reshape(count, line)
            step = max(1, _ROW_BLOCK_BYTES // line)
            for a in range(0, count, step):
                rows = run[a:a + step]
                stamp = rows[:, :stamp_width] - np.uint8(ord("0"))
                tail = rows[:, stamp_width:-1] - base
                if (stamp >= 10).any() or (tail >= limit).any():
                    return None
                block = slice(row, row + rows.shape[0])
                timestamps[block] = stamp @ _STAMP_POWERS[-stamp_width:]
                # one matrix-vector product over every cell of the block;
                # each sum is an integer below 2**53, exact in any order
                values = (tail.reshape(-1, _CELL.size) @ _CELL_POWERS
                          ).reshape(rows.shape[0], width + 1)
                values /= 1e9
                histograms[block] = values[:, :width]
                luminance[block] = values[:, width]
                row = block.stop
            at += line * count
        size -= buf.size
    return timestamps[:row], histograms[:row], luminance[:row]


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


def _data_lines(text: str):
    """(line number, text) of every non-empty line after the header."""
    for line_no, line in enumerate(text.split("\n")[1:], start=2):
        if line:
            yield line_no, line


def _unparsable_row(numbered, row_dtype: np.dtype) -> ParseError:
    """The first (line number, text) row np.loadtxt rejects, and why."""
    n_fields = row_dtype["hist"].shape[0] + 2
    for line_no, line in numbered:
        try:
            _load_rows([line], row_dtype)
        except (ValueError, DeprecationWarning) as exc:
            cells = line.split(",")
            if len(cells) != n_fields:
                reason = f"row has {len(cells)} fields, expected {n_fields}"
            elif not _parses(int, cells[0]):
                reason = f"timestamp {cells[0]!r} is not an integer"
            else:
                reason = next((f"non-numeric value {c!r}" for c in cells[1:]
                               if not _parses(float, c)), str(exc))
            return ParseError(reason, line_no)
    raise InternalError("parse failed but every row parses")


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
            with naming(entry):
                try:
                    ts = int(entry.stem)
                except ValueError:
                    raise DataError("frame file name is not a millisecond "
                                    "timestamp") from None
                if ts in by_stamp:
                    raise DataError(f"duplicate frame timestamp {ts} ms, as "
                                    f"in {by_stamp[ts].name}")
                by_stamp[ts] = entry
                frame = parse_ppm_frame(read_bytes(entry))
            hist, luminance = compute_histogram(frame, bins_per_channel)
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
        fault = track._first_fault()
        if fault is not None:
            row, message = fault
            raise DataError(message,
                            path=by_stamp[int(track.timestamps_ms[row])])
        return track
    track = read_descriptor_csv(path, video_id, duration_ms)
    width = track.histograms.shape[1]
    if width != _CHANNELS * bins_per_channel:
        raise ParseError(f"{width} histogram columns, expected "
                         f"{_CHANNELS * bins_per_channel} (3 channels x "
                         f"{bins_per_channel} bins)", 1, path=path)
    return track
