"""SRT / WebVTT parsing into a normalized transcript, plus sentence bounds.

Both parsers take text as `errors.utf8_text` gives it, with LF line ends,
and share one normalization contract: HTML-like tags stripped,
whitespace collapsed, empty cues dropped, cues sorted by start time and
numbered by position. A sentence runs over consecutive cues until terminal
punctuation or a silence gap; its end is the snap target for cut points.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError

log = logging.getLogger(__name__)

TERMINAL_PUNCTUATION = (".", "!", "?", "…")
DEFAULT_GAP_MS = 1500

_TAG_RE = re.compile(r"<[^>]*>")
_WS_RE = re.compile(r"\s+")
# hours take 1-4 digits in both formats, minutes and seconds run to 59, and
# milliseconds take three digits
_SRT_TIME_RE = re.compile(r"^(\d{1,4}):([0-5]?\d):([0-5]?\d)[,.](\d{3})$")
_VTT_TIME_RE = re.compile(r"^(?:(\d{1,4}):)?([0-5]?\d):([0-5]?\d)\.(\d{3})$")


@dataclass(frozen=True)
class Cue:
    """One timed subtitle line, already tag-stripped and collapsed."""

    start_ms: int
    end_ms: int
    text: str


@dataclass
class Transcript:
    """A video's cues in start order (ties in the order the file declares
    them), as `parse_srt` and `parse_vtt` return them, each numbered by its
    1-based position; segmentation and speech features rely on that order."""

    video_id: str
    cues: list[Cue] = field(default_factory=list)


def _clean_text(raw: str) -> str:
    return _WS_RE.sub(" ", _TAG_RE.sub("", raw)).strip()


def _timestamp(token: str, pattern: re.Pattern, fmt: str,
               line_no: int) -> int:
    """Milliseconds of a `fmt` timestamp, which `pattern` splits into
    hours (0 when it has none), minutes, seconds and milliseconds."""
    m = pattern.match(token.strip())
    if not m:
        raise ParseError(f"malformed {fmt} timestamp {token.strip()!r}",
                         line_no)
    h, mi, s, ms = (int(x) for x in m.groups(0))
    return ((h * 60 + mi) * 60 + s) * 1000 + ms


def _blocks(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each run of non-blank lines, with the number of its first line."""
    block: list[str] = []
    # the blank line past the end closes the last run
    for line_no, line in enumerate(text.split("\n") + [""], 1):
        if line.strip():
            block.append(line)
        elif block:
            yield line_no - len(block), block
            block = []


def _finalize(raw_cues: list[tuple[int, int, int, str]],
              video_id: str) -> Transcript:
    """Drop empties and sort by start, stably: ties keep declared order."""
    kept = []
    for start_ms, end_ms, line_no, text in raw_cues:
        if end_ms < start_ms:
            raise ParseError(
                f"cue ends before it starts ({end_ms} < {start_ms})", line_no)
        if end_ms == start_ms:
            log.warning("dropping zero-duration cue at %d ms (line %d)",
                        start_ms, line_no)
            continue
        if not text:
            continue
        kept.append(Cue(start_ms, end_ms, text))
    kept.sort(key=lambda c: c.start_ms)
    return Transcript(video_id=video_id, cues=kept)


def parse_srt(text: str, video_id: str = "") -> Transcript:
    """Parse SubRip subtitles. An empty file yields an empty transcript."""
    raw_cues: list[tuple[int, int, int, str]] = []
    for line_no, lines in _blocks(text):
        # optional numeric index line
        if lines[0].strip().isdigit() and len(lines) > 1 and "-->" in lines[1]:
            line_no, lines = line_no + 1, lines[1:]
        if "-->" not in lines[0]:
            raise ParseError("expected timestamp line with '-->'", line_no)
        left, _, right = lines[0].partition("-->")
        raw_cues.append((_timestamp(left, _SRT_TIME_RE, "SRT", line_no),
                         _timestamp(right, _SRT_TIME_RE, "SRT", line_no),
                         line_no, _clean_text(" ".join(lines[1:]))))
    return _finalize(raw_cues, video_id)


def parse_vtt(text: str, video_id: str = "") -> Transcript:
    """Parse WebVTT subtitles. NOTE/STYLE/REGION blocks are skipped."""
    if not text.startswith("WEBVTT"):
        raise ParseError("missing WEBVTT header", 1)
    raw_cues: list[tuple[int, int, int, str]] = []
    blocks = _blocks(text)
    next(blocks)  # the header block
    for line_no, lines in blocks:
        if lines[0].strip().startswith(("NOTE", "STYLE", "REGION")):
            continue
        if "-->" not in lines[0]:  # a cue identifier line
            if len(lines) < 2 or "-->" not in lines[1]:
                raise ParseError("expected cue timing line with '-->'",
                                 line_no)
            line_no, lines = line_no + 1, lines[1:]
        left, _, right = lines[0].partition("-->")
        # cue settings (e.g. "align:start") follow the end timestamp
        # after spaces or tabs; with nothing after "-->", right stays ""
        right = (right.split(None, 1) or [""])[0]
        raw_cues.append((_timestamp(left, _VTT_TIME_RE, "WebVTT", line_no),
                         _timestamp(right, _VTT_TIME_RE, "WebVTT", line_no),
                         line_no, _clean_text(" ".join(lines[1:]))))
    return _finalize(raw_cues, video_id)


def format_srt_timestamp(ms: int) -> str:
    h, rem = divmod(ms, 3_600_000)
    mi, rem = divmod(rem, 60_000)
    s, frac = divmod(rem, 1000)
    return f"{h:02d}:{mi:02d}:{s:02d},{frac:03d}"


def write_srt(transcript: Transcript) -> str:
    """Serialize to canonical SRT: LF endings, indices 1..n in cue order."""
    blocks = []
    for number, cue in enumerate(transcript.cues, 1):
        blocks.append(f"{number}\n"
                      f"{format_srt_timestamp(cue.start_ms)} --> "
                      f"{format_srt_timestamp(cue.end_ms)}\n"
                      f"{cue.text}\n")
    return "\n".join(blocks)


def sentence_bounds(transcript: Transcript, gap_ms: int = DEFAULT_GAP_MS
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Each sentence's start and end, as two int64 arrays.

    A sentence closes after a cue whose text ends with terminal
    punctuation, before a silence longer than gap_ms, and at the last cue.
    It starts at its first cue's start and ends at its last cue's end.
    Auto-captions frequently lack punctuation, hence the gap rule.
    """
    cues = transcript.cues
    starts = np.array([c.start_ms for c in cues], dtype=np.int64)
    ends = np.array([c.end_ms for c in cues], dtype=np.int64)
    closes = np.array([c.text.rstrip().endswith(TERMINAL_PUNCTUATION)
                       for c in cues], dtype=bool)
    closes[:-1] |= starts[1:] - ends[:-1] > gap_ms
    closes[-1:] = True
    # a sentence opens after each close; the last cue closes, so the
    # first cue opens
    return starts[np.roll(closes, 1)], ends[closes]
