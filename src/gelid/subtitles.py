"""SRT / WebVTT parsing into a normalized transcript, plus sentence spans.

Both parsers share one normalization contract: HTML-like tags stripped,
whitespace collapsed, empty cues dropped, cues sorted by start time and
renumbered 1..n. Sentence spans group consecutive cues until terminal
punctuation or a silence gap, and are the snap targets for cut points.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

from .errors import ParseError

log = logging.getLogger(__name__)

TERMINAL_PUNCTUATION = (".", "!", "?", "…")
DEFAULT_GAP_MS = 1500

_TAG_RE = re.compile(r"<[^>]*>")
_WS_RE = re.compile(r"\s+")
_SRT_TIME_RE = re.compile(r"^(\d{1,2}):(\d{1,2}):(\d{1,2})[,.](\d{1,3})$")
_VTT_TIME_RE = re.compile(r"^(?:(\d{1,4}):)?(\d{1,2}):(\d{1,2})\.(\d{3})$")


@dataclass(frozen=True)
class Cue:
    """One timed subtitle line, already tag-stripped and collapsed."""

    index: int
    start_ms: int
    end_ms: int
    text: str


@dataclass
class Transcript:
    video_id: str
    cues: list[Cue] = field(default_factory=list)


@dataclass(frozen=True)
class SentenceSpan:
    """A run of cues forming one spoken sentence; ends at its last cue."""

    start_ms: int
    end_ms: int
    cue_indices: tuple[int, ...]
    text: str


def _clean_text(raw: str) -> str:
    return _WS_RE.sub(" ", _TAG_RE.sub("", raw)).strip()


def _decode(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            # exc.object is the input past any byte-order mark
            raise ParseError(f"not UTF-8 text ({exc.reason})",
                             exc.object.count(b"\n", 0, exc.start) + 1
                             ) from None
    else:
        text = data.lstrip("﻿")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_srt_timestamp(token: str, line_no: int) -> int:
    m = _SRT_TIME_RE.match(token.strip())
    if not m:
        raise ParseError(f"malformed SRT timestamp {token.strip()!r}", line_no)
    h, mi, s, ms = (int(x) for x in m.groups())
    return ((h * 60 + mi) * 60 + s) * 1000 + ms


def _parse_vtt_timestamp(token: str, line_no: int) -> int:
    m = _VTT_TIME_RE.match(token.strip())
    if not m:
        raise ParseError(f"malformed WebVTT timestamp {token.strip()!r}", line_no)
    h = int(m.group(1)) if m.group(1) is not None else 0
    mi, s, ms = int(m.group(2)), int(m.group(3)), int(m.group(4))
    return ((h * 60 + mi) * 60 + s) * 1000 + ms


def _finalize(raw_cues: list[tuple[int, int, int, str]],
              video_id: str) -> Transcript:
    """Sort by (start, declared order), renumber 1..n, drop empties."""
    kept = []
    for order, (start_ms, end_ms, line_no, text) in enumerate(raw_cues):
        if end_ms < start_ms:
            raise ParseError(
                f"cue ends before it starts ({end_ms} < {start_ms})", line_no)
        if end_ms == start_ms:
            log.warning("dropping zero-duration cue at %d ms (line %d)",
                        start_ms, line_no)
            continue
        if not text:
            continue
        kept.append((start_ms, order, end_ms, text))
    kept.sort(key=lambda c: (c[0], c[1]))
    cues = [Cue(index=i + 1, start_ms=s, end_ms=e, text=t)
            for i, (s, _, e, t) in enumerate(kept)]
    return Transcript(video_id=video_id, cues=cues)


def parse_srt(data: bytes | str, video_id: str = "") -> Transcript:
    """Parse SubRip subtitles. An empty file yields an empty transcript."""
    text = _decode(data)
    raw_cues: list[tuple[int, int, int, str]] = []
    lines = text.split("\n")
    i = 0
    n = len(lines)
    while i < n:
        if not lines[i].strip():
            i += 1
            continue
        block_start = i
        # optional numeric index line
        if lines[i].strip().isdigit() and i + 1 < n and "-->" in lines[i + 1]:
            i += 1
        if i >= n or "-->" not in lines[i]:
            raise ParseError("expected timestamp line with '-->'", block_start + 1)
        timing_line_no = i + 1
        left, _, right = lines[i].partition("-->")
        start_ms = _parse_srt_timestamp(left, timing_line_no)
        end_ms = _parse_srt_timestamp(right, timing_line_no)
        i += 1
        body = []
        while i < n and lines[i].strip():
            body.append(lines[i])
            i += 1
        raw_cues.append((start_ms, end_ms, timing_line_no,
                         _clean_text(" ".join(body))))
    return _finalize(raw_cues, video_id)


def parse_vtt(data: bytes | str, video_id: str = "") -> Transcript:
    """Parse WebVTT subtitles. NOTE/STYLE/REGION blocks are skipped."""
    text = _decode(data)
    lines = text.split("\n")
    if not lines or not lines[0].startswith("WEBVTT"):
        raise ParseError("missing WEBVTT header", 1)
    raw_cues: list[tuple[int, int, int, str]] = []
    i = 1
    n = len(lines)
    # skip the rest of the header block
    while i < n and lines[i].strip():
        i += 1
    while i < n:
        if not lines[i].strip():
            i += 1
            continue
        first = lines[i].strip()
        if first.startswith(("NOTE", "STYLE", "REGION")):
            while i < n and lines[i].strip():
                i += 1
            continue
        if "-->" not in lines[i]:
            i += 1  # cue identifier line
            if i >= n or "-->" not in lines[i]:
                raise ParseError("expected cue timing line with '-->'", i)
        timing_line_no = i + 1
        left, _, right = lines[i].partition("-->")
        # cue settings (e.g. "align:start") follow the end timestamp
        right = right.strip().split(" ", 1)[0] if right.strip() else right
        start_ms = _parse_vtt_timestamp(left, timing_line_no)
        end_ms = _parse_vtt_timestamp(right, timing_line_no)
        i += 1
        body = []
        while i < n and lines[i].strip():
            body.append(lines[i])
            i += 1
        raw_cues.append((start_ms, end_ms, timing_line_no,
                         _clean_text(" ".join(body))))
    return _finalize(raw_cues, video_id)


def format_srt_timestamp(ms: int) -> str:
    h, rem = divmod(ms, 3_600_000)
    mi, rem = divmod(rem, 60_000)
    s, frac = divmod(rem, 1000)
    return f"{h:02d}:{mi:02d}:{s:02d},{frac:03d}"


def write_srt(transcript: Transcript) -> str:
    """Serialize to canonical SRT: LF endings, indices 1..n in cue order."""
    blocks = []
    for cue in transcript.cues:
        blocks.append(f"{cue.index}\n"
                      f"{format_srt_timestamp(cue.start_ms)} --> "
                      f"{format_srt_timestamp(cue.end_ms)}\n"
                      f"{cue.text}\n")
    return "\n".join(blocks)


def _ends_sentence(text: str) -> bool:
    stripped = text.rstrip()
    return stripped.endswith(TERMINAL_PUNCTUATION)


def sentence_spans(transcript: Transcript,
                   gap_ms: int = DEFAULT_GAP_MS) -> list[SentenceSpan]:
    """Partition the cue list into sentence spans.

    A span closes after cue i when its text ends with terminal punctuation,
    when the silence before cue i+1 exceeds gap_ms, or at the last cue.
    Auto-captions frequently lack punctuation, hence the gap rule.
    """
    spans: list[SentenceSpan] = []
    group: list[Cue] = []
    cues = transcript.cues
    for pos, cue in enumerate(cues):
        group.append(cue)
        last = pos == len(cues) - 1
        gap_after = (cues[pos + 1].start_ms - cue.end_ms) if not last else 0
        if last or _ends_sentence(cue.text) or gap_after > gap_ms:
            spans.append(SentenceSpan(
                start_ms=group[0].start_ms,
                end_ms=group[-1].end_ms,
                cue_indices=tuple(c.index for c in group),
                text=" ".join(c.text for c in group),
            ))
            group = []
    return spans

