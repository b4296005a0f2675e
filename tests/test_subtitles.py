import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelid.errors import ParseError, utf8_text
from gelid.subtitles import (Cue, Transcript, parse_srt, parse_vtt,
                             sentence_bounds, write_srt)

SIMPLE_SRT = "1\n00:00:01,000 --> 00:00:02,500\nhello\n"


def test_parse_srt_single_block():
    t = parse_srt(SIMPLE_SRT)
    assert t.cues == [Cue(start_ms=1000, end_ms=2500, text="hello")]


def test_parse_srt_end_before_start_is_error():
    bad = "1\n00:00:02,000 --> 00:00:01,000\noops\n"
    with pytest.raises(ParseError):
        parse_srt(bad)


def test_parse_srt_zero_duration_cue_dropped(caplog):
    srt = ("1\n00:00:01,000 --> 00:00:01,000\nblip\n\n"
           "2\n00:00:02,000 --> 00:00:03,000\nkept\n")
    t = parse_srt(srt)
    assert [c.text for c in t.cues] == ["kept"]


def test_parse_srt_out_of_order_blocks_resorted():
    srt = ("1\n00:00:05,000 --> 00:00:06,000\nsecond\n\n"
           "2\n00:00:01,000 --> 00:00:02,000\nfirst\n")
    t = parse_srt(srt)
    assert [c.text for c in t.cues] == ["first", "second"]
    assert write_srt(t) == ("1\n00:00:01,000 --> 00:00:02,000\nfirst\n\n"
                            "2\n00:00:05,000 --> 00:00:06,000\nsecond\n")


def test_parse_srt_strips_tags_and_collapses_whitespace():
    srt = "1\n00:00:01,000 --> 00:00:02,000\n<i>so   the</i>\ngame  <b>froze</b>\n"
    t = parse_srt(srt)
    assert t.cues[0].text == "so the game froze"


def test_parse_srt_empty_file_gives_empty_transcript():
    assert parse_srt("") == Transcript(video_id="")
    assert parse_srt("\n\n").cues == []


def test_parse_srt_malformed_timestamp_carries_line_number():
    bad = "1\n00:00:01.00x --> 00:00:02,000\ntext\n"
    with pytest.raises(ParseError) as err:
        parse_srt(bad)
    assert err.value.line == 2


@pytest.mark.parametrize("timing", [
    "00:00:75,000 --> 00:01:99,5", "00:00:01,000 --> 00:60:00,000",
    "00:00:01,5 --> 00:00:02,000", "00:00:01,50 --> 00:00:02,000"])
def test_parse_srt_field_out_of_range_or_short_fraction_is_error(timing):
    with pytest.raises(ParseError, match="malformed SRT timestamp") as err:
        parse_srt(f"1\n{timing}\nhi\n")
    assert err.value.line == 2


@pytest.mark.parametrize("timing", [
    "00:75.000 --> 00:76.000", "00:00:01.000 --> 00:00:60.000",
    "01:60:00.000 --> 01:61:00.000"])
def test_parse_vtt_field_out_of_range_is_error(timing):
    with pytest.raises(ParseError, match="malformed WebVTT timestamp") as err:
        parse_vtt(f"WEBVTT\n\n{timing}\nhi\n")
    assert err.value.line == 3


def test_minutes_and_seconds_run_to_59():
    assert parse_srt("1\n00:59:59,999 --> 01:00:00,000\nhi\n").cues[0] == \
        Cue(start_ms=3_599_999, end_ms=3_600_000, text="hi")
    assert parse_vtt("WEBVTT\n\n59:59.000 --> 1:00:00.000\nhi\n").cues[0] \
        == Cue(start_ms=3_599_000, end_ms=3_600_000, text="hi")


def test_parse_srt_bom_and_crlf():
    data = b"\xef\xbb\xbf1\r\n00:00:01,000 --> 00:00:02,000\r\nhi\r\n"
    t = parse_srt(utf8_text(data))
    assert t.cues[0].text == "hi"


def test_parse_srt_line_ending_independence():
    lf = "1\n00:00:01,000 --> 00:00:02,000\nline one\nline two\n"
    crlf = lf.replace("\n", "\r\n").encode()
    assert parse_srt(lf) == parse_srt(utf8_text(crlf))


def test_parse_vtt_minimal_cue():
    t = parse_vtt("WEBVTT\n\n00:00.000 --> 00:01.000\nhi\n")
    assert t.cues == [Cue(start_ms=0, end_ms=1000, text="hi")]


def test_parse_vtt_header_only_gives_empty_transcript():
    assert parse_vtt("WEBVTT\n").cues == []


def test_parse_vtt_missing_header_is_error():
    with pytest.raises(ParseError):
        parse_vtt("00:00.000 --> 00:01.000\nhi\n")


def test_parse_vtt_settings_discarded_text_kept():
    t = parse_vtt("WEBVTT\n\n00:00.000 --> 00:01.000 align:start line:0\nhi\n")
    assert t.cues[0].end_ms == 1000
    assert t.cues[0].text == "hi"


@pytest.mark.parametrize("gap", ["\t", "\t\t"])
def test_parse_vtt_settings_after_a_tab(gap):
    t = parse_vtt(f"WEBVTT\n\n00:00:01.000 --> 00:00:02.000{gap}"
                  f"align:start\nhi\n")
    assert t.cues == [Cue(start_ms=1000, end_ms=2000, text="hi")]


@pytest.mark.parametrize("timing", ["00:00:01.000 -->",
                                    "00:00:01.000 --> \t"])
def test_parse_vtt_nothing_after_arrow_is_error(timing):
    with pytest.raises(ParseError, match="malformed WebVTT timestamp ''") \
            as err:
        parse_vtt(f"WEBVTT\n\nid\n{timing}\nhi\n")
    assert err.value.line == 4


def test_parse_vtt_skips_note_and_style_blocks():
    src = ("WEBVTT\n\nNOTE this is a comment\nspanning lines\n\n"
           "STYLE\n::cue { color: red }\n\n"
           "id-1\n00:00:01.000 --> 00:00:02.000\nreal cue\n")
    t = parse_vtt(src)
    assert [c.text for c in t.cues] == ["real cue"]


def test_parse_vtt_hours_timestamp():
    t = parse_vtt("WEBVTT\n\n01:02:03.004 --> 01:02:04.000\nx\n")
    assert t.cues[0].start_ms == 3723004


def test_vtt_cue_at_100_hours_survives_srt_round_trip():
    """`write_srt` writes hours past 99 as they come, and `parse_srt` reads
    back the 1-4 hour digits WebVTT takes."""
    t = parse_vtt("WEBVTT\n\n100:00:00.000 --> 100:00:01.500\nlate\n")
    assert t.cues == [Cue(start_ms=360_000_000, end_ms=360_001_500,
                          text="late")]
    srt = write_srt(t)
    assert srt.startswith("1\n100:00:00,000 --> 100:00:01,500\n")
    assert parse_srt(srt).cues == t.cues


def _bounds(t, gap_ms):
    return [b.tolist() for b in sentence_bounds(t, gap_ms)]


def test_sentence_spans_punctuation_rule():
    t = parse_srt("1\n00:00:01,000 --> 00:00:02,000\nI see.\n\n"
                  "2\n00:00:02,100 --> 00:00:03,000\na bug!\n")
    assert _bounds(t, 1500) == [[1000, 2100], [2000, 3000]]


def test_sentence_spans_gap_rule():
    t = parse_srt("1\n00:00:01,000 --> 00:00:02,000\nI was\n\n"
                  "2\n00:00:05,000 --> 00:00:06,000\nwalking\n")
    assert _bounds(t, 1500) == [[1000, 5000], [2000, 6000]]


def test_sentence_spans_adjacent_unpunctuated_merge():
    # the sentence ends at the second cue's end time
    t = parse_srt("1\n00:00:01,000 --> 00:00:02,000\nso the\n\n"
                  "2\n00:00:02,200 --> 00:00:03,400\ngame crashed.\n")
    assert _bounds(t, 1500) == [[1000], [3400]]


def test_write_srt_canonical_form():
    t = parse_srt(SIMPLE_SRT)
    assert write_srt(t) == "1\n00:00:01,000 --> 00:00:02,500\nhello\n"


# --- property tests -------------------------------------------------------

_texts = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           whitelist_characters=" .!?"),
    min_size=1, max_size=24).filter(lambda s: s.strip())


@st.composite
def transcripts(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    cues = []
    at = 0
    for _ in range(n):
        at += draw(st.integers(min_value=1, max_value=4000))
        dur = draw(st.integers(min_value=1, max_value=5000))
        text = " ".join(draw(_texts).split()) or "x"  # canonical whitespace
        cues.append(Cue(start_ms=at, end_ms=at + dur, text=text))
        at += dur
    return Transcript(video_id="v", cues=cues)


@given(transcripts())
@settings(max_examples=60, deadline=None)
def test_srt_round_trip_identity(t):
    again = parse_srt(write_srt(t), video_id="v")
    assert again == t


@given(transcripts(), st.integers(min_value=0, max_value=5000))
@settings(max_examples=60, deadline=None)
def test_sentence_spans_cover_each_cue_once_in_order(t, gap_ms):
    starts, ends = sentence_bounds(t, gap_ms)
    assert starts.size == ends.size <= len(t.cues)
    assert starts.size or not t.cues
    assert set(starts.tolist()) <= {c.start_ms for c in t.cues}
    assert set(ends.tolist()) <= {c.end_ms for c in t.cues}
    if t.cues:  # these cues never overlap, so the sentences do not
        assert (starts[0], ends[-1]) == (t.cues[0].start_ms, t.cues[-1].end_ms)
        assert (np.diff(np.column_stack([starts, ends]).ravel()) > 0).all()
