import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelid.errors import DataError, ParseError
from gelid import frames
from gelid.frames import (VideoTrack, compute_histogram, load_track,
                          parse_ppm_frame, read_descriptor_csv,
                          write_descriptor_csv)


def _solid(value, h=2, w=2):
    return np.full((h, w, 3), value, dtype=np.uint8)


def test_all_black_histogram():
    hist, lum = compute_histogram(_solid(0), 16)
    for c in range(3):
        block = hist[c * 16:(c + 1) * 16]
        assert block[0] == 1.0 and block[1:].sum() == 0.0
    assert lum == 0.0


def test_all_white_histogram():
    hist, lum = compute_histogram(_solid(255), 16)
    for c in range(3):
        block = hist[c * 16:(c + 1) * 16]
        assert block[-1] == 1.0 and block[:-1].sum() == 0.0
    assert lum == pytest.approx(1.0)


def test_half_black_half_white_histogram():
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[0] = 255
    hist, lum = compute_histogram(img, 16)
    for c in range(3):
        block = hist[c * 16:(c + 1) * 16]
        assert block[0] == 0.5 and block[-1] == 0.5
        assert block[1:-1].sum() == 0.0
    # luminance of white is exactly (0.299+0.587+0.114) = 1.0
    assert lum == pytest.approx(0.5)


def test_bin_edges_follow_floor_rule():
    # value 15 -> bin 0, value 16 -> bin 1 for 16 bins (edge at 256/16 = 16)
    img = np.array([[[15, 16, 255]]], dtype=np.uint8)
    hist, _ = compute_histogram(img, 16)
    assert hist[0] == 1.0          # R=15 in bin 0
    assert hist[16 + 1] == 1.0     # G=16 in bin 1
    assert hist[32 + 15] == 1.0    # B=255 in top bin


def test_luminance_weights():
    img = np.array([[[255, 0, 0]]], dtype=np.uint8)
    _, lum = compute_histogram(img, 16)
    assert lum == pytest.approx(0.299)


def test_zero_pixel_image_is_error():
    with pytest.raises(DataError):
        compute_histogram(np.zeros((0, 4, 3), dtype=np.uint8))


@pytest.mark.parametrize("bins", [1, 0, 65, 100])
def test_bins_out_of_range_is_error(bins):
    with pytest.raises(DataError):
        compute_histogram(_solid(0), bins)


def test_histogram_invariant_under_pixel_permutation():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    flat = img.reshape(-1, 3)
    shuffled = flat[rng.permutation(flat.shape[0])].reshape(8, 8, 3)
    h1, l1 = compute_histogram(img)
    h2, l2 = compute_histogram(shuffled)
    assert np.array_equal(h1, h2)
    assert l1 == pytest.approx(l2)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([2, 3, 16, 64]))
@settings(max_examples=50, deadline=None)
def test_histogram_blocks_sum_to_one(h, w, seed, bins):
    img = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3),
                                               dtype=np.uint8)
    hist, lum = compute_histogram(img, bins)
    blocks = hist.reshape(3, bins)
    assert np.allclose(blocks.sum(axis=1), 1.0, atol=1e-9)
    assert 0.0 <= lum <= 1.0


# --- PPM ------------------------------------------------------------------

def test_parse_p3_single_black_pixel():
    img = parse_ppm_frame(b"P3 1 1 255 0 0 0")
    assert img.shape == (1, 1, 3)
    assert img.sum() == 0


def test_parse_p6_round_values():
    payload = bytes([10, 20, 30, 40, 50, 60])
    img = parse_ppm_frame(b"P6 2 1 255\n" + payload)
    assert img.shape == (1, 2, 3)
    assert img[0, 1, 2] == 60


def test_parse_p6_truncated_payload_is_error():
    data = b"P6 2 2 255\n" + bytes(9)  # needs 12 bytes, has 9 (3 pixels)
    with pytest.raises(ParseError):
        parse_ppm_frame(data)


def test_parse_ppm_wrong_magic_is_error():
    with pytest.raises(ParseError):
        parse_ppm_frame(b"P5 1 1 255 0")


def test_parse_ppm_maxval_not_255_is_error():
    with pytest.raises(ParseError):
        parse_ppm_frame(b"P3 1 1 65535 0 0 0")


def test_parse_ppm_header_comments_ignored():
    with_comment = parse_ppm_frame(b"P3\n# camera dump\n1 1\n# more\n255\n1 2 3")
    without = parse_ppm_frame(b"P3 1 1 255 1 2 3")
    assert np.array_equal(with_comment, without)


# --- track loading and the descriptor CSV ---------------------------------

def _ppm_bytes(value):
    return b"P6 1 1 255\n" + bytes([value, value, value])


def test_load_track_from_frame_directory(tmp_path):
    (tmp_path / "0.ppm").write_bytes(_ppm_bytes(0))
    (tmp_path / "500.ppm").write_bytes(_ppm_bytes(255))
    track = load_track(tmp_path, "vid")
    assert [f.timestamp_ms for f in track.frames] == [0, 500]
    assert track.duration_ms == 500


def test_load_track_duplicate_timestamps_names_both_sources(tmp_path):
    (tmp_path / "5.ppm").write_bytes(_ppm_bytes(0))
    (tmp_path / "05.ppm").write_bytes(_ppm_bytes(1))
    with pytest.raises(DataError) as err:
        load_track(tmp_path, "vid")
    assert "5.ppm" in str(err.value) and "05.ppm" in str(err.value)


def test_load_track_bad_frame_names_its_file(tmp_path):
    (tmp_path / "0.ppm").write_bytes(_ppm_bytes(0))
    (tmp_path / "1000.ppm").write_bytes(b"P6 2")
    with pytest.raises(ParseError, match="truncated PPM header") as err:
        load_track(tmp_path, "vid")
    assert str(tmp_path / "1000.ppm") in str(err.value)


def test_load_track_empty_directory_warns(tmp_path, caplog):
    with caplog.at_level("WARNING"):
        track = load_track(tmp_path, "vid")
    assert track.frames == []
    assert any("empty" in rec.message for rec in caplog.records)


def _track(stamps, hists, luminance, duration_ms):
    """A track from its columns."""
    return VideoTrack("vid", np.array(stamps, dtype=np.int64),
                      np.array(hists), np.array(luminance), duration_ms)


def _black(n):
    """n all-black histograms."""
    hists = np.zeros((n, 48))
    hists[:, [0, 16, 32]] = 1.0
    return hists


def test_descriptor_csv_row_parses(tmp_path):
    track = _track([1000], _black(1), [0.5], 1000)
    path = tmp_path / "d.csv"
    path.write_text(write_descriptor_csv(track))
    again = read_descriptor_csv(path, "vid")
    assert again.frames[0].timestamp_ms == 1000
    assert again.frames[0].luminance_mean == 0.5


@pytest.mark.parametrize("bins", [8, 16])
def test_load_track_rejects_a_csv_of_another_bin_count(tmp_path, bins):
    hists = np.zeros((1, 3 * bins))
    hists[:, [0, bins, 2 * bins]] = 1.0
    path = tmp_path / "d.csv"
    path.write_text(write_descriptor_csv(_track([0], hists, [0.5], 1000)))
    assert load_track(path, "vid", bins_per_channel=bins).histograms.shape \
        == (1, 3 * bins)
    other = 24 // bins
    with pytest.raises(ParseError, match=f"^line 1: {path}: {3 * bins} "
                       f"histogram columns, expected {3 * other} "):
        load_track(path, "vid", bins_per_channel=other)


def test_written_descriptor_csv_takes_the_block_decoder(tmp_path):
    """Rows from `write_descriptor_csv` whose timestamps run from 1 to 4
    digits are decoded as byte blocks, not by the np.loadtxt fallback."""
    rng = np.random.default_rng(5)
    raw = rng.random((6, 3, 16))
    track = _track([0, 5, 40, 700, 1500, 9999],
                   (raw / raw.sum(axis=2, keepdims=True)).reshape(6, 48),
                   rng.random(6), 9999)
    path = tmp_path / "d.csv"
    path.write_text(write_descriptor_csv(track))
    columns = frames._decode_fixed_rows(path.read_bytes(), 48)
    assert columns is not None
    again = read_descriptor_csv(path, "vid")
    for got, want in zip(columns, (again.timestamps_ms, again.histograms,
                                   again.luminance)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert again.timestamps_ms.tolist() == [0, 5, 40, 700, 1500, 9999]

def test_descriptor_csv_non_monotone_is_error(tmp_path):
    path = _two_row_csv(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(ParseError):
        read_descriptor_csv(path)


def test_descriptor_csv_round_trip_is_exact_to_9_digits(tmp_path):
    rng = np.random.default_rng(11)
    hists, lums = [], []
    for _ in range(4):
        raw = rng.random(48).reshape(3, 16)
        hists.append((raw / raw.sum(axis=1, keepdims=True)).ravel())
        lums.append(float(rng.random()))
    track = _track([0, 100, 200, 300], hists, lums, 300)
    p1 = tmp_path / "a.csv"
    p1.write_text(write_descriptor_csv(track))
    again = read_descriptor_csv(p1, "vid")
    for f0, f1 in zip(track.frames, again.frames):
        assert np.allclose(f0.histogram, f1.histogram, atol=5e-10, rtol=0)
        assert abs(f0.luminance_mean - f1.luminance_mean) <= 5e-10
    # second write is byte-identical (the format is a fixpoint)
    p2 = tmp_path / "b.csv"
    p2.write_text(write_descriptor_csv(again))
    assert p1.read_bytes() == p2.read_bytes()


def test_descriptor_csv_is_text_with_header():
    text = write_descriptor_csv(_track([0], _black(1), [0.0], 0))
    assert text.startswith("timestamp_ms,h0,")
    assert text.endswith("\n")


def test_track_validation_rejects_late_frames():
    track = _track([2000], _black(1), [0.0], 1000)
    with pytest.raises(DataError):
        track.validate()


def _two_row_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(write_descriptor_csv(_track([0, 10], _black(2),
                                                [0.0, 0.0], 10)))
    return path


def test_empty_descriptor_csv_is_parse_error_on_line_1(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"")
    with pytest.raises(ParseError) as err:
        read_descriptor_csv(path)
    assert str(err.value) == f"line 1: {path}: empty descriptor CSV"


def test_descriptor_csv_error_line_counts_blank_lines(tmp_path):
    path = _two_row_csv(tmp_path)
    header, first, second = path.read_text().splitlines()
    bad = second.rsplit(",", 1)[0] + ",1.5"   # luminance out of range
    path.write_text("\n".join([header, "", first, "", bad]) + "\n")
    with pytest.raises(ParseError, match="luminance") as err:
        read_descriptor_csv(path)
    assert err.value.line == 5
    path.write_text("\n".join([header, first, "", "x" + bad]) + "\n")
    with pytest.raises(ParseError, match="not an integer") as err:
        read_descriptor_csv(path)
    assert err.value.line == 4


def test_descriptor_csv_rejects_fractional_timestamp_on_older_numpy(
        tmp_path, monkeypatch):
    # older NumPy truncates '10.5' into an int64 field and only warns
    real_loadtxt = np.loadtxt

    def truncating_loadtxt(lines, **kwargs):
        rows = []
        for line in lines:
            stamp, rest = line.split(",", 1)
            if "." in stamp:
                warnings.warn("loadtxt(): Parsing an integer via a float is "
                              "deprecated.", DeprecationWarning)
                stamp = str(int(float(stamp)))
            rows.append(f"{stamp},{rest}")
        return real_loadtxt(rows, **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    path = _two_row_csv(tmp_path)
    header, first, second = path.read_text().splitlines()
    path.write_text("\n".join([header, first, "10.5" + second[2:]]) + "\n")
    with pytest.raises(ParseError, match="not an integer") as err:
        read_descriptor_csv(path)
    assert err.value.line == 3


def test_descriptor_csv_not_utf8_is_parse_error(tmp_path):
    path = _two_row_csv(tmp_path)
    path.write_bytes(path.read_bytes().replace(b",0.000000000\n",
                                               b",\xff0.0\n", 1))
    with pytest.raises(ParseError, match="not UTF-8"):
        read_descriptor_csv(path)


def test_descriptor_csv_not_utf8_names_the_line_past_the_first_chunk(
        tmp_path):
    n = 200  # about 100 kB, many times the text decoder's chunk
    path = tmp_path / "d.csv"
    path.write_text(write_descriptor_csv(_track(
        range(0, 10 * n, 10), _black(n), [0.0] * n, 10 * n)))
    lines = path.read_bytes().split(b"\n")
    lines[150] = lines[150].replace(b",0.000000000", b",\xff0.0", 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError) as err:
        read_descriptor_csv(path)
    assert str(err.value) == (f"line 151: {path}: not UTF-8 text "
                              f"(invalid start byte)")
