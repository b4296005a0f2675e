import builtins
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelid import errors
from gelid.errors import (DataError, ParseError, check_shape, count, naming,
                          positive, positive_int, read_windows)

_ROW = {"id": str, "at_ms": count, "tags?": [str], "label": {"a", "b"}}


@pytest.mark.parametrize("value", [
    {"id": "x", "at_ms": 0, "label": "a"},
    {"id": "x", "at_ms": 5, "label": "b", "tags": [], "extra": None},
])
def test_values_of_the_shape_pass(value):
    check_shape(value, _ROW, "rows.jsonl:1: $")


@pytest.mark.parametrize("value,message", [
    (5, "$: expected an object, got 5"),
    ({"at_ms": 0, "label": "a"}, "$.id: expected a string, got nothing"),
    ({"id": "x", "at_ms": -1, "label": "a"},
     "$.at_ms: expected an integer in [0, 2**63), got -1"),
    ({"id": "x", "at_ms": True, "label": "a"},
     "$.at_ms: expected an integer in [0, 2**63), got true"),
    ({"id": "x", "at_ms": 0, "label": "c"},
     '$.label: expected "a" or "b", got "c"'),
    ({"id": "x", "at_ms": 0, "label": "a", "tags": ["t", 1]},
     "$.tags[1]: expected a string, got 1"),
])
def test_a_mismatch_names_where_and_the_path(value, message):
    with pytest.raises(DataError) as err:
        check_shape(value, _ROW, "rows.jsonl:1: $")
    assert str(err.value) == "rows.jsonl:1: " + message


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True,
                                   10 ** 400, "1", None])
def test_a_finite_number_is_neither_a_bool_nor_too_large(value):
    with pytest.raises(DataError):
        check_shape(value, float, "x")


def test_a_set_takes_its_values_of_the_same_type_only():
    check_shape(1, {1}, "x")
    for value in (True, 1.0, [1]):
        with pytest.raises(DataError):
            check_shape(value, {1}, "x")


def test_object_of_any_keys_and_one_of_several_shapes():
    shape = {str: (str, float)}
    check_shape({"a": "x", "b?": 2.5}, shape, "x")
    with pytest.raises(DataError, match=r"x\$\.b\?: expected a string or a "
                                        r"finite number, got \[\]"):
        check_shape({"a": "x", "b?": []}, shape, "x$")


@pytest.mark.parametrize("predicate,good,bad", [
    (count, [0, 2 ** 63 - 1], [-1, 2 ** 63, 1.0]),
    (positive_int, [1], [0, True]),
    (positive, [1e-300, 2], [0, -1.5, float("inf"), False]),
])
def test_range_predicates(predicate, good, bad):
    for value in good:
        check_shape(value, predicate, "setting")
    for value in bad:
        with pytest.raises(DataError, match=re.escape(
                f"setting: expected {predicate.__doc__}, got ")):
            check_shape(value, predicate, "setting")


def test_a_value_too_deep_to_show_is_a_mismatch_all_the_same():
    deep = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(DataError) as err:
        check_shape({"id": deep}, _ROW, "rows.jsonl:1: $")
    assert str(err.value) == ("rows.jsonl:1: $.id: expected a string, got "
                              "a value nested too deeply to show")


def test_an_error_names_its_place_once():
    """`naming` leads an error with its file, and its line when it has one;
    an error that names a file keeps it."""
    assert str(ParseError("bad row", 3)) == "bad row"
    with pytest.raises(ParseError) as err, naming("outer.txt"):
        with naming("inner.txt"):
            raise ParseError("bad row", 3)
    assert (str(err.value), err.value.line) == ("inner.txt:3: bad row", 3)
    with pytest.raises(DataError) as err, naming("f.json"):
        raise DataError("no line here")
    assert str(err.value) == "f.json: no line here"


@given(data=st.lists(st.sampled_from([b"a", b"bc", b"\n", b"\r"]),
                     max_size=60).map(b"".join),
       window=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_windows_are_whole_lines_of_the_file(tmp_path_factory, data,
                                            window):
    """Through a window of 1 to 12 bytes, the windows join to the file's
    bytes and each ends in an LF, but for a last line without one, which
    is a window of its own; a file that fits the window is one window."""
    path = tmp_path_factory.mktemp("win") / "f"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errors, "WINDOW_BYTES", window)
        with read_windows(path) as (size, windows):
            got = [bytes(w) for w in windows]
    assert size == len(data) and b"".join(got) == data
    if len(data) <= window:
        assert got == [data]
        return
    *whole, last = got
    assert all(w.endswith(b"\n") for w in whole)
    assert last.endswith(b"\n") or b"\n" not in last


def _opened(monkeypatch):
    """The files `errors` opens, as it opens them."""
    files = []

    def spy(*args, **kwargs):
        files.append(builtins.open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(errors, "open", spy, raising=False)
    return files


def test_windows_close_the_file_however_the_block_is_left(tmp_path,
                                                         monkeypatch):
    """Left after the first of many windows, or by an error, the block
    closes the file."""
    path = tmp_path / "f"
    path.write_bytes(b"line\n" * 100)
    monkeypatch.setattr(errors, "WINDOW_BYTES", 16)
    files = _opened(monkeypatch)
    with read_windows(path) as (_, windows):
        next(windows)
    with pytest.raises(KeyError), read_windows(path) as (_, windows):
        next(windows)
        raise KeyError("stop")
    assert len(files) == 2 and all(file.closed for file in files)


@pytest.mark.parametrize("window", [1 << 20, 16])
def test_an_unreadable_file_is_a_data_error_naming_it(tmp_path, window,
                                                      monkeypatch):
    monkeypatch.setattr(errors, "WINDOW_BYTES", window)
    for path in (tmp_path / "missing", tmp_path):
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "
                           "cannot read "):
            with read_windows(path) as (_, windows):
                list(windows)
