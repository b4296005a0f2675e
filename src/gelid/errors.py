"""Exception hierarchy shared by all gelid modules, each naming a fault's
place as `<path>:<line>: ` (see `naming`); `read_bytes`, `read_windows`
and `read_text`, the readers of every input, and `write_file`, of every
output; and `check_shape`, which holds an input or a setting to its
declared shape.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError -> 2,
InternalError -> 3.
"""

import codecs
import json
import os
import stat
import sys
from contextlib import contextmanager
from pathlib import Path


class GelidError(Exception):
    """Base class for all gelid errors. One in an input may name its file,
    `path`, and its 1-based `line`; they lead the message as
    `<path>:<line>: `, or `<path>: ` without a line."""

    exit_code = 3

    def __init__(self, message: str, line: int | None = None,
                 path: str | Path | None = None):
        super().__init__(message)
        self.line = line
        self.path = path

    def __str__(self) -> str:
        if self.path is None:
            return super().__str__()
        line = "" if self.line is None else f"{self.line}:"
        return f"{self.path}:{line} {super().__str__()}"


class ConfigError(GelidError):
    """Bad usage or configuration (unknown keys, invalid values)."""

    exit_code = 1


class DataError(GelidError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class ParseError(DataError):
    """Format violation in a parsed file, with a 1-based line number."""


@contextmanager
def naming(path: str | Path):
    """Name `path` in a GelidError raised inside that names no file."""
    try:
        yield
    except GelidError as exc:
        if exc.path is None:
            exc.path = path
        raise


def utf8_text(data: bytes) -> str:
    """`data` decoded as UTF-8 after one leading byte-order mark, with its
    CRLF and lone CR read as LF; a byte that is not UTF-8 is a ParseError
    on its line, counted by those line ends."""
    # no UTF-8 sequence holds a CR or LF byte, so bytes map as text would
    data = data.removeprefix(codecs.BOM_UTF8).replace(b"\r\n", b"\n")
    data = data.replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})",
                         data.count(b"\n", 0, exc.start) + 1) from None


def read_bytes(path: str | Path) -> bytes:
    """A file's bytes; an unreadable file is a DataError naming it, caused
    by its OSError."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read ({exc.strerror})", path=path) from exc


# the byte window `read_windows` reads a larger file through
WINDOW_BYTES = 1 << 20


@contextmanager
def read_windows(path: str | Path):
    """A file's size and an iterator over its bytes as windows of whole
    lines, the file open until the block is left, however it is left.

    A file of at most WINDOW_BYTES is one window, read at once as bytes,
    and so is one that is not a regular file, such as a pipe, whose size
    is its length once read. A larger one is read through one reused
    bytearray of WINDOW_BYTES, which grows only to hold a longer line: each
    window is a view of it that ends in an LF, valid until the next is
    read, and the line its end cut carries over to the next. A last line
    without an LF is a window of its own. An unreadable file is a
    DataError naming it, caused by its OSError.
    """
    try:
        file = open(path, "rb", buffering=0)
    except OSError as exc:
        raise DataError(f"cannot read ({exc.strerror})", path=path) from exc
    with file:
        info = os.fstat(file.fileno())
        if stat.S_ISREG(info.st_mode):
            yield info.st_size, _windows(file, info.st_size, path)
        else:
            whole = next(_windows(file, 0, path))
            yield len(whole), iter([whole])


def _windows(file, size: int, path: str | Path):
    try:
        if size <= WINDOW_BYTES:
            yield file.read()
            return
        window, end = bytearray(WINDOW_BYTES), 0
        while got := file.readinto(memoryview(window)[end:]):
            end += got
            cut = window.rfind(b"\n", 0, end) + 1
            if cut:
                yield memoryview(window)[:cut]
                window[:end - cut] = window[cut:end]
                end -= cut
            elif end == len(window):  # a line longer than the window
                window = window + bytes(end)
        if end:
            yield memoryview(window)[:end]
    except OSError as exc:
        raise DataError(f"cannot read ({exc.strerror})", path=path) from exc


def read_text(path: str | Path) -> str:
    """A file's `utf8_text`; its errors name the file."""
    with naming(path):
        return utf8_text(read_bytes(path))


def write_file(path: str | Path, data: str | bytes) -> None:
    """Write `data`, text as UTF-8, making the directory; a failed write is
    a DataError that names the path."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    except OSError as exc:
        raise DataError(f"cannot write ({exc.strerror})", path=path) from None


class InternalError(GelidError):
    """A gelid invariant was violated; indicates a bug, not bad input."""

    exit_code = 3


class StageError(GelidError):
    """Pipeline stage failure carrying the stage name and video id."""

    def __init__(self, stage: str, video_id: str | None, cause: BaseException):
        self.stage = stage
        self.video_id = video_id
        self.cause = cause
        where = f"stage '{stage}'" + (f", video '{video_id}'" if video_id else "")
        super().__init__(f"{where}: {cause}")
        # an unreadable input file is a data error, not an internal one
        self.exit_code = getattr(cause, "exit_code",
                                 2 if isinstance(cause, OSError) else 3)


def count(value) -> bool:
    """an integer in [0, 2**63)"""
    return type(value) is int and 0 <= value < 2 ** 63


def file_name(value) -> bool:
    """a printable file name: no '/', '\\' or ',', not '', '.' or '..'"""
    # ingest writes <video_id>.srt and <video_id>.descriptors.csv, which
    # must stay inside its output directory, and a features.csv row starts
    # with its segment's id, unquoted
    return (isinstance(value, str) and value not in ("", ".", "..")
            and value.isprintable() and not any(c in value for c in "/\\,"))


def positive_int(value) -> bool:
    """an integer >= 1"""
    return type(value) is int and value >= 1


def positive(value) -> bool:
    """a finite number > 0"""
    return fits(value, float) and value > 0


def non_negative(value) -> bool:
    """a finite number >= 0"""
    return fits(value, float) and value >= 0


def fits(value, shape) -> bool:
    """Whether `value` has `shape` (see `check_shape`)."""
    return _fault(value, shape, "") is None


def check_shape(value, shape, where: str, line: int | None = None) -> None:
    """A DataError `<where><path>: expected ..., got ...`, on `line`, unless
    `value`, named by `where` (`$` for JSON), has `shape`: a type
    (`float` is a finite number; `int` and `float` take no bool); `[shape]`,
    a list of it; `{key: shape, "optional key?": shape}`, an object with
    those keys and maybe others, or `{str: shape}` for any keys; a tuple,
    one of its shapes; a set, one of its values; or a predicate, which its
    docstring describes. `path` leads to the first bad part."""
    fault = _fault(value, shape, "")
    if fault is not None:
        raise DataError(where + fault, line)


def _fault(value, shape, path: str) -> str | None:
    """Why `value`, at `path`, lacks `shape`; None when it has it."""
    if isinstance(shape, list) and isinstance(value, list):
        return next(filter(None, (_fault(item, shape[0], f"{path}[{i}]")
                                  for i, item in enumerate(value))), None)
    if isinstance(shape, dict) and isinstance(value, dict):
        items = (dict.fromkeys(value, shape[str]) if str in shape else
                 {key.removesuffix("?"): item for key, item in shape.items()
                  if not key.endswith("?") or key[:-1] in value})
        return next(filter(None, (
            _fault(value[key], item, f"{path}.{key}") if key in value
            else f"{path}.{key}: expected {_describe(item)}, got nothing"
            for key, item in items.items())), None)
    if isinstance(shape, tuple):
        ok = any(_fault(value, one, path) is None for one in shape)
    elif isinstance(shape, set):
        ok = any(type(value) is type(one) and value == one for one in shape)
    elif shape is float:  # a NumPy float is a float; no JSON value is one
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    elif isinstance(shape, type):
        ok = type(value) is int if shape is int else isinstance(value, shape)
    else:  # a predicate, or a list or object shape the value does not match
        ok = not isinstance(shape, (list, dict)) and bool(shape(value))
    if ok:
        return None
    try:
        shown = json.dumps(value, default=repr)[:80]
    except RecursionError:
        shown = "a value nested too deeply to show"
    return f"{path}: expected {_describe(shape)}, got {shown}"


def _describe(shape) -> str:
    if isinstance(shape, tuple):
        return " or ".join(map(_describe, shape))
    if isinstance(shape, set):
        return " or ".join(sorted(map(json.dumps, shape)))
    if isinstance(shape, (list, dict)):
        shape = type(shape)
    return {float: "a finite number", int: "an integer", str: "a string",
            list: "a list", dict: "an object"}.get(shape) or shape.__doc__
