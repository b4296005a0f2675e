"""Exception hierarchy shared by all gelid modules.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError -> 2,
InternalError -> 3.
"""


class GelidError(Exception):
    """Base class for all gelid errors."""

    exit_code = 3


class ConfigError(GelidError):
    """Bad usage or configuration (unknown keys, invalid values)."""

    exit_code = 1


class DataError(GelidError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class ParseError(DataError):
    """Format violation in a parsed file, with a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.detail = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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
