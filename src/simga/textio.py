"""Every text reader's one table parser: a numpy fast pass, then the one line loop.

read_table tries parse_table, a single np.loadtxt pass, first. Whenever that
pass cannot vouch for the result it rewinds the stream and the line loop
reads the same text again; the loop is the only code that words input errors
(line numbers, `#` comments, ids past int64), naming the stream's file when
it has one. The loop accepts everything the numpy pass accepts, with the same
values: both split on Unicode whitespace and skip blank lines, and numpy's
integer and float syntax is a subset of Python's `int` and `float`.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import IO, Callable

import numpy as np

from .errors import InputFormatError

__all__ = ["input_error", "parse_table", "read_table"]

# the Python parser of each numpy column kind (int64, float64)
_CONVERTER = {"i": int, "f": float}


def input_error(source: IO[str], message: str) -> InputFormatError:
    """The error for a malformed stream, naming its file when it has one."""
    name = getattr(source, "name", None)
    return InputFormatError(f"{name}: {message}" if isinstance(name, str) else message)


def parse_table(
    source: IO[str],
    dtype: np.dtype | type | list,
    width: int | None = None,
    valid: Callable[[np.ndarray], bool] | None = None,
) -> np.ndarray | None:
    """Parse the rest of `source` as a whitespace-separated table of `dtype`.

    Returns the table (2-D, or 1-D for a structured dtype) when numpy parses
    every line, there is at least one row, rows have `width` columns (when
    given) and `valid(table)` holds (when given). Otherwise returns None with
    the stream rewound to where it was, for the line loop. A stream that
    cannot seek (a pipe) goes straight to the line loop.
    """
    if not source.seekable():
        return None
    start = source.tell()
    structured = np.dtype(dtype).names is not None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(source, dtype=dtype, comments=None, ndmin=1 if structured else 2)
    except ValueError:
        table = None
    if (
        table is None
        or table.shape[0] == 0
        or (width is not None and table.shape[1] != width)
        or (valid is not None and not valid(table))
    ):
        source.seek(start)
        return None
    return table


def read_table(
    source: IO[str], dtype: np.dtype | type, what: str, width: int | None = None, *,
    comments: bool = False, nonnegative: bool = False, empty: str | None = None, first_line: int = 1,
) -> np.ndarray:
    """The rest of `source` as a table of `dtype`: 2-D, or 1-D for a structured dtype.

    Rows hold `width` values (one per field of a structured dtype; when None,
    as many as the first row). `what` names a value in error messages;
    `comments` skips lines whose first token starts with `#`; `nonnegative`
    refuses a negative value at its line; `empty` is the message for a file
    with no rows (None allows one). Lines are numbered from `first_line`.
    """
    valid = (lambda t: t.min() >= 0) if nonnegative else None
    # consume a leading run of blank and `#` lines, so a header keeps the fast
    # parse (np.loadtxt's own comment handling would also take inline comments)
    while comments and source.seekable():
        start = source.tell()
        line = source.readline()
        toks = line.split()
        if not line or (toks and not toks[0].startswith("#")):
            source.seek(start)
            break
        first_line += 1
    table = parse_table(source, dtype, width, valid)
    if table is not None:
        return table
    return _read_lines(source, np.dtype(dtype), what, width, comments, nonnegative, empty, first_line)


def _read_lines(source, dt, what, width, comments, nonnegative, empty, first_line) -> np.ndarray:
    """read_table's line loop: the one place that words a malformed line."""
    if dt.names:  # one converter per field, e.g. (int, int, float) for "u v score"
        convs = [_CONVERTER[dt[name].kind] for name in dt.names]
        width = len(convs)
        convert = lambda toks: [conv(tok) for conv, tok in zip(convs, toks)]
    else:
        convert = partial(map, _CONVERTER[dt.kind])
    bad = {"i": "non-integer", "f": "non-numeric"}.get(dt.kind, "bad")
    rows: list[tuple] = []
    for lineno, line in enumerate(source, start=first_line):
        toks = line.split()
        if not toks or (comments and toks[0].startswith("#")):
            continue
        width = width or len(toks)
        if len(toks) != width:
            problem = f"wrong number of values (expected {width}, got {len(toks)})"
            raise input_error(source, f"line {lineno}: {problem}")
        try:
            row = tuple(convert(toks))
        except ValueError:
            raise input_error(source, f"line {lineno}: {bad} {what}") from None
        if nonnegative and min(row) < 0:
            raise input_error(source, f"line {lineno}: negative {what}")
        rows.append(row)
    if not rows and empty is not None:
        raise input_error(source, empty)
    table = np.array(rows, dtype=dt)
    return table if dt.names else table.reshape(len(rows), width or 0)
