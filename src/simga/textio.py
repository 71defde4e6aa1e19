"""The one fast parse behind every text reader: a single np.loadtxt pass over an open stream.

Each reader keeps its own line loop, which is the only code that words input
errors (line numbers, `#` comments, ids past int64). parse_table tries the
numpy C parser first; whenever it cannot vouch for the result it rewinds the
stream and returns None, and the reader runs its line loop over the same text.
Everything the C parser accepts here the line loop accepts too, with the same
values: both split on Unicode whitespace and skip blank lines, and numpy's
integer and float syntax is a subset of Python's `int` and `float`.
"""

from __future__ import annotations

import warnings
from typing import IO, Callable

import numpy as np

__all__ = ["parse_table"]


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
    the stream rewound to where it was, for the caller's line loop. A stream
    that cannot seek (a pipe) goes straight to the line loop.
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
