"""Exception types, the file readers and the typed number reader every
number read from a file or from config passes. A DataError is the one data
error; its message names the file or config key, the field and the value.
A plain ValueError is a contract violation, that is a programming error.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np

ANY = "(-inf, inf)"


class DataError(ValueError):
    """Malformed or inconsistent input data (files, tables, records, config)."""


class NumericError(RuntimeError):
    """Non-finite state encountered during training or sampling."""


def not_utf8(path, error: UnicodeDecodeError) -> DataError:
    """The DataError for a file at path whose bytes are not UTF-8, naming the position."""
    return DataError(f"{path}: not UTF-8 text ({error.reason} at byte {error.start})")


def read_text(path) -> str:
    """The text of the file at path; not_utf8's DataError if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise not_utf8(path, e) from None


def read_json(path):
    """The JSON document in the file at path; DataError naming the file
    and the position if it is not UTF-8 or does not parse."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer literal too long to convert
        raise DataError(f"{path}: invalid JSON ({e})") from None


def shown(value, limit: int = 40) -> str:
    """repr(value), cut to limit characters."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


@functools.cache
def _within(interval: str):
    """The test "x lies in interval" (written like "(0, 1]") for a float or an array x."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    closed = interval[0] == "[", interval[-1] == "]"
    return lambda x: (x >= lo if closed[0] else x > lo) & (x <= hi if closed[1] else x < hi)


def as_numbers(values: list, interval: str = ANY, integer: bool = False) -> np.ndarray | None:
    """values as a float vector if number accepts each of them, else None:
    one pass over the types and one conversion, for long lists."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        array = np.array(values, dtype=float)
    except OverflowError:  # an int too large for a float
        return None
    ok = np.isfinite(array).all() and _within(interval)(array).all()
    return array if ok and not (integer and (array % 1).any()) else None


def number(value, subject: str, interval: str = ANY, integer: bool = False):
    """value as a float (an int if integer) when it is a finite number in
    interval, else DataError "<subject> is <value>, expected <kind> in <interval>".
    Booleans, strings, NaN, inf and ints too large for a float are rejected."""
    if not (value.__class__ in (int, float) and abs(value) <= sys.float_info.max
            and _within(interval)(value) and (not integer or value % 1 == 0)):
        kind = "an integer" if integer else "a finite number"
        raise DataError(f"{subject} is {shown(value)}, expected "
                        + (kind if interval == ANY else f"{kind} in {interval}"))
    return int(value) if integer else float(value)


def numbers(values, subject: str, interval: str = ANY, length: int | None = None,
            integer: bool = False) -> np.ndarray:
    """A JSON list of length numbers (any length if None) as a float vector;
    DataError naming subject, or subject[i] for an element number rejects."""
    if not isinstance(values, list) or length is not None and len(values) != length:
        found = f"a list of {len(values)}" if isinstance(values, list) else shown(values)
        count = "" if length is None else f"{length} "
        raise DataError(f"{subject} is {found}, expected a list of {count}numbers")
    array = as_numbers(values, interval, integer)
    for i, value in enumerate(values if array is None else ()):  # names the first bad one
        number(value, f"{subject}[{i}]", interval, integer)
    return array
