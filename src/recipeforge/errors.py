"""Shared exception types and the text and JSON file readers.

ValueError is used for plain contract violations at function boundaries;
these two classes mark conditions the CLI maps to dedicated exit codes.
"""

import json
from pathlib import Path


class DataError(ValueError):
    """Malformed or inconsistent input data (files, tables, records)."""


class NumericError(RuntimeError):
    """Non-finite state encountered during training or sampling."""


def read_text(path) -> str:
    """The text of the file at path; DataError naming the file and the
    position if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def read_json(path):
    """The JSON document in the file at path; DataError naming the file
    and the position if it is not UTF-8 or does not parse."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON ({e})") from None
