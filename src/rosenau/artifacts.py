"""The two artifact formats every writer in the package uses.

CSV files have a header row, CRLF line ends and every value formatted with
``.17g``, so they round-trip doubles exactly; JSON files are indented by two
spaces, have sorted keys and end with a newline.  Both are byte-deterministic.
An output path that cannot be created or written raises InputDomainError
naming it, as an unreadable input does.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager

from .errors import InputDomainError

__all__ = ["make_output_dir", "open_output", "write_columns", "write_json"]


def make_output_dir(path) -> None:
    """Create the directory path and its missing parents."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputDomainError(f"cannot create output directory {path}: {exc.strerror or exc}") from None


@contextmanager
def open_output(path, mode: str = "w", **kwargs):
    """open(path, mode) for writing, closed on exit."""
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise InputDomainError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_columns(path, header, *columns) -> None:
    """CSV with one header row and one row per index of the equal-length columns."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in zip(*columns, strict=True):
            writer.writerow([format(x, ".17g") for x in row])


def write_json(path, payload) -> None:
    """JSON with indent 2, sorted keys and a trailing newline."""
    with open_output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
