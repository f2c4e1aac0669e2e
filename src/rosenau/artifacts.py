"""The two artifact formats every writer in the package uses.

CSV files have a header row, CRLF line ends and every value formatted with
``.17g``, so they round-trip doubles exactly; JSON files are indented by two
spaces, have sorted keys and end with a newline.  Both are byte-deterministic.
"""

from __future__ import annotations

import csv
import json

__all__ = ["write_columns", "write_json"]


def write_columns(path, header, *columns) -> None:
    """CSV with one header row and one row per index of the equal-length columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in zip(*columns, strict=True):
            writer.writerow([format(x, ".17g") for x in row])


def write_json(path, payload) -> None:
    """JSON with indent 2, sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
