"""CSV output: RFC 4180 dialect, floats at full double precision.

A row whose cells are all exactly ``float`` or ``int`` is written as its
cells' ``repr`` joined by commas.  That is what ``format_cell`` gives for
those two types, and the dialect quotes none of the characters ``repr``
produces, so the bytes are those of the ``csv.writer`` path; the value
CSVs' million cells skip one Python call and one quoting scan each.
"""

from __future__ import annotations

import csv
from pathlib import Path

__all__ = ["format_cell", "write_csv"]

_PLAIN_NUMBERS = frozenset((float, int))


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write ``header`` and then each row, a sequence of cells, as one CSV record."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            # exact types: bool subclasses int and np.float64 float, and both print otherwise
            if _PLAIN_NUMBERS.issuperset(map(type, row)):
                fh.write(",".join(map(repr, row)) + "\r\n")
            else:
                writer.writerow([format_cell(cell) for cell in row])
