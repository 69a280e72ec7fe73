"""The comma-separated table format of every file lsepkit reads or writes.

A table is optional ``#`` comment lines, one header row of column names,
then one row of cells per line.  Numbers are written with 17 significant
digits, so that a value read back is the value written, and text cells
as they are.  A table is rendered from whole columns and read back as
one float array.  Read errors name the file and, for a bad row, its line.
"""

from __future__ import annotations

import numpy as np


def render(header, columns, comments=()) -> str:
    """The text of a table: ``# `` comment lines, the header, then row i
    of the equal-length ``columns`` on line i.  A column is a float array
    or a list of text cells."""
    cells = [np.asarray(column).tolist() for column in columns]
    row = ",".join("%s" if column and isinstance(column[0], str) else "%.17g" for column in cells)
    lines = [f"# {line}" for line in comments]
    lines.append(",".join(header))
    lines += map(row.__mod__, zip(*cells, strict=True))
    return "\n".join(lines) + "\n"


def read(path, *headers) -> tuple[np.ndarray, list[int]]:
    """The finite numbers of a table whose header is one of ``headers``.

    Returns a (rows, columns) array and the 1-based line number of each
    row.  Raises ValueError for another header, a ragged row, a cell that
    is not a number, and a cell that is not finite.
    """
    with open(path, encoding="utf-8") as handle:
        lines = [(number, line.strip()) for number, line in enumerate(handle, start=1)]
    rows = [(number, line) for number, line in lines if line and not line.startswith("#")]
    header = [cell.strip() for cell in rows[0][1].split(",")] if rows else []
    if header not in [list(names) for names in headers]:
        expected = " or ".join(",".join(names) for names in headers)
        raise ValueError(f"{path}: expected header {expected}, got {','.join(header)!r}")
    data = np.empty((len(rows) - 1, len(header)))
    for values, (number, line) in zip(data, rows[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}, line {number}: ragged row {line!r}")
        try:
            values[:] = [float(cell) for cell in cells]
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from exc
        if not np.isfinite(values).all():
            column = int(np.argmin(np.isfinite(values)))
            raise ValueError(
                f"{path}, line {number}: values must be finite, "
                f"got {header[column]} = {cells[column].strip()}"
            )
    return data, [number for number, _ in rows[1:]]
