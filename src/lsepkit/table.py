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
    or a list of text cells.  A number column formats each of its
    distinct float64 bit patterns once, so 0.0 and -0.0 stay apart."""
    cells = [_cells(np.asarray(column)) for column in columns]
    lines = [f"# {line}" for line in comments]
    lines.append(",".join(header))
    lines += map(",".join, zip(*cells, strict=True))
    return "\n".join(lines) + "\n"


def _cells(column: np.ndarray) -> list[str]:
    """The cells of one column: text as it is, numbers as ``%.17g``."""
    if column.dtype.kind == "U":
        return column.tolist()
    bits, row_key = np.unique(column.astype(float).view(np.uint64), return_inverse=True)
    text = np.array(["%.17g" % value for value in bits.view(float).tolist()], dtype=object)
    return text[row_key].tolist()


def read(path, header) -> tuple[np.ndarray, list[int]]:
    """The finite numbers of a table whose header row is the names ``header``.

    Returns a (rows, columns) array and the 1-based line number of each
    row; a leading UTF-8 byte-order mark is dropped.  Raises ValueError
    for text that is not UTF-8, another header, a ragged row, a cell that
    is not a number, and a cell that is not finite.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = [(number, line.strip()) for number, line in enumerate(handle, start=1)]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    rows = [(number, line) for number, line in lines if line and not line.startswith("#")]
    found = [cell.strip() for cell in rows[0][1].split(",")] if rows else []
    if found != list(header):
        raise ValueError(f"{path}: expected header {','.join(header)}, got {','.join(found)!r}")
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
