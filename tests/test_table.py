"""The one CSV table format: the packaged fixtures read and render back."""

import math
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsepkit import table
from lsepkit.film import RT_HEADER
from lsepkit.medium import SPECTRUM_HEADER


@pytest.mark.parametrize(
    "name, header",
    [("epsilon_extracted.csv", SPECTRUM_HEADER), ("film_rt.csv", RT_HEADER)],
)
def test_packaged_fixture_renders_back_byte_for_byte(name, header):
    path = files("lsepkit") / "data" / name
    text = path.read_text(encoding="utf-8")
    comments = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    data, lines = table.read(path, header)
    assert lines[0] == len(comments) + 2
    assert table.render(header, data.T, comments) == text


def test_ragged_and_non_finite_rows_name_file_line_and_column(tmp_path):
    path = tmp_path / "rt.csv"
    path.write_text("# note\nwavelength_nm,R,T\n\n550,0.1,0.8\n600,0.1\n")
    with pytest.raises(ValueError, match=f"{path}, line 5: ragged row '600,0.1'"):
        table.read(path, RT_HEADER)
    path.write_text("wavelength_nm,R,T\n550,0.1,0.8\n600,0.1, inf\n")
    with pytest.raises(ValueError, match=f"{path}, line 3: values must be finite, got T = inf"):
        table.read(path, RT_HEADER)


def test_a_byte_order_mark_is_dropped_and_other_bytes_are_named(tmp_path):
    path = tmp_path / "rt.csv"
    text = "# note\nwavelength_nm,R,T\n550,0.1,0.8\n"
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    data, lines = table.read(path, RT_HEADER)
    assert data.tolist() == [[550.0, 0.1, 0.8]] and lines == [3]
    path.write_bytes(b"\xff" + text.encode())
    with pytest.raises(ValueError, match=f"^{path}: 'utf-8' codec can't decode byte 0xff"):
        table.read(path, RT_HEADER)


def test_columns_render_one_row_per_index():
    text = table.render(["x", "label"], [[0.1, -0.0], ["a", "b"]], ["note"])
    assert text == "# note\nx,label\n0.10000000000000001,a\n-0,b\n"


def test_signed_zeros_in_one_column_stay_apart():
    assert table.render(["x"], [np.array([0.0, -0.0, 0.0, -0.0])]) == "x\n0\n-0\n0\n-0\n"


def per_row_render(header, columns, comments=()):
    """Every cell formatted on its own, row by row: the oracle for the
    column-wise render."""
    cells = [np.asarray(column).tolist() for column in columns]
    row = ",".join("%s" if column and isinstance(column[0], str) else "%.17g" for column in cells)
    lines = [f"# {line}" for line in comments]
    lines.append(",".join(header))
    lines += map(row.__mod__, zip(*cells, strict=True))
    return "\n".join(lines) + "\n"


# signed zeros, subnormals, the infinities and NaN, mixed into every pool
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan]


@st.composite
def tables(draw):
    """Number columns drawn from a few values, so that they repeat, mixed
    with text columns; a number column is a list or a float array."""
    rows = draw(st.integers(0, 40))
    pool = draw(st.lists(st.floats() | st.sampled_from(SPECIAL), min_size=1, max_size=6))
    columns = []
    for text in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        if text:
            columns.append(draw(st.lists(st.text(max_size=4), min_size=rows, max_size=rows)))
        else:
            values = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
            columns.append(np.array(values) if draw(st.booleans()) else values)
    comments = draw(st.lists(st.text(max_size=8), max_size=2))
    return [f"c{i}" for i in range(len(columns))], columns, comments


@settings(deadline=None)
@given(tables())
def test_render_equals_per_row_formatting(table_args):
    assert table.render(*table_args) == per_row_render(*table_args)


def test_a_table_without_rows_keeps_comments_and_header():
    assert table.render(["x", "y"], [[], []], ["note"]) == "# note\nx,y\n"


def test_columns_of_unequal_length_are_rejected():
    with pytest.raises(ValueError):
        table.render(["x", "y"], [[1.0, 2.0], [1.0]])
