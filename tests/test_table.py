"""The one CSV table format: the packaged fixtures read and render back."""

from importlib.resources import files

import pytest

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



def test_columns_render_one_row_per_index():
    text = table.render(["x", "label"], [[0.1, -0.0], ["a", "b"]], ["note"])
    assert text == "# note\nx,label\n0.10000000000000001,a\n-0,b\n"


def test_a_table_without_rows_keeps_comments_and_header():
    assert table.render(["x", "y"], [[], []], ["note"]) == "# note\nx,y\n"


def test_columns_of_unequal_length_are_rejected():
    with pytest.raises(ValueError):
        table.render(["x", "y"], [[1.0, 2.0], [1.0]])
