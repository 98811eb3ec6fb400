"""Typed reading of the input tables: every malformed cell, header or row is rejected."""

import re
import shutil
from pathlib import Path

import pytest

from phosmarket.config import ExperimentConfig
from phosmarket.experiment import INPUT_TABLES, load_context
from phosmarket.pipeline import RAW_TABLES, run_pipeline
from phosmarket.tables import quantity, read_csv

DATA = Path(__file__).parent / "data"

#: Cells each parser must reject: empty, non-numeric, nan, inf and, for
#: quantities, negative.
BAD_CELLS = {
    str: ("",),
    int: ("", "20x3", "nan", "inf"),
    quantity: ("", "x", "nan", "inf", "-1"),
}


def load_harmonized(data: Path, tmp_path: Path) -> None:
    load_context(
        ExperimentConfig(
            scenario="BAU",
            seed=1,
            reference_market="east",
            reference_year=2013,
            data_dir=data,
            output_dir=tmp_path / "out",
            unit_kt=25.0,
            theta=1.0,
        )
    )


def load_raw(data: Path, tmp_path: Path) -> None:
    run_pipeline(data, tmp_path / "out")


#: Each table's key columns, stated apart from the schemas under test.
KEYS = {
    "flows": ("supplier", "region", "year"),
    "local_supply": ("region", "year"),
    "demand_series": ("region", "year"),
    "scenario_use": ("scenario", "region"),
    "trade_flows": ("year", "supplier", "country", "kind"),
    "domestic_supply": ("year", "supplier", "kind"),
    "residence": ("supplier",),
    "regions": ("country",),
    "consumption": ("region", "year"),
    "fertilizer_use": ("country", "crop"),
    "crop_production": ("country", "crop"),
    "eu_members": ("country",),
    "scenario_production": ("scenario", "country", "crop"),
}
TABLES = [("fixture_small", name, INPUT_TABLES, load_harmonized) for name in INPUT_TABLES]
TABLES += [("raw_small", name, RAW_TABLES, load_raw) for name in RAW_TABLES]


@pytest.mark.parametrize(
    ("source", "name", "tables", "load"), TABLES, ids=[case[1] for case in TABLES]
)
def test_every_input_table_rejects_bad_cells_headers_and_repeated_keys(
    tmp_path, source, name, tables, load
):
    schema, key = tables[name]
    assert tuple(schema)[:key] == KEYS[name]
    data = tmp_path / "data"
    shutil.copytree(DATA / source, data)
    path = data / f"{name}.csv"
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")

    def rejects(edited: str, error: str) -> None:
        path.write_text(edited)
        with pytest.raises(ValueError, match=re.escape(error)):
            load(data, tmp_path)

    for column, parse in schema.items():
        for bad in BAD_CELLS.get(parse, ()):
            cells = lines[1].rstrip("\n").split(",")
            cells[header.index(column)] = bad
            # a blank line is no row: csv writes a lone empty cell as ""
            edited = "".join([lines[0], (",".join(cells) or '""') + "\n", *lines[2:]])
            rejects(edited, f"{path}, line 2, column {column}: ")
    # line 2's key with the last line's other cells, as in a second residence for one supplier
    keys = {header.index(column) for column in KEYS[name]}
    second, last = (lines[index].rstrip("\n").split(",") for index in (1, -1))
    repeat = [second[i] if i in keys else last[i] for i in range(len(header))]
    error = f"{path}, line {len(lines) + 1}: repeats the key of line 2"
    rejects(text + ",".join(repeat) + "\n", error)
    twice = ",".join([*header, header[-1]]) + "\n"
    rejects(twice + "".join(lines[1:]), f"{path} names column(s) more than once: {header[-1]}")
    assert not (tmp_path / "out").exists()


def test_read_csv_splits_lines_only_where_csv_does(tmp_path):
    # str.splitlines would also split this name at \x0c, \x1c, \x85 and \u2028
    path = tmp_path / "t.csv"
    name = "a\x0cb\x1cc\x85d\u2028e"
    text = f"# provenance\nname,kt\r\n{name},1\r\nz,2\n"
    path.write_text(text, encoding="utf-8", newline="")
    rows, _ = read_csv(path, {"name": str, "kt": quantity}, 1)
    assert rows == [(name, 1.0), ("z", 2.0)]
    path.write_text(text.replace("z,2", "z,-2"), encoding="utf-8", newline="")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 4, column kt: '-2' is not")):
        read_csv(path, {"name": str, "kt": quantity}, 1)


def test_read_csv_names_the_file_and_line_of_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"# provenance\nname,kt\r\na,1\n\xffb,2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: not UTF-8 (invalid start byte)")):
        read_csv(path, {"name": str, "kt": quantity}, 1)
