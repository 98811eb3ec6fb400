"""CSV table plumbing shared by the pipeline and the experiment.

Tables are flat UTF-8 CSV files with "." decimals.  Lines starting with
``#`` carry provenance (input digests, the pipeline version) and are
skipped on reading.  Every table the package writes goes through
:func:`write_tables`, and every row through one cell rule, :func:`cells`.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL, ~3 ms per launch
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # a build without it
        from hashlib import sha256


def quantity(cell: str) -> float:
    """Parse a mass, volume or rate: a finite number >= 0."""
    value = float(cell)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{cell!r} is not a finite number >= 0")
    return value


def read_csv(
    path: Path, schema: Mapping[str, Callable[[str], object]], key: int
) -> tuple[list[tuple], str]:
    """Parse a table by ``schema``; return its rows and the sha256[:16] of its bytes.

    ``schema`` maps each column read to the parser of its cells, which
    raises ``ValueError`` on a bad cell; other columns are ignored.  A row
    is the tuple of its parsed cells in schema order, and its first ``key``
    cells identify it.  Bytes that are not UTF-8, a repeated or missing
    header column, a row of the wrong length, a repeated key, an empty cell
    or a bad cell raise ``ValueError`` naming the file, and the line and
    column at fault.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: not UTF-8 ({exc.reason})") from None
    # newline="" splits lines as csv expects: only \n, \r and \r\n end a line
    lines = enumerate(io.StringIO(text, newline=""), 1)
    numbered = [item for item in lines if not item[1].startswith("#")]
    reader = csv.reader(line for _, line in numbered)
    header = next(reader, [])
    repeated = sorted({column for column in header if header.count(column) > 1})
    if repeated:
        raise ValueError(f"{path} names column(s) more than once: {', '.join(repeated)}")
    missing = [column for column in schema if column not in header]
    if missing:
        raise ValueError(f"{path} lacks column(s): {', '.join(missing)}")
    columns = [(column, header.index(column), parse) for column, parse in schema.items()]
    rows = []
    key_lines: dict[tuple, int] = {}
    for cells in reader:
        if not cells:
            continue
        line = numbered[reader.line_num - 1][0]
        if len(cells) != len(header):
            raise ValueError(f"{path}, line {line}: {len(cells)} cells, header has {len(header)}")
        row = []
        for column, index, parse in columns:
            if not cells[index]:
                raise ValueError(f"{path}, line {line}, column {column}: empty cell")
            try:
                row.append(parse(cells[index]))
            except ValueError as exc:
                raise ValueError(f"{path}, line {line}, column {column}: {exc}") from None
        first = key_lines.setdefault(tuple(row[:key]), line)
        if first != line:
            raise ValueError(f"{path}, line {line}: repeats the key of line {first}")
        rows.append(tuple(row))
    return rows, sha256(data).hexdigest()[:16]


#: One table as written: its name (the CSV's stem), its header and its rows.
Table = tuple[str, Sequence[str], Sequence[Sequence[object]]]


def cells(row: Iterable[object]) -> list[object]:
    """The row as written: a float with 6 decimals, ``None`` blank, any other cell as is."""
    return [f"{cell:.6f}" if type(cell) is float else "" if cell is None else cell for cell in row]


def write_tables(
    outdir: Path, tables: Iterable[Table], provenance: Mapping[str, str] | None = None
) -> dict[str, Path]:
    """Write each table as ``outdir/<name>.csv`` under ``# key: value`` provenance lines.

    Makes ``outdir`` and returns each table's path by name.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for name, header, rows in tables:
        paths[name] = outdir / f"{name}.csv"
        with paths[name].open("w", newline="", encoding="utf-8") as handle:
            for key, value in (provenance or {}).items():
                handle.write(f"# {key}: {value}\n")
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(map(cells, rows))
    return paths
