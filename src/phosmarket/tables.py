"""CSV table plumbing shared by the pipeline and the experiment.

Tables are flat UTF-8 CSV files with "." decimals.  Lines starting with
``#`` carry provenance (input digests, the pipeline version) and are
skipped on reading.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path
from typing import Iterable, Mapping, Sequence


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def read_csv(path: Path, columns: Iterable[str] = ()) -> list[dict[str, str]]:
    """Read a CSV file, skipping ``#`` provenance/comment lines and blank lines.

    ``columns`` are the columns the caller reads; a header that lacks any of
    them raises ``ValueError`` naming the file and the missing columns.  A row
    whose cell count differs from the header's raises ``ValueError`` naming
    the file and the row's line number in it.
    """
    with path.open(newline="", encoding="utf-8") as handle:
        numbered = [item for item in enumerate(handle, 1) if not item[1].startswith("#")]
    reader = csv.reader(line for _, line in numbered)
    header = next(reader, [])
    missing = [column for column in columns if column not in header]
    if missing:
        raise ValueError(f"{path} lacks column(s): {', '.join(missing)}")
    rows = []
    for cells in reader:
        if not cells:
            continue
        if len(cells) != len(header):
            line = numbered[reader.line_num - 1][0]
            raise ValueError(f"{path}, line {line}: {len(cells)} cells, header has {len(header)}")
        rows.append(dict(zip(header, cells)))
    return rows


def write_csv(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    provenance: Mapping[str, str] | None = None,
) -> None:
    """Write a CSV file with optional ``#``-prefixed provenance lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        for key, value in (provenance or {}).items():
            handle.write(f"# {key}: {value}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
