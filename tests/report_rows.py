"""Untyped reading of the report tables and reference fixtures the tests check."""

from __future__ import annotations

import csv
from pathlib import Path


def read_rows(path: Path) -> list[dict[str, str]]:
    """The rows of a CSV file that has no ``#`` lines, as dicts keyed by its header."""
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def table_rows(report, name: str) -> list[dict[str, object]]:
    """The rows of one of a report's tables, as dicts keyed by its header."""
    header, rows = next((header, rows) for title, header, rows in report.tables if title == name)
    return [dict(zip(header, row)) for row in rows]
