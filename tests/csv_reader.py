"""Reads a write_csv file back, for the suites that check written tables."""

from pathlib import Path

from vpfp.errors import ConfigError


def read_csv(path):
    """Read a write_csv file back as (schema, rows of floats/ints/strings)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty CSV")
    schema = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(int(cell, 10))
            except ValueError:
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
        rows.append(cells)
    return schema, rows
