"""Tabular scenario reports with deterministic CSV / JSON / SVG emission.

Every CLI subcommand that reports builds one ScenarioReport: named columns
over rows of cells, plus metadata (command, config hash, seed, version).
Emission is byte-deterministic for identical inputs: no timestamps, fixed
float formatting (17 significant digits unless narrowed), sorted metadata.
"""

from __future__ import annotations

import io
import math

from . import _Record, __version__

Cell = float | int | str


def not_finite(what: str) -> str:
    """The one wording for a number that float arithmetic could not hold."""
    return f"{what} is not finite (an input is too large for float arithmetic)"


def format_number(value: Cell, digits: int | None) -> str:
    if isinstance(value, float):
        return format(value, f".{digits or 17}g")
    return str(value)


class ScenarioReport(_Record):
    """Named numeric columns over rows, with reproducibility metadata; read-only.

    ``metadata`` holds what a report carries beyond its command and the
    package version, which every report names.
    """

    command: str
    columns: list[str]
    rows: list[list[Cell]]
    metadata: dict[str, Cell]

    def __init__(
        self, command: str, columns: list[str], rows: list[list[Cell]], metadata: dict[str, Cell] | None = None
    ):
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(f"row width {len(row)} != {len(columns)} columns")
            for column, cell in zip(columns, row):
                if isinstance(cell, float) and not math.isfinite(cell):
                    raise ValueError(not_finite(f"{command}: {column} = {cell}"))
        self.__dict__.update(command=command, columns=columns, rows=rows, metadata=metadata or {})

    def _header(self) -> dict[str, Cell]:
        return {"command": self.command, "version": __version__, **self.metadata}

    def to_csv(self, digits: int | None = None) -> str:
        out = io.StringIO()
        for key, value in sorted(self._header().items()):
            out.write(f"# {key}: {value}\n")
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(format_number(cell, digits) for cell in row) + "\n")
        return out.getvalue()

    def to_json(self, digits: int | None = None) -> str:
        import json

        def cell(value: Cell):
            if isinstance(value, float) and digits:
                return float(format(value, f".{digits}g"))
            return value

        doc = {
            "metadata": self._header(),
            "columns": self.columns,
            "rows": [[cell(v) for v in row] for row in self.rows],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def render(self, fmt: str, digits: int | None = None) -> str:
        if fmt == "csv":
            return self.to_csv(digits)
        if fmt == "json":
            return self.to_json(digits)
        raise ValueError(f"unknown output format {fmt!r}")


def svg_line_chart(report: ScenarioReport) -> str:
    """Static 640x480 SVG line chart of every other column against the first, titled by the command.

    Write-only convenience for the figure-reproduction subcommands; never
    parsed back.  Deterministic output (fixed coordinate formatting).
    """
    width, height = 640, 480
    x_column = report.columns[0]
    xs = [float(row[0]) for row in report.rows]
    # a repeated column name keeps its first column's values
    series = {name: [float(row[report.columns.index(name)]) for row in report.rows] for name in report.columns[1:]}

    margin = 50.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    x_min, x_max = min(xs), max(xs)
    all_y = [v for vals in series.values() for v in vals]
    y_min, y_max = min(all_y), max(all_y)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    def px(x: float) -> float:
        return margin + (x - x_min) / x_span * plot_w

    def py(y: float) -> float:
        return height - margin - (y - y_min) / y_span * plot_h

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 20}" font-size="12">{x_min:.6g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 20}" font-size="12" '
        f'text-anchor="end">{x_max:.6g}</text>',
        f'<text x="{margin - 5}" y="{height - margin}" font-size="12" '
        f'text-anchor="end">{y_min:.6g}</text>',
        f'<text x="{margin - 5}" y="{margin + 10}" font-size="12" text-anchor="end">{y_max:.6g}</text>',
        f'<text x="{margin - 5}" y="{height - margin + 20}" font-size="12" '
        f'text-anchor="end">{x_column}</text>',
        f'<text x="{width / 2:.1f}" y="25" font-size="14" text-anchor="middle">{report.command}</text>',
    ]
    for i, (name, ys) in enumerate(series.items()):
        color = palette[i % len(palette)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{width - margin - 5}" y="{margin + 15 + 15 * i}" font-size="12" '
            f'text-anchor="end" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
