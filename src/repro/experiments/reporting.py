"""Plain-text table and bar-chart rendering for experiment output."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["format_bar_chart", "format_rows", "format_table"]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str | None = None
) -> str:
    """Monospace table with a header rule, like the paper's tables."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have one cell per header")
    cells = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def render(row: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(row, widths))

    rule = "-+-".join("-" * width for width in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(render(cells[0]))
    lines.append(rule)
    lines.extend(render(row) for row in cells[1:])
    return "\n".join(lines)


def format_rows(rows: Sequence[Mapping[str, Any]], columns: Sequence[str]) -> str:
    """Sweep rows as a table: ``%.4g`` floats, every other value verbatim."""
    return format_table(
        columns,
        [
            [
                f"{row[c]:.4g}" if isinstance(row[c], float) else str(row[c])
                for c in columns
            ]
            for row in rows
        ],
    )


def format_bar_chart(
    items: Sequence[tuple[str, float]],
    unit: str = "",
    width: int = 40,
    title: str | None = None,
) -> str:
    """Horizontal ASCII bars, largest value = full width."""
    if width < 1:
        raise ValueError("width must be >= 1")
    lines = [title] if title else []
    if not items:
        return "\n".join(lines + ["(empty)"])
    label_width = max(len(label) for label, _ in items)
    peak = max(abs(value) for _, value in items)
    for label, value in items:
        bar_len = 0 if peak == 0 else int(round(width * abs(value) / peak))
        lines.append(
            f"{label.ljust(label_width)} | {'#' * bar_len} {value:.6g}{unit}"
        )
    return "\n".join(lines)
