"""Formatting helpers for benchmark output.

Every benchmark prints the table or series the corresponding paper
figure/table reports; these helpers keep that output uniform and easy to
paste into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def ratio(numerator: float, denominator: float) -> str:
    """A 'x-factor' string, tolerant of zero denominators."""
    if denominator == 0:
        return "inf x"
    value = numerator / denominator
    if value >= 100:
        return f"{value:.0f}x"
    return f"{value:.2f}x"


def format_row(row: Mapping[str, object], widths: Mapping[str, int]) -> str:
    return " | ".join(str(row.get(key, "")).rjust(width) for key, width in widths.items())


def format_table(title: str, rows: Sequence[Mapping[str, object]]) -> str:
    """Render rows of dicts as an aligned text table with a title rule."""
    if not rows:
        return f"== {title} ==\n(no rows)"
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    widths = {
        key: max(len(key), *(len(str(row.get(key, ""))) for row in rows)) for key in keys
    }
    header = " | ".join(key.rjust(widths[key]) for key in keys)
    rule = "-+-".join("-" * widths[key] for key in keys)
    body = "\n".join(format_row(row, widths) for row in rows)
    return f"== {title} ==\n{header}\n{rule}\n{body}"


def emit_table(title: str, rows: Sequence[Mapping[str, object]], path=None) -> str:
    """Print an experiment table and optionally persist it to ``path``.

    Benchmarks use this so the series each paper figure reports exists
    both in the pytest output and as a file EXPERIMENTS.md can cite.
    """
    rendered = format_table(title, rows)
    print("\n" + rendered)
    if path is not None:
        from pathlib import Path

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(rendered + "\n")
    return rendered
