"""Shared experiment-harness utilities for the benchmark suite."""

from repro.bench.harness import format_row, format_table, ratio

__all__ = ["format_row", "format_table", "ratio"]
