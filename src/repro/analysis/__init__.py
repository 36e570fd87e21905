"""Interference analysis: store-backed comparison rows and reports.

:mod:`repro.analysis.pairwise` and :mod:`repro.analysis.mixed` rebuild the
two studies of the paper's evaluation (Sections V and VI) from a populated
:class:`~repro.results.ResultStore` without simulating
(:func:`~repro.analysis.pairwise.comparison_rows`,
:func:`~repro.analysis.mixed.mixed_rows_from_store`).
:mod:`repro.analysis.reports` renders rows as plain-text, CSV or Markdown
tables and hosts the named report builders behind ``dragonfly-sim report``
(see docs/results.md).
"""

from repro.analysis.pairwise import comparison_rows
from repro.analysis.mixed import mixed_rows_from_store
from repro.analysis.reports import (
    build_report,
    format_csv,
    format_markdown,
    format_table,
    ml_rows,
    render_rows,
    table1_rows,
    table2_rows,
    trace_rows,
)

__all__ = [
    "build_report",
    "comparison_rows",
    "format_csv",
    "format_markdown",
    "format_table",
    "mixed_rows_from_store",
    "ml_rows",
    "render_rows",
    "table1_rows",
    "table2_rows",
    "trace_rows",
]
