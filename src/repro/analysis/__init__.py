"""Analysis helpers: state periods, tables, figure rows."""

from repro.analysis.idleness import (
    PeriodSummary,
    period_summary,
    standby_periods_of_report,
    state_periods,
)
from repro.analysis.tables import format_breakdown, format_series_table, format_table

__all__ = [
    "PeriodSummary",
    "format_breakdown",
    "format_series_table",
    "format_table",
    "period_summary",
    "standby_periods_of_report",
    "state_periods",
]
