"""Analysis helpers: distributions, state periods, tables, exports."""

from repro.analysis.distributions import log_spaced_thresholds, mean
from repro.analysis.export import (
    figure_to_csv,
    figure_to_json,
    report_to_dict,
    report_to_json,
)
from repro.analysis.idleness import (
    PeriodSummary,
    idle_periods_of_report,
    period_summary,
    standby_periods_of_report,
    state_periods,
)
from repro.analysis.tables import format_breakdown, format_series_table, format_table

__all__ = [
    "PeriodSummary",
    "figure_to_csv",
    "figure_to_json",
    "format_breakdown",
    "format_series_table",
    "format_table",
    "idle_periods_of_report",
    "log_spaced_thresholds",
    "mean",
    "period_summary",
    "report_to_dict",
    "report_to_json",
    "standby_periods_of_report",
    "state_periods",
]
