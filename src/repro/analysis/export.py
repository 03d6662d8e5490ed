"""Normalise experiment figures into plain rows.

:func:`figure_to_rows` turns a ``FigureResult`` into the dict of axes and
series that bench documents serialise.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import ConfigurationError


def figure_to_rows(figure: Any) -> Dict[str, Any]:
    """Normalise a FigureResult into a plain dict of rows."""
    for attribute in ("x_label", "x_values", "series", "figure_id", "title"):
        if not hasattr(figure, attribute):
            raise ConfigurationError(
                "expected a FigureResult-like object with series data"
            )
    return {
        "figure_id": figure.figure_id,
        "title": figure.title,
        "x_label": figure.x_label,
        "x_values": list(figure.x_values),
        "series": {name: list(values) for name, values in figure.series.items()},
    }
