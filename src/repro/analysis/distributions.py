"""Distribution utilities for response-time analysis (Fig. 12/13).

The inverse CDF and the nearest-rank percentile of a run's response
times are :meth:`repro.report.SimulationReport.inverse_cdf` and
:func:`repro.report.percentile`.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.errors import ConfigurationError


def log_spaced_thresholds(
    low: float, high: float, points_per_decade: int = 4
) -> List[float]:
    """Logarithmically spaced thresholds matching Fig. 12's log x-axis."""
    if low <= 0 or high <= low:
        raise ConfigurationError("need 0 < low < high")
    if points_per_decade <= 0:
        raise ConfigurationError("points_per_decade must be positive")
    thresholds = []
    exponent = math.log10(low)
    stop = math.log10(high)
    step = 1.0 / points_per_decade
    while exponent <= stop + 1e-12:
        thresholds.append(10.0 ** exponent)
        exponent += step
    return thresholds


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (empty input rejected)."""
    if not values:
        raise ConfigurationError("mean of empty sequence")
    return sum(values) / len(values)
