"""Tests for the figure-row normalisation that bench documents serialise."""

import json

import pytest

from repro.analysis.export import figure_to_rows
from repro.errors import ConfigurationError
from repro.experiments.figures import FigureResult


@pytest.fixture
def figure():
    return FigureResult(
        figure_id="figX",
        title="test figure",
        x_label="rf",
        x_values=[1, 2, 3],
        series={"a": [0.1, 0.2, 0.3], "b": [1.0, 2.0, 3.0]},
    )


class TestFigureExport:
    def test_json_payload(self, figure):
        payload = json.loads(json.dumps(figure_to_rows(figure)))
        assert payload["figure_id"] == "figX"
        assert payload["series"]["b"] == [1.0, 2.0, 3.0]
        assert payload["x_values"] == [1, 2, 3]

    def test_rejects_non_figure(self):
        with pytest.raises(ConfigurationError):
            figure_to_rows("not a figure")
