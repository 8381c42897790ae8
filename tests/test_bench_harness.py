"""Unit tests for the bench harness (tables, recorder, sweep)."""

import json

import numpy as np

from repro.bench import ExperimentRecorder, format_value, render_series, render_table, sweep


class TestFormatValue:
    def test_float_precision(self):
        assert format_value(0.123456) == "0.1235"

    def test_large_float_scientific(self):
        assert "e" in format_value(1234567.0)

    def test_small_float_scientific(self):
        assert "e" in format_value(0.0000123)

    def test_zero(self):
        assert format_value(0.0) == "0"

    def test_int_passthrough(self):
        assert format_value(42) == "42"

    def test_bool(self):
        assert format_value(True) == "True"


class TestRenderTable:
    def test_alignment_and_headers(self):
        out = render_table([{"a": 1, "bb": 2}, {"a": 30, "bb": 4}])
        lines = out.splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert len({len(l) for l in lines if l}) <= 2  # consistent width

    def test_title(self):
        out = render_table([{"x": 1}], title="Table III")
        assert out.startswith("Table III")

    def test_missing_cells_render_empty(self):
        out = render_table([{"a": 1}, {"b": 2}], headers=["a", "b"])
        assert "2" in out

    def test_empty_rows(self):
        assert "(no rows)" in render_table([], title="t")

    def test_render_series(self):
        out = render_series("Fig. 5", {1: 1.0, 16: 14.3}, "batch", "speedup")
        assert "batch" in out and "speedup" in out and "14.3" in out


class TestRecorder:
    def test_save_and_reload(self, tmp_path):
        recorder = ExperimentRecorder("unit", results_dir=tmp_path)
        recorder.add("series", {1: 2.0})
        recorder.add("array", np.arange(3))
        path = recorder.save()
        with open(path) as handle:
            data = json.load(handle)
        assert data["experiment"] == "unit"
        assert data["array"] == [0, 1, 2]
        assert data["series"] == {"1": 2.0}

    def test_numpy_scalars_coerced(self, tmp_path):
        recorder = ExperimentRecorder("unit2", results_dir=tmp_path)
        recorder.add("value", np.float64(1.5))
        path = recorder.save()
        assert json.load(open(path))["value"] == 1.5


class TestSweep:
    def test_rows_carry_param(self):
        rows = sweep([1, 2, 3], lambda v: {"square": v * v})
        assert rows[1] == {"param": 2, "square": 4}
        assert len(rows) == 3
