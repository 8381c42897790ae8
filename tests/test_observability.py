"""Unit and integration tests for the observability layer."""

import json
import math
import sys
import threading

import numpy as np
import pytest

from repro.embedding.trainer import SgnsConfig
from repro.faults import FaultPlan
from repro.observability import (
    NULL_RECORDER,
    Histogram,
    NullRecorder,
    Recorder,
    get_recorder,
    set_recorder,
    use_recorder,
    validate_pipeline_observability,
)
from repro.tasks.link_prediction import LinkPredictionConfig
from repro.tasks.pipeline import PhaseTimings, Pipeline, PipelineConfig
from repro.tasks.training import TrainSettings
from repro.walk.config import WalkConfig

pytestmark = pytest.mark.observability


class TestHistogram:
    def test_streaming_moments(self):
        hist = Histogram()
        values = [1.0, 2.0, 3.0, 10.0]
        for v in values:
            hist.observe(v)
        assert hist.count == 4
        assert hist.total == pytest.approx(sum(values))
        assert hist.mean == pytest.approx(np.mean(values))
        assert hist.std == pytest.approx(np.std(values))
        assert hist.min == 1.0
        assert hist.max == 10.0

    def test_empty_summary_is_json_safe(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["min"] == 0.0 and summary["max"] == 0.0
        assert not any(math.isinf(v) or math.isnan(v)
                       for v in summary.values())

    def test_single_observation_has_zero_std(self):
        hist = Histogram()
        hist.observe(5.0)
        assert hist.std == 0.0
        assert hist.mean == 5.0


class TestRecorderMetrics:
    def test_counter_accumulates(self):
        rec = Recorder()
        rec.counter("edges")
        rec.counter("edges", 41)
        assert rec.counters["edges"] == 42

    def test_gauge_keeps_last_value(self):
        rec = Recorder()
        rec.gauge("lr", 0.1)
        rec.gauge("lr", 0.05)
        assert rec.gauges["lr"] == 0.05

    def test_observe_builds_histograms(self):
        rec = Recorder()
        for v in (1.0, 3.0):
            rec.observe("lat", v)
        assert rec.metrics()["histograms"]["lat"]["mean"] == 2.0

    def test_concurrent_updates_lose_nothing(self):
        """Serving client threads update one recorder concurrently; an
        unlocked read-add-write dropped increments under contention."""
        rec = Recorder()
        threads, per_thread = 4, 50_000

        def work() -> None:
            for _ in range(per_thread):
                rec.counter("c")
                rec.observe("h", 1.0)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in pool)
        assert rec.counters["c"] == threads * per_thread
        assert rec.histograms["h"].count == threads * per_thread
        assert rec.histograms["h"].total == threads * per_thread

    def test_metrics_document_sections(self):
        rec = Recorder()
        doc = rec.metrics()
        assert set(doc) == {"counters", "gauges", "histograms"}


class TestSpans:
    def test_nesting_parent_links(self):
        rec = Recorder()
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in rec.spans()] == ["outer", "inner"]

    def test_span_times_and_closes(self):
        rec = Recorder()
        with rec.span("phase") as span:
            assert math.isnan(span.duration)  # open
        assert span.status == "ok"
        assert span.duration >= 0.0
        assert rec.span_seconds("phase") == pytest.approx(span.duration)

    def test_exception_marks_error_and_reraises(self):
        rec = Recorder()
        with pytest.raises(RuntimeError, match="boom"):
            with rec.span("phase"):
                raise RuntimeError("boom")
        (span,) = rec.spans("phase")
        assert span.status == "error"
        assert "boom" in span.error
        assert span.end is not None
        assert rec.current_span is None  # stack popped despite the raise

    def test_attrs_and_annotate(self):
        rec = Recorder()
        with rec.span("phase", workers=2) as span:
            span.annotate(cached=False)
            rec.annotate(epoch=3)
        assert span.attrs == {"workers": 2, "cached": False, "epoch": 3}

    def test_span_seconds_sums_repeats(self):
        ticks = iter([0.0, 1.0, 1.5, 2.0, 2.25])
        rec = Recorder(clock=lambda: next(ticks))
        for _ in range(2):
            with rec.span("epoch"):
                pass
        assert rec.span_seconds("epoch") == pytest.approx(0.75)


class TestNullRecorder:
    def test_mutations_are_no_ops(self):
        rec = NullRecorder()
        rec.counter("x", 5)
        rec.gauge("y", 1.0)
        rec.observe("z", 2.0)
        assert rec.counters == {} and rec.gauges == {}
        assert rec.histograms == {}
        assert list(rec.spans()) == []
        assert rec.span_seconds("anything") == 0.0

    def test_not_enabled(self):
        assert NullRecorder().enabled is False
        assert Recorder().enabled is True

    def test_null_span_still_measures_time(self):
        # PhaseTimings relies on span.duration even when disabled.
        rec = NullRecorder()
        with rec.span("rwalk") as span:
            pass
        assert span.duration >= 0.0

    def test_null_span_survives_exceptions(self):
        rec = NullRecorder()
        with pytest.raises(ValueError):
            with rec.span("phase"):
                raise ValueError("x")


class TestAmbientRecorder:
    def test_default_is_shared_null(self):
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_scopes_and_restores(self):
        rec = Recorder()
        with use_recorder(rec) as active:
            assert active is rec
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_none_restores_null(self):
        rec = Recorder()
        previous = set_recorder(rec)
        try:
            assert get_recorder() is rec
        finally:
            assert set_recorder(previous) is rec
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_recorder(Recorder()):
                raise RuntimeError("x")
        assert get_recorder() is NULL_RECORDER


class TestSerialization:
    def test_metrics_json_round_trip(self, tmp_path):
        rec = Recorder()
        rec.counter("edges", 7)
        rec.gauge("lr", 0.05)
        rec.observe("lat", 2.0)
        path = tmp_path / "metrics.json"
        rec.write_metrics(path)
        doc = json.loads(path.read_text())
        assert doc["counters"]["edges"] == 7
        assert doc["gauges"]["lr"] == 0.05
        assert doc["histograms"]["lat"]["count"] == 1

    def test_trace_jsonl_round_trip(self, tmp_path):
        rec = Recorder()
        with rec.span("outer", workers=2):
            with rec.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        rec.write_trace(path)
        rows = Recorder.read_trace(path)
        assert rows == rec.trace()
        by_name = {row["name"]: row for row in rows}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["attrs"] == {"workers": 2}


class TestValidatePipelineObservability:
    def _good_files(self, tmp_path):
        rec = Recorder()
        for name in ("walk.edges_scanned", "walk.steps",
                     "walk.search_iterations"):
            rec.counter(name, 10)
        with rec.span("rwalk"), rec.span("word2vec"):
            pass
        with rec.span("data_prep"), rec.span("train"), rec.span("test"):
            pass
        rec.write_metrics(tmp_path / "m.json")
        rec.write_trace(tmp_path / "t.jsonl")
        return tmp_path / "m.json", tmp_path / "t.jsonl"

    def test_accepts_complete_run(self, tmp_path):
        metrics_path, trace_path = self._good_files(tmp_path)
        out = validate_pipeline_observability(metrics_path, trace_path)
        assert out["metrics"]["counters"]["walk.steps"] == 10

    def test_rejects_zero_op_counters(self, tmp_path):
        metrics_path, trace_path = self._good_files(tmp_path)
        doc = json.loads(metrics_path.read_text())
        doc["counters"]["walk.steps"] = 0
        metrics_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="walk.steps"):
            validate_pipeline_observability(metrics_path, trace_path)

    def test_rejects_missing_phase_span(self, tmp_path):
        metrics_path, trace_path = self._good_files(tmp_path)
        rows = [row for row in Recorder.read_trace(trace_path)
                if row["name"] != "word2vec"]
        trace_path.write_text(
            "\n".join(json.dumps(row) for row in rows) + "\n"
        )
        with pytest.raises(ValueError, match="word2vec"):
            validate_pipeline_observability(metrics_path, trace_path)

    def test_rejects_dangling_parent(self, tmp_path):
        metrics_path, trace_path = self._good_files(tmp_path)
        rows = Recorder.read_trace(trace_path)
        rows[-1]["parent"] = 999
        trace_path.write_text(
            "\n".join(json.dumps(row) for row in rows) + "\n"
        )
        with pytest.raises(ValueError, match="dangling parent"):
            validate_pipeline_observability(metrics_path, trace_path)


def _small_pipeline(recorder, **overrides):
    settings = dict(
        walk=WalkConfig(num_walks_per_node=2, max_walk_length=4),
        sgns=SgnsConfig(dim=4, epochs=1),
        link_prediction=LinkPredictionConfig(
            training=TrainSettings(epochs=3)
        ),
        faults=FaultPlan(),
    )
    settings.update(overrides)
    return Pipeline(PipelineConfig(**settings), recorder=recorder)


class TestPipelineIntegration:
    def test_full_run_emits_phase_spans_and_op_counters(self, tmp_path,
                                                        email_edges):
        rec = Recorder()
        result = _small_pipeline(rec).run_link_prediction(email_edges, seed=5)
        rec.write_metrics(tmp_path / "m.json")
        rec.write_trace(tmp_path / "t.jsonl")
        out = validate_pipeline_observability(tmp_path / "m.json",
                                              tmp_path / "t.jsonl")
        counters = out["metrics"]["counters"]
        assert counters["walk.edges_scanned"] == result.walk_stats.candidates_scanned
        assert counters["sgns.pairs"] == result.trainer_stats.pairs_trained
        assert counters["train.epochs"] == result.timings.train_epochs

    def test_phase_timings_agree_with_span_trace(self, email_edges):
        rec = Recorder()
        result = _small_pipeline(rec).run_link_prediction(email_edges, seed=5)
        rebuilt = PhaseTimings.from_recorder(rec)
        assert rebuilt.rwalk == pytest.approx(result.timings.rwalk)
        assert rebuilt.word2vec == pytest.approx(result.timings.word2vec)
        assert rebuilt.data_prep == pytest.approx(result.timings.data_prep)
        assert rebuilt.train == pytest.approx(result.timings.train)
        assert rebuilt.test == pytest.approx(result.timings.test)
        assert rebuilt.train_epochs == result.timings.train_epochs

    def test_disabled_observability_still_times_phases(self, email_edges):
        result = _small_pipeline(None).run_link_prediction(email_edges, seed=5)
        assert result.timings.rwalk > 0.0
        assert result.timings.train > 0.0
        assert get_recorder() is NULL_RECORDER

    def test_result_identical_with_and_without_recorder(self, email_edges):
        observed = _small_pipeline(Recorder()).run_link_prediction(
            email_edges, seed=5
        )
        plain = _small_pipeline(None).run_link_prediction(email_edges, seed=5)
        np.testing.assert_array_equal(observed.embeddings.matrix,
                                      plain.embeddings.matrix)
        assert observed.accuracy == plain.accuracy

    def test_checkpoint_events_recorded(self, tmp_path, email_edges):
        rec = Recorder()
        pipeline = _small_pipeline(
            rec, checkpoint_dir=str(tmp_path / "ck")
        )
        pipeline.run_link_prediction(email_edges, seed=5)
        assert rec.counters["checkpoint.saves"] >= 2  # walks + embeddings
        assert rec.counters["checkpoint.bytes_written"] > 0
        assert any(rec.spans("checkpoint.save"))

        resumed = Recorder()
        _small_pipeline(
            resumed, checkpoint_dir=str(tmp_path / "ck"), resume=True
        ).run_link_prediction(email_edges, seed=5)
        assert resumed.counters["checkpoint.loads"] >= 2
        cached = [s.attrs.get("cached") for s in resumed.spans("rwalk")]
        assert cached == [True]
