"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.io import LabeledTemporalDataset, read_wel


FAST = ["--walks", "4", "--length", "5", "--dim", "4",
        "--w2v-epochs", "1", "--epochs", "3", "--seed", "1"]


class TestGenerate:
    def test_er_wel(self, tmp_path, capsys):
        out = tmp_path / "er.wel"
        code = main(["generate", "--nodes", "100", "--edges", "500",
                     "-o", str(out)])
        assert code == 0
        edges = read_wel(out)
        assert edges.num_nodes == 100
        assert len(edges) == 500
        assert "wrote" in capsys.readouterr().out

    def test_dataset_shape_wel(self, tmp_path):
        out = tmp_path / "email.wel"
        code = main(["generate", "--dataset", "ia-email",
                     "--scale", "0.001", "-o", str(out)])
        assert code == 0
        assert len(read_wel(out)) > 100

    def test_labeled_dataset_npz(self, tmp_path):
        out = tmp_path / "dblp.npz"
        code = main(["generate", "--dataset", "dblp3", "--scale", "0.1",
                     "-o", str(out)])
        assert code == 0
        dataset = LabeledTemporalDataset.load(out)
        assert dataset.num_classes == 3

    def test_labeled_dataset_needs_npz(self, tmp_path, capsys):
        out = tmp_path / "dblp.wel"
        code = main(["generate", "--dataset", "dblp3", "-o", str(out)])
        assert code == 2
        assert "npz" in capsys.readouterr().err


class TestPreprocess:
    def test_normalizes_and_sorts(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text("# comment\n0 1 300\n1 2 100\n2 0 200\n")
        out = tmp_path / "clean.wel"
        code = main(["preprocess", "-i", str(raw), "-o", str(out)])
        assert code == 0
        edges = read_wel(out, normalize=False)
        assert edges.is_time_sorted()
        assert edges.timestamps.min() == 0.0
        assert edges.timestamps.max() == 1.0

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = main(["preprocess", "-i", str(tmp_path / "nope.txt"),
                     "-o", str(tmp_path / "out.wel")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_input_fails_cleanly(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("0 1\n")
        code = main(["preprocess", "-i", str(raw),
                     "-o", str(tmp_path / "out.wel")])
        assert code == 1


class TestLinkpred:
    def test_on_generated_file(self, tmp_path, capsys):
        wel = tmp_path / "g.wel"
        main(["generate", "--dataset", "ia-email", "--scale", "0.002",
              "--seed", "3", "-o", str(wel)])
        code = main(["linkpred", "--input", str(wel), *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "link-prediction" in out
        assert "accuracy" in out

    def test_on_named_shape(self, capsys):
        code = main(["linkpred", "--dataset", "ia-email", *FAST])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_zero_batch_sentences_rejected(self, capsys):
        code = main(["linkpred", "--dataset", "ia-email", *FAST,
                     "--batch-sentences", "0"])
        assert code == 1
        assert "batch_sentences" in capsys.readouterr().err


class TestNodeclass:
    def test_on_named_shape(self, capsys):
        code = main(["nodeclass", "--dataset", "dblp3", *FAST])
        assert code == 0
        assert "node-classification" in capsys.readouterr().out

    def test_on_bundle(self, tmp_path, capsys):
        npz = tmp_path / "d.npz"
        main(["generate", "--dataset", "dblp3", "--scale", "0.1",
              "--seed", "2", "-o", str(npz)])
        code = main(["nodeclass", "--input", str(npz), *FAST])
        assert code == 0
        assert "node-classification" in capsys.readouterr().out


# The classifier flags and their defaults on the two task commands.
# ``None`` means "the task's own default": see TestClassifierDefaults.
CLASSIFIER_SURFACE = {"--epochs": None, "--lr": None,
                      "--target-accuracy": None}


def _command_surface(command):
    import argparse

    from repro.cli import build_parser

    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {action.option_strings[-1]: action.default
            for action in subparsers.choices[command]._actions
            if not isinstance(action, argparse._HelpAction)}


class TestClassifierDefaults:
    """Without classifier flags each task trains on its own default."""

    @pytest.mark.parametrize("command", ["linkpred", "nodeclass"])
    def test_classifier_flags_default_to_the_task(self, command):
        surface = _command_surface(command)
        assert {flag: surface[flag] for flag in CLASSIFIER_SURFACE} \
            == CLASSIFIER_SURFACE

    def test_one_flag_overrides_one_field_of_each_task(self):
        import dataclasses

        from repro.cli import _pipeline_from_args, build_parser
        from repro.tasks.link_prediction import LinkPredictionConfig
        from repro.tasks.node_classification import NodeClassificationConfig

        args = build_parser().parse_args(
            ["linkpred", "--dataset", "ia-email", "--lr", "0.3"])
        config = _pipeline_from_args(args).config
        lp, nc = LinkPredictionConfig().training, \
            NodeClassificationConfig().training
        assert config.link_prediction.training == dataclasses.replace(
            lp, learning_rate=0.3)
        assert config.node_classification.training == dataclasses.replace(
            nc, learning_rate=0.3)
        args = build_parser().parse_args(
            ["linkpred", "--dataset", "ia-email"])
        config = _pipeline_from_args(args).config
        assert config.link_prediction.training == lp
        assert config.node_classification.training == nc

    def test_linkpred_without_flags_trains_the_default_epochs(self, tmp_path,
                                                              capsys):
        import json

        from repro.tasks.link_prediction import LinkPredictionConfig

        wel = tmp_path / "tiny.wel"
        main(["generate", "--nodes", "200", "--edges", "2000",
              "-o", str(wel)])
        metrics = tmp_path / "metrics.json"
        code = main(["linkpred", "--input", str(wel), "--walks", "4",
                     "--length", "5", "--dim", "4", "--w2v-epochs", "1",
                     "--metrics-out", str(metrics)])
        assert code == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["train.epochs"] \
            == LinkPredictionConfig().training.epochs


class TestObservabilityFlags:
    def test_linkpred_writes_metrics_and_trace(self, tmp_path, capsys):
        from repro.observability import validate_pipeline_observability

        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.jsonl"
        code = main(["linkpred", "--dataset", "ia-email", *FAST,
                     "--metrics-out", str(metrics),
                     "--trace-out", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote metrics: {metrics}" in out
        assert f"wrote trace: {trace}" in out
        result = validate_pipeline_observability(metrics, trace)
        counters = result["metrics"]["counters"]
        assert counters["sgns.pairs"] > 0
        assert counters["train.epochs"] == 3
        names = {row["name"] for row in result["spans"]}
        assert "train_epoch" in names and "sgns_epoch" in names

    def test_characterize_records_kernel_counters(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        code = main(["characterize", "--nodes", "500", "--edges", "4000",
                     *FAST, "--metrics-out", str(metrics)])
        assert code == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["walk.edges_scanned"] > 0
        assert counters["sgns.fp_ops"] > 0

    def test_no_flags_write_nothing(self, tmp_path, capsys):
        code = main(["linkpred", "--dataset", "ia-email", *FAST])
        assert code == 0
        assert "wrote metrics" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_sweep_named_dataset(self, capsys):
        code = main(["sweep", "--dataset", "ia-email",
                     "--parameter", "num_walks", "--values", "1,2",
                     "--seeds", "1", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy vs num_walks" in out
        assert "saturation point" in out

    def test_sweep_requires_known_parameter(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--dataset", "ia-email",
                  "--parameter", "window", "--values", "1"])


class TestCharacterize:
    def test_prints_all_tables(self, capsys):
        code = main(["characterize", "--nodes", "2000", "--edges", "20000",
                     *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "instruction mix" in out
        assert "GPU kernels" in out
        assert "thread scaling" in out


class TestServeSim:
    def test_closed_loop_run_with_live_updates(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "serve_metrics.json"
        code = main(["serve-sim", "--nodes", "200", "--edges", "1500",
                     "--requests", "300", "--clients", "2",
                     "--update-batches", "1", "--update-interval", "0.01",
                     "--walks", "2", "--length", "4", "--dim", "4",
                     "--w2v-epochs", "1", "--seed", "1",
                     "--metrics-out", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Closed-loop load" in out
        assert "Serving internals" in out
        # The live batch went through the stream controller, was
        # refreshed, and the refresh was published.
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["stream.controller.batches"] == 1
        assert counters["serving.store.publishes"] == 2

    def test_metrics_export(self, tmp_path, capsys):
        metrics = tmp_path / "serve_metrics.json"
        code = main(["serve-sim", "--nodes", "150", "--edges", "1000",
                     "--requests", "200", "--clients", "2",
                     "--walks", "2", "--length", "4", "--dim", "4",
                     "--w2v-epochs", "1", "--seed", "2",
                     "--metrics-out", str(metrics)])
        assert code == 0
        import json

        recorded = json.loads(metrics.read_text())
        assert recorded["counters"]["serving.store.publishes"] == 1
        assert "serving.latency.score_s" in recorded["histograms"]


    def test_ivf_run_reports_its_misses(self, tmp_path, capsys):
        """IVF misses count as cache misses, so a run that scanned
        reports a hit rate below 1."""
        import json

        metrics = tmp_path / "serve_metrics.json"
        code = main(["serve-sim", "--nodes", "1200", "--edges", "8000",
                     "--requests", "300", "--clients", "2",
                     "--update-batches", "0", "--index", "ivf",
                     "--walks", "2", "--length", "4", "--dim", "4",
                     "--w2v-epochs", "1", "--seed", "1",
                     "--metrics-out", str(metrics)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index(next(line for line in lines
                                  if line.startswith("publishes")))
        reported = float(lines[header + 2].split()[2])
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["serving.ann.queries"] > 0
        misses = counters["serving.index.cache_misses"]
        hits = counters.get("serving.index.cache_hits", 0)
        assert misses >= counters["serving.ann.queries"]
        assert reported == round(hits / (hits + misses), 3) < 1.0


class TestStreamSim:
    STREAM_FAST = ["--nodes", "200", "--edges", "1500",
                   "--requests", "200", "--clients", "2",
                   "--batches", "3", "--batch-interval", "0.01",
                   "--walks", "2", "--length", "4", "--dim", "4",
                   "--w2v-epochs", "1", "--seed", "1"]

    def test_stream_then_replay_matches(self, tmp_path, capsys):
        wal_dir = tmp_path / "wal"
        code = main(["stream-sim", "--wal-dir", str(wal_dir),
                     "--refresh-policy", "every-n",
                     "--refresh-edges", "200", *self.STREAM_FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "Closed-loop load" in out
        assert "Streaming ingest" in out
        assert "block backpressure" in out

        # Crash-recovery verification path: the WAL alone reconstructs
        # the whole graph (initial batch included).
        code = main(["stream-sim", "--wal-dir", str(wal_dir),
                     "--replay-only"])
        assert code == 0
        replay_out = capsys.readouterr().out
        assert "recovered from WAL" in replay_out
        assert "1500" in replay_out  # every edge is durable

    def test_metrics_export_has_stream_counters(self, tmp_path):
        metrics = tmp_path / "stream_metrics.json"
        code = main(["stream-sim", "--wal-dir", str(tmp_path / "wal"),
                     "--backpressure", "drop_oldest",
                     "--refresh-policy", "affected",
                     "--affected-fraction", "0.05",
                     "--metrics-out", str(metrics), *self.STREAM_FAST])
        assert code == 0
        import json

        recorded = json.loads(metrics.read_text())
        assert recorded["counters"]["stream.wal.batches"] >= 4
        assert recorded["counters"]["stream.controller.batches"] >= 3
        assert "stream.wal.fsync_seconds" in recorded["histograms"]


class TestPipelineSim:
    PIPE_FAST = ["--nodes", "200", "--edges", "1500",
                 "--requests", "200", "--clients", "2",
                 "--batches", "2", "--batch-interval", "0.01",
                 "--refresh-edges", "150", "--shards", "2",
                 "--replicas", "2", "--walks", "2", "--length", "4",
                 "--dim", "4", "--w2v-epochs", "1",
                 "--health-period", "0.05", "--seed", "1"]

    def test_end_to_end_stream_to_serve(self, tmp_path, capsys):
        """The one-command loop: stream ingest → incremental refresh →
        sharded publish → routed queries, supervised by the control
        plane — every stage's counters land in one metrics document."""
        import json

        metrics = tmp_path / "pipeline_metrics.json"
        code = main(["pipeline-sim", "--wal-dir", str(tmp_path / "wal"),
                     "--metrics-out", str(metrics), *self.PIPE_FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "Closed-loop load" in out
        assert "Streaming ingest" in out
        assert "Sharded tier" in out
        assert "Control plane" in out
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["stream.controller.batches"] > 0
        assert counters["serving.shard.publishes"] > 0
        assert counters["serving.controlplane.sweeps"] > 0
        assert counters.get("loadgen.errors", 0) == 0
        assert counters.get("serving.shard.gather_drops", 0) == 0

    def test_chaos_kill_is_respawned(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "pipeline_metrics.json"
        args = [arg for arg in self.PIPE_FAST]
        args[args.index("--requests") + 1] = "400"  # outlast the kill
        code = main(["pipeline-sim", "--kill-replica", "0:1:0.05",
                     "--metrics-out", str(metrics), *args])
        assert code == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["serving.controlplane.respawns"] >= 1
        assert counters.get("loadgen.errors", 0) == 0
        assert counters.get("serving.shard.degraded_queries", 0) == 0


SIM_COMMANDS = ("serve-sim", "stream-sim", "pipeline-sim")

# Every option of the three sim commands with its default, as the
# commands shipped before they became presets of one runner.  A dropped
# or re-defaulted flag fails here even when no run-test would notice.
SIM_SURFACE = {
    "serve-sim": {
        "--input": None, "--nodes": 2000, "--edges": 20000,
        "--sampler": "cdf", "--walks": 5, "--length": 6,
        "--bias": "softmax-recency", "--dim": 8, "--w2v-epochs": 2,
        "--clients": 8, "--requests": 5000, "--topk-fraction": 0.5,
        "--k": 10, "--cache-size": 4096, "--shards": 1, "--shard-plan": "hash",
        "--replicas": 1, "--rebalance-every": 0.0, "--kill-replica": None,
        "--index": "exact", "--nlist": None, "--nprobe": 8,
        "--ann-recall-every": 100, "--autoscale": False,
        "--health-period": 0.1, "--max-respawns": 5,
        "--skew-threshold": 3.0, "--skew-observations": 3,
        "--rebalance-cooldown": 5.0, "--update-batches": 0,
        "--update-interval": 0.05, "--metrics-out": None,
        "--trace-out": None, "--seed": 0,
    },
    "stream-sim": {
        "--wal-dir": None, "--replay-only": False, "--input": None,
        "--nodes": 2000, "--edges": 20000, "--sampler": "cdf",
        "--walks": 5, "--length": 6, "--bias": "softmax-recency",
        "--dim": 8, "--w2v-epochs": 2, "--wal-segment-bytes": 262144,
        "--no-wal-sync": False, "--backpressure": "block",
        "--queue-edges": 50000, "--rate-limit": None,
        "--refresh-policy": "every-n", "--refresh-edges": 1000,
        "--staleness-seconds": 0.5, "--affected-fraction": 0.1,
        "--batches": 8, "--batch-interval": 0.02, "--clients": 4,
        "--requests": 2000, "--topk-fraction": 0.5, "--k": 10,
        "--cache-size": 4096, "--index": "exact", "--nlist": None,
        "--nprobe": 8, "--ann-recall-every": 100, "--metrics-out": None,
        "--trace-out": None, "--seed": 0,
    },
    "pipeline-sim": {
        "--input": None, "--nodes": 1000, "--edges": 10000,
        "--sampler": "cdf", "--walks": 2, "--length": 4,
        "--bias": "softmax-recency", "--dim": 8, "--w2v-epochs": 1,
        "--wal-dir": None, "--queue-edges": 50000, "--refresh-edges": 500,
        "--batches": 6, "--batch-interval": 0.02, "--shards": 2,
        "--shard-plan": "hash", "--replicas": 2, "--kill-replica": None,
        "--clients": 4, "--requests": 1000, "--topk-fraction": 0.5,
        "--k": 10, "--health-period": 0.1, "--max-respawns": 5,
        "--skew-threshold": 3.0, "--skew-observations": 3,
        "--rebalance-cooldown": 5.0, "--metrics-out": None,
        "--trace-out": None, "--seed": 0,
    },
}


class TestSimPresets:
    """serve-sim, stream-sim and pipeline-sim share one runner."""

    SHAPE = ["--walks", "2", "--length", "4", "--dim", "4",
             "--w2v-epochs", "1", "--seed", "1"]

    @pytest.mark.parametrize("command", SIM_COMMANDS)
    def test_option_surface_is_pinned(self, command):
        assert _command_surface(command) == SIM_SURFACE[command]

    def test_split_keeps_the_batch_boundaries(self):
        """Where the old per-command formula stayed inside the stream,
        the one split helper reproduces its batch boundaries exactly."""
        from repro.cli import _split_stream
        from repro.graph import generators

        ordered = generators.erdos_renyi_temporal(
            50, 999, seed=3).sorted_by_time()
        for total in (40, 57, 100, 999):
            stream = ordered.take(np.arange(total))
            for batches in (1, 2, 3, 6, 8):
                for holdback, keep in ((0.3, 0.7), (0.4, 0.6)):
                    cut = int(keep * total)
                    step = max(1, (total - cut) // batches)
                    assert cut + (batches - 1) * step < total
                    expected = [
                        (cut + i * step,
                         cut + (i + 1) * step if i < batches - 1 else total)
                        for i in range(batches)
                    ]
                    initial, live = _split_stream(stream, holdback, batches)
                    assert len(initial) == cut
                    bounds = np.cumsum([cut] + [len(b) for b in live])
                    assert list(zip(bounds[:-1], bounds[1:])) == expected
                    np.testing.assert_array_equal(
                        np.concatenate([initial.timestamps]
                                       + [b.timestamps for b in live]),
                        stream.timestamps)

    def test_split_stops_at_the_end_of_the_stream(self):
        from repro.cli import _split_stream
        from repro.graph import generators

        stream = generators.erdos_renyi_temporal(
            50, 100, seed=1).sorted_by_time()
        initial, live = _split_stream(stream, 0.4, 60)
        assert len(initial) == 60
        assert [len(batch) for batch in live] == [1] * 40
        assert _split_stream(stream, 0.4, 0) == (stream, [])

    @pytest.mark.parametrize("command, extra", [
        ("serve-sim", ["--update-batches", "50", "--update-interval", "0"]),
        ("stream-sim", ["--batches", "60", "--batch-interval", "0"]),
        ("pipeline-sim", ["--batches", "60", "--batch-interval", "0",
                          "--health-period", "0.05"]),
    ])
    def test_more_batches_than_held_edges(self, command, extra, tmp_path,
                                          capsys):
        import json

        from repro.graph import generators

        metrics = tmp_path / "metrics.json"
        wal = ["--wal-dir", str(tmp_path / "wal")]
        code = main([command, "--nodes", "50", "--edges", "100",
                     "--requests", "100", "--clients", "2", *extra,
                     *(wal if command == "stream-sim" else []),
                     "--metrics-out", str(metrics), *self.SHAPE])
        assert code == 0
        total = len(generators.erdos_renyi_temporal(50, 100, seed=1))
        keep = 0.7 if command == "serve-sim" else 0.6
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["stream.controller.edges"] == total - int(keep * total)

    @pytest.mark.parametrize("flag", [
        ["--autoscale"],
        ["--kill-replica", "0:0:0.01"],
        ["--replicas", "3"],
        ["--rebalance-every", "0.01"],
    ])
    def test_sharded_only_flags_rejected_at_one_shard(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--shards", "1", "--nodes", "50",
                  "--edges", "100", "--requests", "10", *flag, *self.SHAPE])
        assert flag[0] in str(excinfo.value.code)
        assert "--shards > 1" in str(excinfo.value.code)
