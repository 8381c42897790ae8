"""Unit tests for the dynamic temporal graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.csr import TemporalGraph
from repro.graph.dynamic import DynamicTemporalGraph
from repro.graph.edges import TemporalEdgeList


def batch(rows, num_nodes=None):
    return TemporalEdgeList.from_edges(rows, num_nodes=num_nodes)


class TestDynamicGraph:
    def test_starts_empty(self):
        dynamic = DynamicTemporalGraph()
        assert dynamic.num_edges == 0
        assert dynamic.generation == 0

    def test_append_grows_edges_and_generation(self):
        dynamic = DynamicTemporalGraph()
        gen = dynamic.append(batch([(0, 1, 0.1), (1, 2, 0.2)]))
        assert gen == 1
        assert dynamic.num_edges == 2
        assert dynamic.num_nodes == 3

    def test_append_empty_is_noop(self):
        dynamic = DynamicTemporalGraph(batch([(0, 1, 0.1)]))
        gen = dynamic.append(TemporalEdgeList([], [], []))
        assert gen == 0
        assert dynamic.num_edges == 1

    def test_graph_snapshot_valid_and_cached(self):
        dynamic = DynamicTemporalGraph(batch([(0, 1, 0.5), (0, 2, 0.1)]))
        graph1 = dynamic.graph()
        assert graph1.num_edges == 2
        # Adjacency sorted by timestamp despite insert order.
        _, ts = graph1.neighbors(0)
        assert list(ts) == [0.1, 0.5]
        assert dynamic.graph() is graph1  # cached until next append

    def test_snapshot_invalidated_by_append(self):
        dynamic = DynamicTemporalGraph(batch([(0, 1, 0.1)]))
        graph1 = dynamic.graph()
        dynamic.append(batch([(1, 0, 0.2)]))
        graph2 = dynamic.graph()
        assert graph2 is not graph1
        assert graph2.num_edges == 2

    def test_new_nodes_extend_node_set(self):
        dynamic = DynamicTemporalGraph(batch([(0, 1, 0.1)]))
        dynamic.append(batch([(5, 6, 0.9)]))
        assert dynamic.num_nodes == 7

    def test_edges_since_marker(self):
        dynamic = DynamicTemporalGraph(batch([(0, 1, 0.1)]))
        marker = dynamic.generation
        dynamic.append(batch([(1, 2, 0.2)]))
        dynamic.append(batch([(2, 3, 0.3)]))
        fresh = dynamic.edges_since(marker)
        assert len(fresh) == 2
        assert fresh.src.tolist() == [1, 2]

    def test_edges_since_unknown_marker_rejected(self):
        dynamic = DynamicTemporalGraph()
        with pytest.raises(GraphError):
            dynamic.edges_since(99)

    def test_affected_nodes(self):
        dynamic = DynamicTemporalGraph(batch([(0, 1, 0.1)]))
        marker = dynamic.generation
        dynamic.append(batch([(1, 2, 0.2), (3, 1, 0.3)]))
        affected = dynamic.affected_nodes(marker)
        assert set(affected.tolist()) == {1, 2, 3}

    def test_explicit_num_nodes(self):
        dynamic = DynamicTemporalGraph(batch([(0, 1, 0.1)]), num_nodes=10)
        assert dynamic.num_nodes == 10
        assert dynamic.graph().num_nodes == 10


# Few distinct stamps, so ties with existing edges and within a batch
# are common; negative ones land before everything already stored, and
# NaN (which sorts last) after it.
stamps = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, np.nan]),
                   st.floats(-5.0, 5.0, allow_nan=False))
edge_batches = st.tuples(
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), stamps),
             min_size=1, max_size=8),
    st.integers(0, 2),  # declared nodes beyond the largest id
)
# An op is an append (a batch) or a graph() read (None).
merge_ops = st.lists(st.one_of(edge_batches, st.none()),
                     min_size=1, max_size=25)


def arrays(graph):
    return (graph.indptr.tobytes(), graph.dst.tobytes(), graph.ts.tobytes())


@pytest.mark.kernels
class TestSnapshotMergeOracle:
    """``graph()`` merges appends into the last snapshot; it must equal
    a from-scratch ``from_edge_list`` over the whole edge list, byte
    for byte, and never touch a snapshot a reader already holds."""

    @settings(max_examples=120, deadline=None)
    @given(initial=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                      stamps), max_size=6),
           extra_nodes=st.integers(0, 2), ops=merge_ops)
    def test_merged_snapshot_equals_fresh_build(self, initial, extra_nodes,
                                                ops):
        edges = TemporalEdgeList.from_edges(initial)
        dynamic = DynamicTemporalGraph(
            edges, num_nodes=edges.num_nodes + extra_nodes)
        held = []
        for op in ops + [None]:
            if op is not None:
                rows, extra = op
                new = TemporalEdgeList.from_edges(rows)
                dynamic.append(TemporalEdgeList(
                    new.src, new.dst, new.timestamps,
                    num_nodes=new.num_nodes + extra))
                continue
            graph = dynamic.graph()
            fresh = TemporalGraph.from_edge_list(dynamic.edge_list())
            assert arrays(graph) == arrays(fresh)
            held.append((graph, arrays(graph)))
            for snapshot, frozen in held:
                assert arrays(snapshot) == frozen


class TestSubscribers:
    def test_subscribe_fires_with_generation(self):
        dynamic = DynamicTemporalGraph()
        seen = []
        dynamic.subscribe(seen.append)
        dynamic.append(batch([(0, 1, 0.1)]))
        dynamic.append(batch([(1, 2, 0.2)]))
        assert seen == [1, 2]

    def test_unsubscribe_stops_delivery_and_is_idempotent(self):
        dynamic = DynamicTemporalGraph()
        seen = []
        dynamic.subscribe(seen.append)
        dynamic.append(batch([(0, 1, 0.1)]))
        assert dynamic.unsubscribe(seen.append)
        assert not dynamic.unsubscribe(seen.append)  # already gone
        dynamic.append(batch([(1, 2, 0.2)]))
        assert seen == [1]

    def test_raising_subscriber_is_isolated_and_counted(self):
        from repro.observability import Recorder, use_recorder

        dynamic = DynamicTemporalGraph()
        seen = []

        def bad(generation):
            raise RuntimeError("observer bug")

        dynamic.subscribe(bad)
        dynamic.subscribe(seen.append)
        recorder = Recorder()
        with use_recorder(recorder):
            gen = dynamic.append(batch([(0, 1, 0.1)]))
        assert gen == 1
        assert seen == [1]  # later subscribers still ran
        assert recorder.counters["dynamic.subscriber_errors"] == 1

    def test_subscriber_may_reenter_graph(self):
        dynamic = DynamicTemporalGraph()
        sizes = []
        dynamic.subscribe(lambda gen: sizes.append(dynamic.num_edges))
        dynamic.append(batch([(0, 1, 0.1), (1, 2, 0.2)]))
        assert sizes == [2]


class TestMarkerRetention:
    def test_markers_bounded_by_retention(self):
        dynamic = DynamicTemporalGraph(marker_retention=3)
        for i in range(6):
            dynamic.append(batch([(i, i + 1, 0.1 * i)]))
        assert dynamic.retained_markers() == [4, 5, 6]
        with pytest.raises(GraphError, match="retention"):
            dynamic.edges_since(2)

    def test_release_marker_frees_consumed_generations(self):
        dynamic = DynamicTemporalGraph()
        dynamic.append(batch([(0, 1, 0.1)]))
        dynamic.append(batch([(1, 2, 0.2)]))
        assert dynamic.release_marker(1)
        assert not dynamic.release_marker(1)  # already released
        assert dynamic.retained_markers() == [0, 2]
        with pytest.raises(GraphError):
            dynamic.edges_since(1)

    def test_current_generation_marker_never_released(self):
        dynamic = DynamicTemporalGraph()
        dynamic.append(batch([(0, 1, 0.1)]))
        assert not dynamic.release_marker(dynamic.generation)
        assert len(dynamic.edges_since(dynamic.generation)) == 0

    def test_retention_validation(self):
        with pytest.raises(GraphError):
            DynamicTemporalGraph(marker_retention=0)


class TestConcurrentReaders:
    def test_readers_see_consistent_state_under_append_load(self):
        """Locked readers: edge_list/num_nodes/num_edges never tear."""
        import threading

        dynamic = DynamicTemporalGraph(batch([(0, 1, 0.1)]))
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                edges = dynamic.edge_list()
                # A snapshot must be internally consistent: the arrays
                # share one length and node ids fit in num_nodes.
                if not (len(edges.src) == len(edges.dst)
                        == len(edges.timestamps)):
                    torn.append("length")
                if len(edges) and edges.src.max() >= edges.num_nodes:
                    torn.append("node-range")

        threads = [threading.Thread(target=reader, daemon=True)
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        rng = np.random.default_rng(0)
        appended = 0
        for _ in range(60):
            n = int(rng.integers(1, 8))
            hi = int(rng.integers(2, 50))
            dynamic.append(TemporalEdgeList(
                rng.integers(0, hi, size=n), rng.integers(0, hi, size=n),
                rng.random(n),
            ))
            appended += n
        stop.set()
        for thread in threads:
            thread.join(5.0)
        assert torn == []
        assert dynamic.generation == 60
        assert dynamic.num_edges == 1 + appended
