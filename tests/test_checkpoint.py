"""Checkpoint store: atomic persistence, integrity, and resume identity.

Satellite coverage for the fault-tolerance issue: every phase artifact
round-trips bit-identically through :mod:`repro.checkpoint`, tampered
artifacts are rejected, and a pipeline resumed after any phase produces
the same embeddings and final metrics as an uninterrupted run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointStore,
    config_fingerprint,
    dataset_fingerprint,
    rng_restore,
    rng_snapshot,
    run_key,
)
from repro.embedding.trainer import SgnsConfig
from repro.errors import CheckpointError, PipelineError
from repro.faults import FaultPlan
from repro.nn.layers import Linear, ReLU
from repro.nn.module import Sequential
from repro.tasks.link_prediction import LinkPredictionConfig
from repro.tasks.pipeline import Pipeline, PipelineConfig
from repro.tasks.splits import stratified_node_split, temporal_edge_split
from repro.tasks.training import TrainSettings
from repro.walk.config import WalkConfig

pytestmark = pytest.mark.faults


def small_pipeline_config(**overrides) -> PipelineConfig:
    """A pipeline config small enough for per-test end-to-end runs."""
    settings = dict(
        walk=WalkConfig(num_walks_per_node=2, max_walk_length=4),
        sgns=SgnsConfig(dim=4, epochs=1),
        link_prediction=LinkPredictionConfig(
            training=TrainSettings(epochs=3)
        ),
    )
    settings.update(overrides)
    return PipelineConfig(**settings)


# ---------------------------------------------------------------------------
# RNG snapshots
# ---------------------------------------------------------------------------


def test_rng_snapshot_restores_future_draws():
    rng = np.random.default_rng(123)
    rng.random(10)
    snap = rng_snapshot(rng)
    expected = rng.random(100)
    restored = rng_restore(snap)
    np.testing.assert_array_equal(restored.random(100), expected)


def test_rng_snapshot_restores_future_spawns():
    rng = np.random.default_rng(99)
    bg = rng.bit_generator
    bg.seed_seq.spawn(3)  # consume some children before the snapshot
    snap = rng_snapshot(rng)
    expected = [ss.generate_state(4) for ss in bg.seed_seq.spawn(2)]
    restored = rng_restore(snap)
    got = [ss.generate_state(4)
           for ss in restored.bit_generator.seed_seq.spawn(2)]
    for a, b in zip(expected, got):
        np.testing.assert_array_equal(a, b)


def test_rng_snapshot_is_json_serializable():
    import json

    snap = rng_snapshot(np.random.default_rng(5))
    rebuilt = json.loads(json.dumps(snap))
    np.testing.assert_array_equal(
        rng_restore(rebuilt).random(8), rng_restore(snap).random(8)
    )


@pytest.mark.parametrize("bit_generator", ["MT19937", "Philox", "SFC64"])
def test_rng_snapshot_json_roundtrip_non_default_bit_generators(
    bit_generator,
):
    """MT19937/Philox states hold ndarrays/uint64s; snapshots must still
    be JSON-clean and restore to an identical stream."""
    import json

    cls = getattr(np.random, bit_generator)
    rng = np.random.Generator(cls(np.random.SeedSequence(7)))
    rng.random(11)  # advance so the state is nontrivial
    snap = rng_snapshot(rng)
    rebuilt = json.loads(json.dumps(snap))  # must not raise TypeError
    expected = rng.random(64)
    np.testing.assert_array_equal(rng_restore(rebuilt).random(64), expected)


# ---------------------------------------------------------------------------
# Fingerprints and run keys
# ---------------------------------------------------------------------------


def test_fingerprint_ignores_non_semantic_fields(tmp_path):
    base = small_pipeline_config()
    decorated = small_pipeline_config(
        checkpoint_dir=str(tmp_path),
        resume=True,
        faults=FaultPlan.parse("after-task:error"),
    )
    assert config_fingerprint(base) == config_fingerprint(decorated)


def test_fingerprint_tracks_semantic_fields():
    a = small_pipeline_config()
    b = small_pipeline_config(
        walk=WalkConfig(num_walks_per_node=3, max_walk_length=4)
    )
    assert config_fingerprint(a) != config_fingerprint(b)


def test_run_key_depends_on_seed():
    cfg = small_pipeline_config()
    key5 = run_key(cfg, np.random.default_rng(5))
    key6 = run_key(cfg, np.random.default_rng(6))
    assert key5 != key6
    assert key5 == run_key(cfg, np.random.default_rng(5))


def test_dataset_fingerprint_tracks_graph_contents(email_edges):
    from repro.graph.edges import TemporalEdgeList

    fp = dataset_fingerprint(email_edges)
    assert fp == dataset_fingerprint(email_edges)  # deterministic
    perturbed = TemporalEdgeList(
        email_edges.src, email_edges.dst, email_edges.timestamps + 1.0,
        num_nodes=email_edges.num_nodes,
    )
    assert fp != dataset_fingerprint(perturbed)
    widened = TemporalEdgeList(
        email_edges.src, email_edges.dst, email_edges.timestamps,
        num_nodes=email_edges.num_nodes + 1,
    )
    assert fp != dataset_fingerprint(widened)


def test_run_key_depends_on_dataset(email_edges):
    from repro.graph.edges import TemporalEdgeList

    cfg = small_pipeline_config()
    with_data = run_key(cfg, np.random.default_rng(5), dataset=email_edges)
    other = TemporalEdgeList(
        email_edges.src, email_edges.dst, email_edges.timestamps + 1.0,
        num_nodes=email_edges.num_nodes,
    )
    assert with_data != run_key(cfg, np.random.default_rng(5), dataset=other)
    assert with_data == run_key(
        cfg, np.random.default_rng(5), dataset=email_edges
    )


# ---------------------------------------------------------------------------
# Artifact roundtrips
# ---------------------------------------------------------------------------


def test_walks_roundtrip_bit_identical(tmp_path, email_corpus,
                                       email_walk_stats):
    store = CheckpointStore(tmp_path, "run")
    store.save_walks(email_corpus, email_walk_stats)
    corpus, stats = store.load_walks()
    np.testing.assert_array_equal(corpus.matrix, email_corpus.matrix)
    np.testing.assert_array_equal(corpus.lengths, email_corpus.lengths)
    np.testing.assert_array_equal(corpus.start_nodes,
                                  email_corpus.start_nodes)
    assert stats.num_walks == email_walk_stats.num_walks
    assert stats.total_steps == email_walk_stats.total_steps
    assert stats.candidates_scanned == email_walk_stats.candidates_scanned
    np.testing.assert_array_equal(stats.work_per_start_node,
                                  email_walk_stats.work_per_start_node)


def test_embeddings_roundtrip_bit_identical(tmp_path, email_corpus,
                                            email_graph):
    from repro.embedding import train_embeddings

    embeddings, stats = train_embeddings(
        email_corpus, email_graph.num_nodes,
        config=SgnsConfig(dim=4, epochs=2), seed=3,
    )
    store = CheckpointStore(tmp_path, "run")
    store.save_embeddings(embeddings, stats)
    loaded, loaded_stats = store.load_embeddings()
    np.testing.assert_array_equal(loaded.matrix, embeddings.matrix)
    assert loaded_stats.pairs_trained == stats.pairs_trained
    assert loaded_stats.negatives_drawn == stats.negatives_drawn > 0
    assert loaded_stats.mean_loss == stats.mean_loss
    assert loaded_stats.losses == stats.losses


def test_edge_splits_roundtrip(tmp_path, email_edges):
    splits = temporal_edge_split(email_edges, seed=4)
    store = CheckpointStore(tmp_path, "run")
    store.save_splits(splits)
    loaded = store.load_splits()
    for part in ("train", "valid", "test"):
        orig = getattr(splits, part)
        got = getattr(loaded, part)
        np.testing.assert_array_equal(got.src, orig.src)
        np.testing.assert_array_equal(got.dst, orig.dst)
        np.testing.assert_array_equal(got.timestamps, orig.timestamps)


def test_node_splits_roundtrip(tmp_path, sbm_dataset):
    splits = stratified_node_split(sbm_dataset.labels, seed=8)
    store = CheckpointStore(tmp_path, "run")
    store.save_splits(splits)
    loaded = store.load_splits()
    for part in ("train", "valid", "test"):
        np.testing.assert_array_equal(getattr(loaded, part),
                                      getattr(splits, part))


def test_classifier_roundtrip_restores_parameters(tmp_path):
    def build():
        return Sequential(
            Linear(6, 4, seed=17), ReLU(), Linear(4, 2, seed=18)
        )

    model = build()
    reference = [p.data.copy() for p in model.parameters()]
    store = CheckpointStore(tmp_path, "run")
    store.save_classifier(model)

    other = build()
    for p in other.parameters():  # perturb so restoration is observable
        p.data += 1.0
    store.load_classifier_into(other)
    for param, expected in zip(other.parameters(), reference):
        np.testing.assert_array_equal(param.data, expected)


def test_classifier_shape_mismatch_raises(tmp_path):
    store = CheckpointStore(tmp_path, "run")
    store.save_classifier(Sequential(Linear(6, 4, seed=1)))
    with pytest.raises(CheckpointError, match="shape mismatch"):
        store.load_classifier_into(Sequential(Linear(5, 4, seed=1)))


# ---------------------------------------------------------------------------
# Integrity and manifest mechanics
# ---------------------------------------------------------------------------


def test_tampered_artifact_fails_integrity_check(tmp_path, email_corpus,
                                                 email_walk_stats):
    store = CheckpointStore(tmp_path, "run")
    store.save_walks(email_corpus, email_walk_stats)
    artifact = store.run_dir / "walks.npz"
    artifact.write_bytes(b"garbage" + artifact.read_bytes()[7:])
    with pytest.raises(CheckpointError, match="integrity"):
        store.load_walks()


def test_has_and_invalidate(tmp_path, email_corpus, email_walk_stats):
    store = CheckpointStore(tmp_path, "run")
    assert not store.has("walks")
    store.save_walks(email_corpus, email_walk_stats)
    assert store.has("walks")
    assert store.phases() == {"walks": "complete"}
    store.invalidate("walks")
    assert not store.has("walks")
    assert not (store.run_dir / "walks.npz").exists()


def test_missing_phase_raises(tmp_path):
    store = CheckpointStore(tmp_path, "run")
    with pytest.raises(CheckpointError, match="not checkpointed"):
        store.load_arrays("embeddings")
    with pytest.raises(CheckpointError, match="no rng snapshot"):
        store.load_rng("walks")


def test_save_splits_rejects_unknown_type(tmp_path):
    store = CheckpointStore(tmp_path, "run")
    with pytest.raises(CheckpointError, match="cannot checkpoint splits"):
        store.save_splits(object())


def test_rng_restore_rejects_bad_snapshot():
    from repro.checkpoint import rng_restore as restore

    with pytest.raises(CheckpointError, match="invalid rng snapshot"):
        restore({"bit_generator": "PCG64"})


def test_resume_requires_checkpoint_dir():
    with pytest.raises(PipelineError, match="requires checkpoint_dir"):
        small_pipeline_config(resume=True)


# ---------------------------------------------------------------------------
# Pipeline resume: bit-identical at every boundary
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_run(email_edges):
    """One uninterrupted small run; the gold standard for resume tests."""
    return Pipeline(small_pipeline_config()).run_link_prediction(
        email_edges, seed=5
    )


def test_fresh_checkpointed_run_matches_plain_run(tmp_path, email_edges,
                                                  reference_run):
    result = Pipeline(
        small_pipeline_config(checkpoint_dir=str(tmp_path))
    ).run_link_prediction(email_edges, seed=5)
    assert result.cached_phases == ()
    assert result.accuracy == reference_run.accuracy
    np.testing.assert_array_equal(result.embeddings.matrix,
                                  reference_run.embeddings.matrix)


@pytest.mark.parametrize("kept_phases,expected_cached", [
    (("walks",), ("walks",)),
    (("walks", "embeddings"), ("walks", "embeddings")),
    (("walks", "embeddings", "task-link-prediction"),
     ("walks", "embeddings", "task-link-prediction")),
])
def test_resume_after_each_phase_is_bit_identical(
    tmp_path, email_edges, reference_run, kept_phases, expected_cached
):
    """Resume from any phase boundary == the uninterrupted run."""
    ck = str(tmp_path)
    Pipeline(
        small_pipeline_config(checkpoint_dir=ck)
    ).run_link_prediction(email_edges, seed=5)

    # Simulate a run that died after the last kept phase by dropping the
    # later artifacts; resume must recompute exactly those.
    rng = np.random.default_rng(5)
    store = CheckpointStore.open(ck, small_pipeline_config(), rng,
                                 dataset=email_edges)
    for phase in ("walks", "embeddings", "task-link-prediction"):
        if phase not in kept_phases:
            store.invalidate(phase)

    resumed = Pipeline(
        small_pipeline_config(checkpoint_dir=ck, resume=True)
    ).run_link_prediction(email_edges, seed=5)
    assert resumed.cached_phases == expected_cached
    assert resumed.accuracy == reference_run.accuracy
    assert resumed.task_result.auc == reference_run.task_result.auc
    np.testing.assert_array_equal(resumed.embeddings.matrix,
                                  reference_run.embeddings.matrix)


def test_resume_with_different_seed_recomputes(tmp_path, email_edges):
    ck = str(tmp_path)
    Pipeline(
        small_pipeline_config(checkpoint_dir=ck)
    ).run_link_prediction(email_edges, seed=5)
    other = Pipeline(
        small_pipeline_config(checkpoint_dir=ck, resume=True)
    ).run_link_prediction(email_edges, seed=6)
    assert other.cached_phases == ()


def test_resume_with_different_dataset_recomputes(tmp_path, email_edges):
    """Same config+seed on a different edge list must not reuse artifacts."""
    from repro.graph.edges import TemporalEdgeList

    ck = str(tmp_path)
    Pipeline(
        small_pipeline_config(checkpoint_dir=ck)
    ).run_link_prediction(email_edges, seed=5)
    shuffled = TemporalEdgeList(
        email_edges.src[::-1].copy(), email_edges.dst[::-1].copy(),
        email_edges.timestamps[::-1].copy(),
        num_nodes=email_edges.num_nodes,
    )
    other = Pipeline(
        small_pipeline_config(checkpoint_dir=ck, resume=True)
    ).run_link_prediction(shuffled, seed=5)
    assert other.cached_phases == ()


def test_open_rejects_identity_mismatch(tmp_path, email_edges):
    """A run dir whose stored fingerprints disagree with the caller's
    raises instead of serving another experiment's artifacts."""
    cfg = small_pipeline_config()
    rng_state = np.random.default_rng(5)
    store = CheckpointStore.open(tmp_path, cfg, rng_state,
                                 dataset=email_edges)
    with pytest.raises(CheckpointError, match="different run"):
        CheckpointStore(
            tmp_path, store.key,
            meta={"dataset_fingerprint": "0" * 64},
        )
    with pytest.raises(CheckpointError, match="different run"):
        CheckpointStore(
            tmp_path, store.key,
            meta={"config_fingerprint": "f" * 64},
        )
    # Reopening with the true identity still works.
    CheckpointStore.open(tmp_path, cfg, np.random.default_rng(5),
                         dataset=email_edges)


def test_resume_with_different_config_recomputes(tmp_path, email_edges):
    ck = str(tmp_path)
    Pipeline(
        small_pipeline_config(checkpoint_dir=ck)
    ).run_link_prediction(email_edges, seed=5)
    other = Pipeline(
        small_pipeline_config(
            checkpoint_dir=ck, resume=True,
            walk=WalkConfig(num_walks_per_node=3, max_walk_length=4),
        )
    ).run_link_prediction(email_edges, seed=5)
    assert other.cached_phases == ()


def test_task_phase_checkpoints_splits_and_classifier(tmp_path, email_edges):
    ck = str(tmp_path)
    result = Pipeline(
        small_pipeline_config(checkpoint_dir=ck)
    ).run_link_prediction(email_edges, seed=5)
    store = CheckpointStore.open(ck, small_pipeline_config(),
                                 np.random.default_rng(5),
                                 dataset=email_edges)
    # Auxiliary artifacts are namespaced per task so a second task type
    # against the same store cannot clobber them.
    assert store.has("splits-link-prediction")
    assert store.has("classifier-link-prediction")
    loaded = store.load_splits(phase="splits-link-prediction")
    np.testing.assert_array_equal(loaded.train.src,
                                  result.task_result.splits.train.src)
    restored = store.load_classifier_into(
        result.task_result.model, phase="classifier-link-prediction"
    )
    for param, expected in zip(restored.parameters(),
                               result.task_result.model.parameters()):
        np.testing.assert_array_equal(param.data, expected.data)
