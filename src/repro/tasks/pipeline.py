"""End-to-end pipeline (Fig. 1): walks -> word2vec -> data prep -> FNN.

:class:`Pipeline` is the front door of the library.  It wires the four
phases together, times each one (the structure of Table III: rwalk,
word2vec, training/epoch, testing), and returns everything the
experiments need: task metrics, phase timings, and the work statistics
the hardware models consume.
"""

from __future__ import annotations

import numbers
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.checkpoint import CheckpointStore
from repro.embedding.embeddings import NodeEmbeddings, train_embeddings
from repro.errors import PipelineError
from repro.embedding.trainer import SgnsConfig, TrainerStats
from repro.faults import FaultPlan
from repro.graph.csr import TemporalGraph
from repro.graph.edges import TemporalEdgeList
from repro.graph.io import LabeledTemporalDataset
from repro.observability import Recorder, get_recorder, use_recorder
from repro.rng import SeedLike, make_rng
from repro.tasks.link_prediction import (
    LinkPredictionConfig,
    LinkPredictionTask,
    TaskResult,
)
from repro.tasks.link_property import LinkPropertyConfig, LinkPropertyPredictionTask
from repro.tasks.node_classification import (
    NodeClassificationConfig,
    NodeClassificationTask,
)
from repro.walk.config import WalkConfig
from repro.walk.corpus import WalkCorpus
from repro.walk.engine import SAMPLER_CHOICES, TemporalWalkEngine, WalkStats


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of all four pipeline phases.

    Defaults are the paper's recommended operating point: ``K=10``,
    ``L=6``, ``d=8`` with softmax temporal bias (§VII-A).
    ``treat_undirected`` mirrors each interaction edge so walks can
    traverse both directions (useful on interaction networks whose
    directed out-degree is heavily skewed); the raw directed stream is
    what the paper's CSR stores, so the default is False.
    ``batch_sentences`` is the word2vec batch size in sentences (a
    positive int; 1 trains sentence-at-a-time).

    ``checkpoint_dir`` persists each phase's artifact atomically as it
    completes (:mod:`repro.checkpoint`), keyed by the semantic config
    fingerprint and the seed; with ``resume=True`` completed phases are
    loaded instead of recomputed and the driving RNG is restored to its
    post-phase state, so a resumed run is bit-identical to an
    uninterrupted one.  ``faults`` injects deterministic failures for
    testing (defaults to the ambient ``REPRO_FAULTS`` plan).
    """

    walk: WalkConfig = field(default_factory=WalkConfig)
    sgns: SgnsConfig = field(default_factory=SgnsConfig)
    batch_sentences: int = 1024
    sampler: str = "cdf"
    treat_undirected: bool = False
    link_prediction: LinkPredictionConfig = field(
        default_factory=LinkPredictionConfig
    )
    node_classification: NodeClassificationConfig = field(
        default_factory=NodeClassificationConfig
    )
    link_property: LinkPropertyConfig = field(default_factory=LinkPropertyConfig)
    checkpoint_dir: str | None = None
    resume: bool = False
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if (isinstance(self.batch_sentences, bool)
                or not isinstance(self.batch_sentences, numbers.Integral)
                or self.batch_sentences < 1):
            raise PipelineError(
                "batch_sentences must be an int >= 1, got "
                f"{self.batch_sentences!r}"
            )
        if self.sampler not in SAMPLER_CHOICES:
            raise PipelineError(
                f"unknown sampler {self.sampler!r}; "
                f"options: {sorted(SAMPLER_CHOICES)}"
            )
        if self.resume and not self.checkpoint_dir:
            raise PipelineError("resume=True requires checkpoint_dir")


@dataclass
class PhaseTimings:
    """Wall seconds per pipeline phase (Table III's columns).

    Since the observability layer landed, these values are *views over
    the span trace*: each field equals the duration of the span of the
    same name (``train`` sums the per-epoch ``train_epoch`` spans, which
    is what Table III's training/epoch column reports).
    """

    rwalk: float = 0.0
    word2vec: float = 0.0
    data_prep: float = 0.0
    train: float = 0.0
    test: float = 0.0
    train_epochs: int = 0

    @classmethod
    def from_recorder(cls, recorder: Recorder) -> "PhaseTimings":
        """Rebuild phase timings from a recorder's span trace."""
        return cls(
            rwalk=recorder.span_seconds("rwalk"),
            word2vec=recorder.span_seconds("word2vec"),
            data_prep=recorder.span_seconds("data_prep"),
            train=recorder.span_seconds("train_epoch"),
            test=recorder.span_seconds("test"),
            train_epochs=sum(1 for _ in recorder.spans("train_epoch")),
        )

    @property
    def train_per_epoch(self) -> float:
        """Mean training seconds per epoch."""
        if self.train_epochs == 0:
            return 0.0
        return self.train / self.train_epochs

    @property
    def total(self) -> float:
        """Sum over all categories."""
        return self.rwalk + self.word2vec + self.data_prep + self.train + self.test

    def breakdown(self) -> dict[str, float]:
        """Phase -> seconds, for table rendering."""
        return {
            "rwalk": self.rwalk,
            "word2vec": self.word2vec,
            "data_prep": self.data_prep,
            "train": self.train,
            "test": self.test,
        }


@dataclass
class PipelineResult:
    """Everything one end-to-end run produces.

    ``cached_phases`` names the phases served from a checkpoint instead
    of recomputed (empty for a fresh or checkpoint-less run).
    """

    task_result: TaskResult
    timings: PhaseTimings
    embeddings: NodeEmbeddings
    walk_stats: WalkStats
    trainer_stats: TrainerStats
    corpus_num_walks: int
    corpus_mean_length: float
    cached_phases: tuple[str, ...] = ()

    @property
    def accuracy(self) -> float:
        """Test accuracy of the downstream task."""
        return self.task_result.accuracy

    def summary(self) -> str:
        """One-line human-readable result summary."""
        t = self.timings
        return (
            f"{self.task_result.summary()} | phases: rwalk {t.rwalk:.2f}s, "
            f"word2vec {t.word2vec:.2f}s, prep {t.data_prep:.2f}s, "
            f"train {t.train:.2f}s ({t.train_per_epoch:.3f}s/epoch), "
            f"test {t.test:.3f}s"
        )


class Pipeline:
    """Runs the Fig. 1 pipeline for any of the three downstream tasks.

    ``recorder`` installs a :class:`~repro.observability.Recorder` as
    the ambient recorder for the duration of each run, so every layer
    (walk engine, trainer, checkpoints, tasks) reports into
    it; with ``None`` the pipeline observes whatever recorder is already
    ambient (the free :class:`~repro.observability.NullRecorder` by
    default).
    """

    def __init__(self, config: PipelineConfig | None = None,
                 recorder: Recorder | None = None) -> None:
        self.config = config or PipelineConfig()
        self.recorder = recorder

    # ------------------------------------------------------------------
    def _observe(self):
        """Context installing this pipeline's recorder (if any)."""
        if self.recorder is None:
            return nullcontext(get_recorder())
        return use_recorder(self.recorder)

    def _fault_plan(self) -> FaultPlan:
        """The active injection plan (explicit config or ambient env)."""
        if self.config.faults is not None:
            return self.config.faults
        return FaultPlan.from_env()

    def _open_store(self, rng: np.random.Generator,
                    edges: TemporalEdgeList) -> CheckpointStore | None:
        """Open the checkpoint store for this (config, dataset, seed) run.

        Must be called before ``rng`` is consumed: the run key includes
        the generator's *initial* state, so two runs with the same
        config, dataset, and seed share a store while a different seed
        or a different edge list never collides (a dataset sweep can
        share one checkpoint root safely).
        """
        if not self.config.checkpoint_dir:
            return None
        return CheckpointStore.open(
            self.config.checkpoint_dir, self.config, rng, dataset=edges
        )

    # ------------------------------------------------------------------
    def embed(
        self, edges: TemporalEdgeList, seed: SeedLike = None
    ) -> tuple[NodeEmbeddings, PhaseTimings, WalkStats, TrainerStats, WalkCorpus]:
        """Phases 1-2: walks and word2vec.

        Exposed separately so sweeps (Fig. 8) can reuse embeddings across
        classifier configurations.  With ``config.checkpoint_dir`` set,
        phase artifacts are persisted as they complete (and loaded
        instead of recomputed under ``resume=True``).
        """
        with self._observe():
            rng = make_rng(seed)
            store = self._open_store(rng, edges)
            embeddings, timings, walk_stats, trainer_stats, corpus, _, _ = (
                self._embed(edges, rng, store)
            )
        return embeddings, timings, walk_stats, trainer_stats, corpus

    def _embed(
        self,
        edges: TemporalEdgeList,
        rng: np.random.Generator,
        store: CheckpointStore | None,
    ) -> tuple[NodeEmbeddings, PhaseTimings, WalkStats, TrainerStats,
               WalkCorpus, np.random.Generator, list[str]]:
        """Checkpoint-aware phases 1-2; returns the RNG to drive phase 3.

        When a phase loads from the store, the returned generator is the
        one snapshotted right after that phase originally ran — the
        resumed run continues on exactly the stream an uninterrupted run
        would have, which is what makes resume bit-identical end to end.
        """
        cfg = self.config
        plan = self._fault_plan()
        resume = store is not None and cfg.resume
        cached: list[str] = []
        walk_edges = edges.with_reverse_edges() if cfg.treat_undirected else edges
        graph = TemporalGraph.from_edge_list(walk_edges)
        rec = get_recorder()

        timings = PhaseTimings()
        with rec.span("rwalk") as span:
            if resume and store.has("walks"):
                corpus, walk_stats = store.load_walks()
                rng = store.load_rng("walks")
                cached.append("walks")
                span.annotate(cached=True)
            else:
                span.annotate(cached=False)
                engine = TemporalWalkEngine(graph, sampler=cfg.sampler)
                corpus = engine.run(cfg.walk, seed=rng)
                assert engine.last_stats is not None
                walk_stats = engine.last_stats
                if store is not None:
                    store.save_walks(corpus, walk_stats, rng=rng)
                plan.fire("after-walks")
        timings.rwalk = span.duration

        with rec.span("word2vec") as span:
            if resume and store.has("embeddings"):
                embeddings, trainer_stats = store.load_embeddings()
                rng = store.load_rng("embeddings")
                cached.append("embeddings")
                span.annotate(cached=True)
            else:
                span.annotate(cached=False)
                embeddings, trainer_stats = train_embeddings(
                    corpus,
                    graph.num_nodes,
                    config=cfg.sgns,
                    batch_sentences=cfg.batch_sentences,
                    seed=rng,
                )
                if store is not None:
                    store.save_embeddings(embeddings, trainer_stats, rng=rng)
                plan.fire("after-word2vec")
        timings.word2vec = span.duration
        return (embeddings, timings, walk_stats, trainer_stats, corpus,
                rng, cached)

    # ------------------------------------------------------------------
    def _run_task(
        self,
        run_fn,
        task_name: str,
        edges: TemporalEdgeList,
        seed: SeedLike,
    ) -> PipelineResult:
        """Shared driver: phases 1-2, then the (checkpointed) task phase."""
        with self._observe():
            rng = make_rng(seed)
            store = self._open_store(rng, edges)
            (embeddings, timings, walk_stats, trainer_stats, corpus, rng,
             cached) = self._embed(edges, rng, store)
            phase = f"task-{task_name}"
            if store is not None and self.config.resume and store.has(phase):
                result, _ = store.load_pickle(phase)
                cached.append(phase)
            else:
                result = run_fn(embeddings, rng)
                if store is not None:
                    store.save_pickle(phase, result, rng=rng)
                    # Auxiliary artifacts are namespaced per task so
                    # running a second task type against the same store
                    # never overwrites the first task's
                    # splits/classifier.
                    if result.splits is not None:
                        store.save_splits(result.splits,
                                          phase=f"splits-{task_name}")
                    if result.model is not None:
                        store.save_classifier(result.model,
                                              phase=f"classifier-{task_name}")
                self._fault_plan().fire("after-task")
            return self._finish(
                result, timings, embeddings, walk_stats, trainer_stats,
                corpus, cached_phases=tuple(cached),
            )

    def run_link_prediction(
        self, edges: TemporalEdgeList, seed: SeedLike = None
    ) -> PipelineResult:
        """End-to-end link prediction on a temporal edge stream."""
        task = LinkPredictionTask(self.config.link_prediction)
        return self._run_task(
            lambda embeddings, rng: task.run(embeddings, edges, seed=rng),
            "link-prediction", edges, seed,
        )

    def run_node_classification(
        self, dataset: LabeledTemporalDataset, seed: SeedLike = None
    ) -> PipelineResult:
        """End-to-end node classification on a labeled temporal dataset."""
        task = NodeClassificationTask(self.config.node_classification)
        return self._run_task(
            lambda embeddings, rng: task.run(
                embeddings, dataset.labels, seed=rng
            ),
            "node-classification", dataset.edges, seed,
        )

    def run_link_property_prediction(
        self,
        edges: TemporalEdgeList,
        edge_labels: np.ndarray,
        seed: SeedLike = None,
    ) -> PipelineResult:
        """End-to-end §VIII-B extension: predict per-edge labels."""
        task = LinkPropertyPredictionTask(self.config.link_property)
        return self._run_task(
            lambda embeddings, rng: task.run(
                embeddings, edges, edge_labels, seed=rng
            ),
            "link-property-prediction", edges, seed,
        )

    # ------------------------------------------------------------------
    def _finish(
        self,
        result: TaskResult,
        timings: PhaseTimings,
        embeddings: NodeEmbeddings,
        walk_stats: WalkStats,
        trainer_stats: TrainerStats,
        corpus: WalkCorpus,
        cached_phases: tuple[str, ...] = (),
    ) -> PipelineResult:
        timings.data_prep = result.data_prep_seconds
        timings.train = result.train_seconds
        timings.test = result.test_seconds
        timings.train_epochs = result.history.epochs_run
        return PipelineResult(
            task_result=result,
            timings=timings,
            embeddings=embeddings,
            walk_stats=walk_stats,
            trainer_stats=trainer_stats,
            corpus_num_walks=corpus.num_walks,
            corpus_mean_length=float(corpus.lengths.mean()),
            cached_phases=cached_phases,
        )
