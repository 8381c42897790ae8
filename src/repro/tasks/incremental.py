"""Incremental embedding maintenance for evolving graphs.

§VII-B's deployment story: the graph keeps growing, and naively the
entire pipeline re-runs per update.  :class:`IncrementalEmbedder`
implements the cheaper alternative the paper's time-breakdown analysis
motivates — after each edge batch, re-walk only the nodes whose temporal
neighborhoods changed and fine-tune the *existing* skip-gram model on
the fresh walks, instead of rebuilding embeddings from scratch.

The trade-off (measured by ``bench_incremental_updates``): incremental
updates are much cheaper per batch, at a small accuracy cost relative to
a full rebuild because walks through unaffected prefixes stay stale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.embedding.batched import BatchedSgnsTrainer
from repro.embedding.embeddings import NodeEmbeddings
from repro.embedding.skipgram import SkipGramModel
from repro.embedding.trainer import SgnsConfig
from repro.errors import EmbeddingError, WalkError
from repro.graph.csr import TemporalGraph
from repro.graph.dynamic import DynamicTemporalGraph
from repro.rng import SeedLike, make_rng
from repro.walk.config import WalkConfig
from repro.walk.engine import SAMPLER_CHOICES, TemporalWalkEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.store import EmbeddingStore


@dataclass
class UpdateReport:
    """What one incremental update did."""

    generation: int
    affected_nodes: int
    walks_generated: int
    seconds: float
    full_rebuild: bool


class IncrementalEmbedder:
    """Maintains node embeddings over a growing temporal graph."""

    def __init__(
        self,
        dynamic: DynamicTemporalGraph,
        walk_config: WalkConfig | None = None,
        sgns_config: SgnsConfig | None = None,
        batch_sentences: int = 1024,
        seed: SeedLike = None,
        store: "EmbeddingStore | None" = None,
        sampler: str = "cdf",
    ) -> None:
        if sampler not in SAMPLER_CHOICES:
            raise WalkError(
                f"unknown sampler {sampler!r}; options: {sorted(SAMPLER_CHOICES)}"
            )
        self.dynamic = dynamic
        self.walk_config = walk_config or WalkConfig()
        self.sgns_config = sgns_config or SgnsConfig()
        self.batch_sentences = batch_sentences
        self.store = store
        self.sampler = sampler
        self._rng = make_rng(seed)
        self._model: SkipGramModel | None = None
        self._synced_generation: int | None = None
        self._engine: TemporalWalkEngine | None = None
        self._engine_generation: int | None = None
        self.reports: list[UpdateReport] = []

    # ------------------------------------------------------------------
    def _walk_engine(self, graph: TemporalGraph) -> TemporalWalkEngine:
        """Engine cached per graph generation.

        A fresh engine rebuilds the O(E) softmax step table (plus its
        ``exp`` work) on first use; constructing one per update made
        that the dominant avoidable cost of the serving ingest path.
        The engine — and with it its cached step table — is reused until
        :class:`DynamicTemporalGraph` bumps its generation.
        """
        generation = self.dynamic.generation
        if (
            self._engine is None
            or self._engine_generation != generation
            or self._engine.graph is not graph
        ):
            self._engine = TemporalWalkEngine(graph, sampler=self.sampler)
            self._engine_generation = generation
        return self._engine

    def _publish(self) -> None:
        """Push the current embeddings into the serving store, if any."""
        if self.store is not None and self._model is not None:
            self.store.publish(
                self._model.w_in, generation=self.dynamic.generation
            )

    def _sync_to(self, generation: int) -> None:
        """Advance the synced marker, releasing the consumed one.

        Without the release, a long-running ingest loop would pin one
        marker entry per update in the dynamic graph forever.
        """
        previous = self._synced_generation
        self._synced_generation = generation
        if previous is not None and previous != generation:
            self.dynamic.release_marker(previous)

    # ------------------------------------------------------------------
    @property
    def embeddings(self) -> NodeEmbeddings:
        """Current embeddings (requires a prior rebuild())."""
        if self._model is None:
            raise EmbeddingError("call rebuild() before reading embeddings")
        return NodeEmbeddings(self._model.w_in)

    # ------------------------------------------------------------------
    def rebuild(self) -> UpdateReport:
        """Full pipeline phases 1-2 from scratch (the baseline path)."""
        start = time.perf_counter()
        graph = self.dynamic.graph()
        engine = self._walk_engine(graph)
        corpus = engine.run(self.walk_config, seed=self._rng)
        trainer = BatchedSgnsTrainer(
            self.sgns_config, batch_sentences=self.batch_sentences
        )
        self._model = trainer.train(corpus, graph.num_nodes, seed=self._rng)
        self._sync_to(self.dynamic.generation)
        self._publish()
        report = UpdateReport(
            generation=self.dynamic.generation,
            affected_nodes=graph.num_nodes,
            walks_generated=corpus.num_walks,
            seconds=time.perf_counter() - start,
            full_rebuild=True,
        )
        self.reports.append(report)
        return report

    def update(self) -> UpdateReport:
        """Fine-tune on walks from nodes affected since the last sync.

        Grows the model for unseen nodes, regenerates ``K`` walks from
        each affected node over the *current* graph, and continues
        training the existing model on just those sentences.
        """
        if self._model is None or self._synced_generation is None:
            return self.rebuild()
        start = time.perf_counter()
        marker = self._synced_generation
        affected = self.dynamic.affected_nodes(marker)
        graph = self.dynamic.graph()
        self._model.grow(graph.num_nodes, seed=self._rng)

        if len(affected) == 0:
            self._sync_to(self.dynamic.generation)
            self._publish()
            report = UpdateReport(
                generation=self.dynamic.generation,
                affected_nodes=0, walks_generated=0,
                seconds=time.perf_counter() - start, full_rebuild=False,
            )
            self.reports.append(report)
            return report

        engine = self._walk_engine(graph)
        corpus = engine.run(
            self.walk_config, seed=self._rng, start_nodes=affected
        )
        trainer = BatchedSgnsTrainer(
            self.sgns_config, batch_sentences=self.batch_sentences
        )
        self._model = trainer.train(
            corpus, graph.num_nodes, seed=self._rng, model=self._model
        )
        self._sync_to(self.dynamic.generation)
        self._publish()
        report = UpdateReport(
            generation=self.dynamic.generation,
            affected_nodes=len(affected),
            walks_generated=corpus.num_walks,
            seconds=time.perf_counter() - start,
            full_rebuild=False,
        )
        self.reports.append(report)
        return report
