"""repro — random walk-based temporal graph learning.

A complete Python reproduction of "A Deep Dive Into Understanding The
Random Walk-Based Temporal Graph Learning" (IISWC 2021): the CTDNE-style
pipeline (temporal random walks -> word2vec -> FNN classifiers for link
prediction and node classification), every substrate it depends on, and
the hardware-characterization models behind the paper's evaluation.

Quickstart::

    from repro import Pipeline, PipelineConfig, generators

    edges = generators.ia_email_like(seed=0)
    result = Pipeline(PipelineConfig(treat_undirected=True)
                      ).run_link_prediction(edges, seed=0)
    print(result.summary())

Package map:

- :mod:`repro.graph` — temporal edge lists, CSR graphs, generators, I/O;
- :mod:`repro.walk` — Algorithm 1, the temporal random walk engine;
- :mod:`repro.embedding` — word2vec SGNS, one batched training loop;
- :mod:`repro.nn` — the FNN substrate (layers, losses, SGD, metrics);
- :mod:`repro.tasks` — data preparation, the downstream tasks, and the
  end-to-end :class:`Pipeline`;
- :mod:`repro.serving` — the online serving tier (versioned store,
  link scores, top-k, the multiprocess sharded tier);
- :mod:`repro.stream` — durable streaming ingest (WAL, queue,
  controller);
- :mod:`repro.hwmodel` — instruction/cache/GPU/thread models for the
  hardware study; Fig. 10's thread scaling is simulated here, since
  walks and word2vec run in one process;
- :mod:`repro.baselines` — BFS, VGG, GCN, static DeepWalk comparisons.
"""

from repro.graph import (
    TemporalEdge,
    TemporalEdgeList,
    TemporalGraph,
    compute_stats,
    generators,
)
from repro.graph.io import LabeledTemporalDataset, read_wel, write_wel
from repro.walk import TemporalWalkEngine, WalkConfig, WalkCorpus
from repro.embedding import NodeEmbeddings, SgnsConfig, train_embeddings
from repro.tasks import (
    LinkPredictionTask,
    LinkPropertyPredictionTask,
    NodeClassificationTask,
    Pipeline,
    PipelineConfig,
    PipelineResult,
)

__version__ = "1.0.0"

__all__ = [
    "TemporalEdge",
    "TemporalEdgeList",
    "TemporalGraph",
    "compute_stats",
    "generators",
    "LabeledTemporalDataset",
    "read_wel",
    "write_wel",
    "TemporalWalkEngine",
    "WalkConfig",
    "WalkCorpus",
    "NodeEmbeddings",
    "SgnsConfig",
    "train_embeddings",
    "LinkPredictionTask",
    "NodeClassificationTask",
    "LinkPropertyPredictionTask",
    "Pipeline",
    "PipelineConfig",
    "PipelineResult",
    "__version__",
]
