"""word2vec over walk corpora (the pipeline's RW-P2 phase).

The paper trains skip-gram with negative sampling (SGNS) on the temporal
walks to produce d-dimensional node embeddings, and contributes a batched
GPU implementation whose headline result is a 124.2x speedup from
processing 16k sentences per batch with stale intra-batch reads (Fig. 5)
plus further microarchitectural optimizations (Fig. 6).

The numpy analogue is one training loop, :class:`BatchedSgnsTrainer`:
it gathers pairs from a batch of sentences and applies one vectorized
update per batch, reading stale embeddings within the batch exactly as
§V-B describes.  ``batch_sentences=1`` is the sentence-at-a-time
baseline (the open-source CPU implementation's structure; also the
"no batching" GPU baseline whose per-sentence overhead mirrors
kernel-launch overhead).  The model owns the per-batch step:
:class:`SkipGramModel` for negative sampling,
:class:`HierarchicalSoftmaxModel` for ``objective="hierarchical-softmax"``.
"""

from repro.embedding.vocab import Vocabulary
from repro.embedding.negative import AliasTable, NegativeSampler
from repro.embedding.skipgram import SkipGramModel, generate_pairs
from repro.embedding.trainer import SgnsConfig, TrainerStats
from repro.embedding.batched import BatchedSgnsTrainer
from repro.embedding.hsoftmax import HierarchicalSoftmaxModel, HuffmanTree
from repro.embedding.embeddings import NodeEmbeddings, train_embeddings

__all__ = [
    "Vocabulary",
    "AliasTable",
    "NegativeSampler",
    "SkipGramModel",
    "generate_pairs",
    "SgnsConfig",
    "BatchedSgnsTrainer",
    "HierarchicalSoftmaxModel",
    "HuffmanTree",
    "TrainerStats",
    "NodeEmbeddings",
    "train_embeddings",
]
