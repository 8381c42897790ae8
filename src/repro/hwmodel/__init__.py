"""Hardware characterization substrate.

The paper's hardware study uses a Pin tool (instruction mixes, Fig. 9),
Nsight (GPU stalls, Fig. 11; utilization metrics, Fig. 3), and a 128-core
server (thread scaling, Fig. 10).  None of those exist in a pure-Python
environment, so this package provides analytic-but-workload-driven
models: each model consumes *measured* statistics of the actual executed
kernels (real degrees, real walk lengths, real pair counts, real GEMM
dimensions) and converts them into hardware events with explicit,
documented cost tables.  The claims being reproduced are distributional
("compute ≈ memory even in the walk kernel", "each kernel's dominant
stall differs"), and those shapes emerge from the workload statistics,
not from hard-coded answers.

- :mod:`repro.hwmodel.instruction` / :mod:`repro.hwmodel.profiler` —
  dynamic instruction taxonomy and per-kernel mix derivation (Fig. 9);
- :mod:`repro.hwmodel.cache` — set-associative LRU cache hierarchy fed
  by address traces of the real kernels (L2 hit rates, Fig. 3);
- :mod:`repro.hwmodel.gpu` — GPU execution/stall model (Fig. 3, 5, 6,
  11; Table III GPU columns);
- :mod:`repro.hwmodel.threads` — discrete-event static vs work-stealing
  scheduling simulator over measured per-vertex work (Fig. 10).
"""

from repro.hwmodel.instruction import InstructionMix
from repro.hwmodel.profiler import (
    KernelProfile,
    profile_classifier,
    profile_random_walk,
    profile_word2vec,
)
from repro.hwmodel.cache import CacheConfig, CacheHierarchy, CacheSim
from repro.hwmodel.roofline import (
    Roofline,
    RooflinePoint,
    pipeline_roofline_points,
)
from repro.hwmodel.report import (
    PipelineCharacterization,
    characterize_pipeline,
)
from repro.hwmodel.threads import (
    ScheduleResult,
    scaling_curve,
    simulate_schedule,
)
from repro.hwmodel.gpu import (
    GpuConfig,
    GpuKernelModel,
    GpuKernelReport,
    StallBreakdown,
    Word2vecGpuModel,
    classifier_kernel,
    walk_kernel,
    word2vec_kernel,
)

__all__ = [
    "InstructionMix",
    "KernelProfile",
    "profile_random_walk",
    "profile_word2vec",
    "profile_classifier",
    "CacheConfig",
    "CacheSim",
    "CacheHierarchy",
    "Roofline",
    "RooflinePoint",
    "pipeline_roofline_points",
    "PipelineCharacterization",
    "characterize_pipeline",
    "ScheduleResult",
    "simulate_schedule",
    "scaling_curve",
    "GpuConfig",
    "GpuKernelModel",
    "GpuKernelReport",
    "StallBreakdown",
    "Word2vecGpuModel",
    "walk_kernel",
    "word2vec_kernel",
    "classifier_kernel",
]
