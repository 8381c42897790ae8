"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (bad edges, bad CSR state)."""


class GraphFormatError(GraphError):
    """Raised when parsing an on-disk graph file fails."""


class WalkError(ReproError):
    """Raised for invalid random-walk configuration or execution state."""


class EmbeddingError(ReproError):
    """Raised for invalid embedding configuration or lookups."""


class TrainingError(ReproError):
    """Raised when classifier training is misconfigured or diverges."""


class DataPreparationError(ReproError):
    """Raised when train/valid/test preparation cannot be satisfied."""


class ModelError(ReproError):
    """Raised for hardware-model configuration errors."""


class PipelineError(ReproError):
    """Raised for invalid end-to-end pipeline configuration."""


class CheckpointError(ReproError):
    """Raised for unreadable, corrupt, or mismatched checkpoint state."""


class ServingError(ReproError):
    """Raised for invalid online-serving state or configuration.

    Covers the :mod:`repro.serving` layer: reading from an empty
    embedding store, publishing an older generation over a newer one,
    querying a frontend that is not started or is closed, and
    malformed queries.
    """


class StreamError(ReproError):
    """Raised for invalid streaming-ingest state or configuration.

    Covers the :mod:`repro.stream` layer: malformed or corrupted
    write-ahead-log segments (outside the recoverable torn-tail case),
    appending to a closed log or queue, and misconfigured backpressure
    or refresh policies.
    """


class FaultInjected(ReproError):
    """Raised by the fault-injection layer (:mod:`repro.faults`).

    Only ever raised when a fault plan is active (via config or the
    ``REPRO_FAULTS`` environment variable); production runs never see it.
    """
