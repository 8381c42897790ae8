"""Walk configuration.

These are the three knobs of the paper's accuracy-complexity trade-off
study (Fig. 8) plus the transition-bias choice (Eq. 1).  The paper's
recommended operating point is ``K=10`` walks per node, walk length
``L=6``, with the softmax temporal bias (§VII-A summary).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WalkError
from repro.walk.sampling import BIAS_CHOICES


@dataclass(frozen=True)
class WalkConfig:
    """Hyperparameters of the temporal random walk kernel.

    Every field shapes the sampled walks; the step sampler (``cdf`` or
    ``gumbel``, same distribution) is chosen on
    :class:`~repro.walk.engine.TemporalWalkEngine`, not here.

    Parameters
    ----------
    num_walks_per_node:
        ``K`` in Algorithm 1 — how many independent walks start from every
        node.  Paper finds accuracy saturates at 8-10.
    max_walk_length:
        ``L`` — the maximum number of *nodes* in a walk (a walk of length
        L takes L-1 temporal steps).  Walks terminate early when a node has
        no temporally valid out-edge, which is what produces the power-law
        length distribution of Fig. 4.  Paper finds accuracy saturates at
        4-6.
    bias:
        Transition probability model; one of ``uniform``, ``softmax-late``
        (Eq. 1 exactly as printed — later timestamps more likely),
        ``softmax-recency`` (exponentially favors edges soonest after the
        current walk time, matching the Fig. 2 narrative), or ``linear``
        (rank-based recency decay).
    allow_equal:
        When True, an edge whose timestamp equals the current walk time is
        valid (the ``>=`` variant); default is the strict ``>`` of
        Definition III.2.
    temperature:
        The normalization term ``r`` of Eq. 1 (total timestamp span).
        ``None`` means "use the graph's time span", which is the paper's
        definition.
    time_window:
        Optional maximum timestamp gap per hop: an edge is only valid if
        its timestamp is within ``time_window`` of the current walk time.
        ``None`` (the paper's setting) allows arbitrarily distant future
        edges.  The CTDNE literature uses windows to keep walks within
        one behavioural epoch.
    direction:
        ``forward`` (the paper's Definition III.2: timestamps strictly
        increase) or ``backward`` (timestamps strictly decrease — walks
        into a node's history, the context variant some CTDNE follow-ups
        use).  Bias names keep their absolute-timestamp meaning in both
        directions: ``softmax-late`` always favors later timestamps,
        which for a backward walk means the edges nearest the current
        clock.
    """

    num_walks_per_node: int = 10
    max_walk_length: int = 6
    bias: str = "softmax-recency"
    allow_equal: bool = False
    temperature: float | None = None
    time_window: float | None = None
    direction: str = "forward"

    def __post_init__(self) -> None:
        if self.num_walks_per_node < 1:
            raise WalkError(
                f"num_walks_per_node must be >= 1, got {self.num_walks_per_node}"
            )
        if self.max_walk_length < 1:
            raise WalkError(
                f"max_walk_length must be >= 1, got {self.max_walk_length}"
            )
        if self.bias not in BIAS_CHOICES:
            raise WalkError(
                f"unknown bias {self.bias!r}; options: {sorted(BIAS_CHOICES)}"
            )
        if self.temperature is not None and self.temperature <= 0:
            raise WalkError(f"temperature must be > 0, got {self.temperature}")
        if self.time_window is not None and self.time_window <= 0:
            raise WalkError(
                f"time_window must be > 0, got {self.time_window}"
            )
        if self.direction not in ("forward", "backward"):
            raise WalkError(
                f"direction must be 'forward' or 'backward', got "
                f"{self.direction!r}"
            )

    @property
    def max_steps(self) -> int:
        """Number of edge transitions a full-length walk performs."""
        return self.max_walk_length - 1
