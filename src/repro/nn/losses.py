"""Loss functions of §IV-B.

Link prediction trains with binary cross-entropy over a 1-logit output
(Eq. 4); node classification with negative log likelihood over ``|C|``
log-probabilities.  Both are implemented in their numerically stable
"with-logits" forms.  A loss exposes ``forward(logits, targets) ->
scalar`` and ``backward() -> grad_logits`` (mean reduction).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.nn.layers import stable_sigmoid


class BCEWithLogitsLoss:
    """Binary cross-entropy on logits, mean-reduced.

    ``logits`` has shape ``(n,)`` or ``(n, 1)``; targets are 0/1 floats.
    Stable form: ``max(z, 0) - z*y + log(1 + exp(-|z|))``.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        self._shape: tuple[int, ...] | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        """Forward pass; caches what backward needs."""
        z = np.asarray(logits, dtype=np.float64)
        self._shape = z.shape
        z = z.reshape(-1)
        y = np.asarray(targets, dtype=np.float64).reshape(-1)
        if len(z) != len(y):
            raise TrainingError(
                f"logits ({len(z)}) and targets ({len(y)}) length mismatch"
            )
        sig, ez = stable_sigmoid(z)
        loss = np.maximum(z, 0.0) - z * y + np.log1p(ez)
        self._probs = sig
        self._targets = y
        return float(loss.mean())

    def backward(self) -> np.ndarray:
        """Backward pass; returns the input gradient."""
        if self._probs is None or self._targets is None or self._shape is None:
            raise TrainingError("backward called before forward")
        grad = (self._probs - self._targets) / len(self._probs)
        return grad.reshape(self._shape)

    def predictions(self) -> np.ndarray:
        """Probabilities from the last forward pass."""
        if self._probs is None:
            raise TrainingError("predictions requested before forward")
        return self._probs


class CrossEntropyLoss:
    """Log-softmax + NLL on logits, mean-reduced.

    ``logits`` has shape ``(n, num_classes)``; ``targets`` are integer
    class ids.  This is the paper's node-classification loss
    ``L = -log q_c`` with ``q`` the softmax output.
    """

    def __init__(self) -> None:
        self._softmax: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        """Forward pass; caches what backward needs."""
        z = np.asarray(logits, dtype=np.float64)
        if z.ndim != 2:
            raise TrainingError("CrossEntropyLoss expects (n, num_classes) logits")
        y = np.asarray(targets, dtype=np.int64).reshape(-1)
        if len(z) != len(y):
            raise TrainingError(
                f"logits ({len(z)}) and targets ({len(y)}) length mismatch"
            )
        if y.min(initial=0) < 0 or y.max(initial=0) >= z.shape[1]:
            raise TrainingError("target class out of range")
        shifted = z - z.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        softmax = exp / exp.sum(axis=1, keepdims=True)
        self._softmax = softmax
        self._targets = y
        log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
        return float(-log_probs[np.arange(len(y)), y].mean())

    def backward(self) -> np.ndarray:
        """Backward pass; returns the input gradient."""
        if self._softmax is None or self._targets is None:
            raise TrainingError("backward called before forward")
        grad = self._softmax.copy()
        grad[np.arange(len(self._targets)), self._targets] -= 1.0
        return grad / len(self._targets)

    def predictions(self) -> np.ndarray:
        """Class probabilities from the last forward pass."""
        if self._softmax is None:
            raise TrainingError("predictions requested before forward")
        return self._softmax
