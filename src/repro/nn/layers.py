"""Layers: affine, activations, residual block, and the stable sigmoid.

:class:`Linear` also counts the GEMM work it performs (flops and operand
sizes) — that feed the Fig. 9 instruction mix and the §VII-B GEMM
size-gap analysis (small classifier matrices vs VGG-sized ones).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.nn.module import Module, Parameter
from repro.rng import SeedLike, make_rng


def xavier_uniform(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot/Xavier uniform initialization for an affine weight."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def stable_sigmoid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sigmoid(z), exp(-|z|))`` without overflow on either side.

    ``exp(-|z|)`` is written ``exp(minimum(z, -z))``: it stays in
    ``(0, 1]`` so neither branch overflows, and unlike ``-abs(z)`` it
    keeps a NaN input's sign bit.  The second value lets
    :class:`~repro.nn.losses.BCEWithLogitsLoss` reuse it for its
    ``log1p`` term.
    """
    z = np.asarray(z)
    ez = np.exp(np.minimum(z, -z))
    sig = np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    return sig.astype(np.float64, copy=False), ez


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, as float64."""
    return stable_sigmoid(z)[0]


class Linear(Module):
    """Affine layer ``y = x W + b`` with GEMM work accounting."""

    def __init__(
        self, in_features: int, out_features: int, seed: SeedLike = None
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise TrainingError(
                f"Linear dims must be >= 1, got ({in_features}, {out_features})"
            )
        rng = make_rng(seed)
        self.weight = Parameter(
            xavier_uniform(in_features, out_features, rng), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="bias")
        self._input: np.ndarray | None = None
        # Cumulative GEMM statistics (forward + backward), consumed by the
        # hardware models.
        self.flops = 0
        self.gemm_calls = 0

    @property
    def in_features(self) -> int:
        """Input width of the affine map."""
        return self.weight.data.shape[0]

    @property
    def out_features(self) -> int:
        """Output width of the affine map."""
        return self.weight.data.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches what backward needs."""
        self._input = x
        self.flops += 2 * x.shape[0] * self.in_features * self.out_features
        self.gemm_calls += 1
        return x @ self.weight.data + self.bias.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward pass; returns the input gradient."""
        if self._input is None:
            raise TrainingError("backward called before forward")
        x = self._input
        self.weight.grad += x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        self.flops += 4 * x.shape[0] * self.in_features * self.out_features
        self.gemm_calls += 2
        return grad_out @ self.weight.data.T

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches what backward needs."""
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward pass; returns the input gradient."""
        if self._mask is None:
            raise TrainingError("backward called before forward")
        return grad_out * self._mask


class Sigmoid(Module):
    """Logistic activation."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches what backward needs."""
        self._out = sigmoid(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward pass; returns the input gradient."""
        if self._out is None:
            raise TrainingError("backward called before forward")
        return grad_out * self._out * (1.0 - self._out)


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches what backward needs."""
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward pass; returns the input gradient."""
        if self._out is None:
            raise TrainingError("backward called before forward")
        return grad_out * (1.0 - self._out ** 2)


class Dropout(Module):
    """Inverted dropout — an extension beyond the paper's plain FNNs.

    Active only between :meth:`train` and :meth:`eval` toggles; scaling
    at train time keeps eval a pure identity.
    """

    def __init__(self, rate: float = 0.5, seed: SeedLike = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise TrainingError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.training = True
        self._rng = make_rng(seed)
        self._mask: np.ndarray | None = None

    def train(self) -> None:
        """Train over the corpus; returns the fitted model."""
        self.training = True

    def eval(self) -> None:
        """Disable training-time behaviour (dropout off)."""
        self.training = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches what backward needs."""
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward pass; returns the input gradient."""
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Residual(Module):
    """Residual block ``y = x + inner(x)`` (same width in and out).

    §VIII-A notes that swapping the plain FNN for a ResNet-style
    classifier gains ~2% link-prediction accuracy; this block is the
    substrate for that ablation (`benchmarks/bench_ablation_classifier`).
    """

    def __init__(self, inner: Module) -> None:
        self.inner = inner

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches what backward needs."""
        return x + self.inner.forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward pass; returns the input gradient."""
        return grad_out + self.inner.backward(grad_out)
