"""Finite-difference gradient verification of every layer/loss combination.

These are the ground-truth correctness tests for the FNN substrate: the
analytic backward passes must agree with numerical differentiation to
high precision on the exact architectures the paper's tasks use.
"""

import pytest

from repro.nn import (
    BCEWithLogitsLoss,
    CrossEntropyLoss,
    Linear,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
    Tanh,
    gradient_check,
)

TOLERANCE = 1e-5


@pytest.fixture()
def x(rng):
    return rng.normal(size=(6, 5))


class TestGradientChecks:
    def test_linear_bce(self, x, rng):
        model = Sequential(Linear(5, 1, seed=1))
        err = gradient_check(model, BCEWithLogitsLoss(), x,
                             rng.integers(0, 2, 6).astype(float))
        assert err < TOLERANCE

    def test_paper_link_prediction_architecture(self, x, rng):
        # 2-layer FNN + BCE (§IV-B link prediction).
        model = Sequential(Linear(5, 8, seed=1), ReLU(), Linear(8, 1, seed=2))
        err = gradient_check(model, BCEWithLogitsLoss(), x,
                             rng.integers(0, 2, 6).astype(float))
        assert err < TOLERANCE

    def test_paper_node_classification_architecture(self, x, rng):
        # 3-layer FNN + NLL (§IV-B node classification).
        model = Sequential(
            Linear(5, 8, seed=1), ReLU(),
            Linear(8, 6, seed=2), ReLU(),
            Linear(6, 4, seed=3),
        )
        err = gradient_check(model, CrossEntropyLoss(), x,
                             rng.integers(0, 4, 6))
        assert err < TOLERANCE

    def test_sigmoid_stack(self, x, rng):
        model = Sequential(Linear(5, 4, seed=1), Sigmoid(), Linear(4, 3, seed=2))
        err = gradient_check(model, CrossEntropyLoss(), x, rng.integers(0, 3, 6))
        assert err < TOLERANCE

    def test_tanh_stack(self, x, rng):
        model = Sequential(Linear(5, 4, seed=1), Tanh(), Linear(4, 1, seed=2))
        err = gradient_check(model, BCEWithLogitsLoss(), x,
                             rng.integers(0, 2, 6).astype(float))
        assert err < TOLERANCE

    def test_residual_classifier(self, x, rng):
        # §VIII-A's ResNet-style variant.
        model = Sequential(
            Linear(5, 8, seed=1), ReLU(),
            Residual(Sequential(Linear(8, 8, seed=2), ReLU(),
                                Linear(8, 8, seed=3))),
            Linear(8, 3, seed=4),
        )
        err = gradient_check(model, CrossEntropyLoss(), x, rng.integers(0, 3, 6))
        assert err < TOLERANCE

    def test_deep_residual_stack(self, x, rng):
        blocks = [
            Residual(Sequential(Linear(8, 8, seed=i), Tanh()))
            for i in range(5, 8)
        ]
        model = Sequential(Linear(5, 8, seed=1), *blocks, Linear(8, 1, seed=9))
        err = gradient_check(model, BCEWithLogitsLoss(), x,
                             rng.integers(0, 2, 6).astype(float))
        assert err < TOLERANCE
