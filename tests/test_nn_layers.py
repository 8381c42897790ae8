"""Unit tests for individual layers."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn import Linear, ReLU, Residual, Sigmoid, Tanh


class TestLinear:
    def test_forward_affine(self):
        layer = Linear(2, 3, seed=1)
        layer.weight.data[:] = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
        layer.bias.data[:] = np.array([1.0, 2.0, 3.0])
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[2.0, 3.0, 8.0]])

    def test_backward_before_forward_rejected(self):
        with pytest.raises(TrainingError):
            Linear(2, 2, seed=1).backward(np.ones((1, 2)))

    def test_invalid_dims(self):
        with pytest.raises(TrainingError):
            Linear(0, 3)

    def test_xavier_bounds(self):
        layer = Linear(100, 100, seed=2)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= limit

    def test_flop_accounting(self):
        layer = Linear(4, 5, seed=1)
        x = np.ones((8, 4))
        layer.forward(x)
        assert layer.flops == 2 * 8 * 4 * 5
        assert layer.gemm_calls == 1
        layer.backward(np.ones((8, 5)))
        assert layer.gemm_calls == 3

    def test_bias_grad_sums_over_batch(self):
        layer = Linear(2, 2, seed=1)
        x = np.ones((5, 2))
        layer.forward(x)
        layer.backward(np.ones((5, 2)))
        assert np.allclose(layer.bias.grad, 5.0)


class TestActivations:
    def test_relu_masks_negatives(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 2.0]]))
        assert out.tolist() == [[0.0, 2.0]]
        grad = relu.backward(np.array([[10.0, 10.0]]))
        assert grad.tolist() == [[0.0, 10.0]]

    def test_sigmoid_range(self):
        out = Sigmoid().forward(np.array([[-100.0, 0.0, 100.0]]))
        assert np.all((out >= 0) & (out <= 1))
        assert out[0, 1] == pytest.approx(0.5)

    def test_sigmoid_gradient_peak_at_zero(self):
        s = Sigmoid()
        s.forward(np.array([[0.0]]))
        assert s.backward(np.array([[1.0]]))[0, 0] == pytest.approx(0.25)

    def test_tanh_odd_function(self):
        t = Tanh()
        out = t.forward(np.array([[-2.0, 2.0]]))
        assert out[0, 0] == pytest.approx(-out[0, 1])

    @pytest.mark.parametrize("cls", [ReLU, Sigmoid, Tanh])
    def test_backward_before_forward_rejected(self, cls):
        with pytest.raises(TrainingError):
            cls().backward(np.ones((1, 1)))


class TestResidual:
    def test_forward_adds_skip(self):
        inner = Linear(3, 3, seed=1)
        inner.weight.data[:] = 0.0
        inner.bias.data[:] = 1.0
        block = Residual(inner)
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(block.forward(x), x + 1.0)

    def test_backward_adds_skip_gradient(self):
        inner = Linear(2, 2, seed=1)
        inner.weight.data[:] = 0.0
        block = Residual(inner)
        block.forward(np.ones((1, 2)))
        grad = block.backward(np.array([[1.0, 1.0]]))
        # Inner path contributes W^T grad = 0; skip path passes grad.
        assert np.allclose(grad, [[1.0, 1.0]])
