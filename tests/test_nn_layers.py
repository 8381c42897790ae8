"""Unit tests for individual layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import TrainingError
from repro.nn import BCEWithLogitsLoss, Linear, ReLU, Residual, Sigmoid, Tanh
from repro.nn.layers import sigmoid


def masked_sigmoid(x):
    """The two-branch masked form the shared ``sigmoid`` replaced; kept
    here as the byte-level oracle."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, -2.2250738585072014e-308, 745.2, -745.2,
           800.0, -800.0, 36.8, -36.8]
LOGITS = st.one_of(st.floats(-800.0, 800.0), st.floats(),
                   st.sampled_from(SPECIAL))
LOGITS32 = st.one_of(st.floats(-800.0, 800.0, width=32), st.floats(width=32),
                     st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan,
                                      -np.nan, 1e-45, -1e-45, 103.9, -103.9]))


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


class TestSharedSigmoid:
    @pytest.mark.parametrize("dtype, elements", [(np.float64, LOGITS),
                                                 (np.float32, LOGITS32)])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_equal_to_masked_form(self, dtype, elements, data):
        z = data.draw(hnp.arrays(
            dtype, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                    max_side=40), elements=elements))
        expected = masked_sigmoid(z)
        out = sigmoid(z)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_special_values_byte_equal(self):
        z = np.array(SPECIAL)
        assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
        assert np.signbit(sigmoid(np.array([-np.nan])))[0]

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(-800.0, 800.0)),
           st.data())
    def test_bce_forward_byte_equal_to_separate_forms(self, z, data):
        y = data.draw(hnp.arrays(np.float64, len(z),
                                 elements=st.sampled_from([0.0, 1.0])))
        loss = BCEWithLogitsLoss()
        value = loss.forward(z, y)
        expected = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        assert value == float(expected.mean())
        assert loss.predictions().tobytes() == masked_sigmoid(z).tobytes()


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
