"""Tests of the reverse-mode tape that the composed oracle is built on.

The gradient oracle is central finite differences computed directly on
the forward function, independent of the tape machinery (see
`oracles.finite_difference`).
"""

import numpy as np
import pytest

import tape as ad
from composed_scorer import concat_cols, log, scale, sigmoid
from diverank.data import ValidationError
from oracles import finite_difference
from tape import Tape, Tensor

FD_RTOL = 1e-4


def assert_grads_match(loss_builder, params):
    """Check tape gradients against the finite-difference oracle."""
    for p in params:
        p.requires_grad = True
        p.grad = None
    with Tape():
        loss = loss_builder()
        ad.backward(loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    def eval_loss():
        with ad.no_grad():
            return loss_builder().item()

    numeric = finite_difference(eval_loss, [p.data for p in params])
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=FD_RTOL, atol=1e-7)


class TestForwardValues:
    def test_matmul_arithmetic(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_softmax_symmetry(self):
        out = ad.softmax_rows(Tensor([[0.0, 0.0]]))
        assert out.data.tolist() == [[0.5, 0.5]]

    def test_relu_definition(self):
        out = ad.relu(Tensor([[-1.0, 2.0]]))
        assert out.data.tolist() == [[0.0, 2.0]]

    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(5, 7)))
        out = ad.softmax_rows(x).data
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_overflow_safe(self):
        out = ad.softmax_rows(Tensor([[1000.0, 0.0]])).data
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    def test_one_dim_input_becomes_row(self):
        t = Tensor(np.array([1.0, 2.0, 3.0]))
        assert t.shape == (1, 3)

    def test_three_dim_rejected(self):
        with pytest.raises(ValidationError):
            Tensor(np.zeros((2, 2, 2)))


class TestScalarGradients:
    def test_x_squared_at_three(self):
        x = Tensor([[3.0]], requires_grad=True)
        with Tape():
            loss = ad.mul_elementwise(x, x)
            ad.backward(loss)
        assert x.grad.tolist() == [[6.0]]

    def test_softmax_cross_entropy_identity(self):
        # d(CE)/d(logits) = softmax(logits) - onehot, the standard identity.
        logits = Tensor([[0.2, -0.4, 1.1]], requires_grad=True)
        onehot = np.array([[0.0, 1.0, 0.0]])
        with Tape():
            log_probs = log(ad.softmax_rows(logits))
            loss = scale(ad.sum_all(ad.mul_elementwise(log_probs, ad.constant(onehot))), -1.0)
            ad.backward(loss)
        expected = ad.softmax_rows(ad.constant(logits.data)).data - onehot
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


class TestPrimitiveGradients:
    """Finite-difference checks for every primitive on random inputs <= 8x8."""

    def test_matmul(self, rng):
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(3, 5)))
        assert_grads_match(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])

    def test_add_and_row_broadcast(self, rng):
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(1, 3)))
        assert_grads_match(lambda: ad.sum_all(ad.add(a, b)), [a, b])

    def test_mul_elementwise_row_broadcast(self, rng):
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(1, 3)))
        assert_grads_match(lambda: ad.sum_all(ad.mul_elementwise(a, b)), [a, b])

    def test_softmax_rows(self, rng):
        a = Tensor(rng.normal(size=(4, 5)))
        weight = ad.constant(rng.normal(size=(4, 5)))
        assert_grads_match(lambda: ad.sum_all(ad.mul_elementwise(ad.softmax_rows(a), weight)), [a])

    def test_relu(self, rng):
        a = Tensor(rng.normal(size=(4, 4)) + 0.3)  # keep entries off the kink
        a.data[np.abs(a.data) < 1e-3] = 0.5
        assert_grads_match(lambda: ad.sum_all(ad.relu(a)), [a])

    def test_sum_all(self, rng):
        a = Tensor(rng.normal(size=(3, 5)))
        # The scale makes the upstream gradient -3, not the loss seed 1.
        assert_grads_match(lambda: scale(ad.sum_all(a), -3.0), [a])


class TestCompositeGradients:
    def test_two_layer_network(self, rng):
        x = ad.constant(rng.normal(size=(5, 4)))
        w1 = Tensor(rng.normal(size=(4, 6)))
        b1 = Tensor(rng.normal(size=(1, 6)))
        w2 = Tensor(rng.normal(size=(6, 2)))
        y = np.zeros((5, 2))
        y[np.arange(5), rng.integers(0, 2, size=5)] = 1.0

        def loss():
            hidden = ad.relu(ad.add(ad.matmul(x, w1), b1))
            logits = ad.matmul(hidden, w2)
            picked = ad.mul_elementwise(log(ad.softmax_rows(logits)), ad.constant(y))
            return scale(ad.sum_all(picked), -1.0 / 5)

        assert_grads_match(loss, [w1, b1, w2])

    def test_backward_bit_deterministic(self, rng):
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        x = ad.constant(rng.normal(size=(3, 4)))

        def run():
            w.grad = None
            with Tape():
                loss = ad.sum_all(sigmoid(ad.matmul(x, w)))
                ad.backward(loss)
            return w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


class TestTapeDiscipline:
    def test_no_tape_no_backward(self):
        x = Tensor([[2.0]], requires_grad=True)
        loss = ad.mul_elementwise(x, x)
        with pytest.raises(ValidationError):
            ad.backward(loss)

    def test_no_grad_suppresses_recording(self):
        x = Tensor([[2.0]], requires_grad=True)
        with Tape() as tape:
            with ad.no_grad():
                ad.mul_elementwise(x, x)
            assert len(tape) == 0

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape():
            out = scale(x, 2.0)
            with pytest.raises(ValidationError):
                ad.backward(out)


class TestGradientBuffers:
    """A tensor's first gradient may be a view of, or the very array that
    is, another tensor's gradient; storing it must not alias the two."""

    def test_add_passthrough_is_not_shared(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        with Tape():
            d = scale(b, 2.0)  # replayed last: accumulates into b after the add
            c = ad.add(a, b)  # same shapes: both operands receive the upstream array
            ad.backward(ad.sum_all(ad.add(c, d)))
        assert np.array_equal(a.grad, np.ones((2, 3)))
        assert np.array_equal(b.grad, np.full((2, 3), 3.0))
        assert np.array_equal(c.grad, np.ones((2, 3)))

    def test_concat_slice_keeps_its_value(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 1)), requires_grad=True)
        e = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        with Tape():
            f = scale(e, 2.0)  # replayed last: accumulates into e's buffer
            out = concat_cols([a, b])  # a and b receive column slices of out's gradient
            ad.backward(ad.sum_all(ad.add(ad.add(out, e), f)))
        assert np.array_equal(a.grad, np.ones((2, 2)))
        assert np.array_equal(b.grad, np.ones((2, 1)))
        assert np.array_equal(out.grad, np.ones((2, 3)))
        assert np.array_equal(e.grad, np.full((2, 3), 3.0))

    def test_first_gradient_is_copied_and_shape_checked(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        for bad in (np.ones((1, 3)), np.ones((3, 2)), np.ones((2, 3, 1))):
            with pytest.raises(ValidationError, match="gradient shape"):
                t.accumulate(bad)
        assert t.grad is None
        g = np.ones((2, 3))
        t.accumulate(g)
        g += 5.0
        assert np.array_equal(t.grad, np.ones((2, 3)))
