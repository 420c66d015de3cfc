"""Tests of the scorer's training math on plain arrays.

The gradient oracle is central finite differences of the loss
(`oracles.finite_difference`), independent of the analytic backwards; the
bit-for-bit oracle, the composed tape graph, is held to `backward` in
`test_accuracy`.
"""

import numpy as np
import pytest

import diverank.autodiff as ad
from diverank.accuracy import init_scorer_params
from diverank.data import ValidationError
from oracles import finite_difference

FD_RTOL = 1e-4


def assert_scorer_grads_match(inputs, params, labels):
    """Check `autodiff.backward`'s gradients against central differences of the loss."""
    _, analytic = ad.backward(*inputs, params, labels)

    def loss():
        return ad.cross_entropy(ad.score_logits(*inputs, params), labels)[0]

    numeric = finite_difference(loss, params.arrays().values())
    for name, a, n in zip(params.arrays(), analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=FD_RTOL, atol=1e-7, err_msg=name)


def scorer_case(rng, d=4, n=5, shared=True):
    params = init_scorer_params(d, rng)
    rows = 1 if shared else n
    inputs = [rng.normal(size=(n, d))] + [rng.normal(size=(rows, d)) for _ in range(4)]
    return params, inputs, np.arange(n) % 2


class TestSoftmax:
    def test_symmetric_logits_split_evenly(self):
        assert ad.softmax(np.array([[0.0, 0.0]])).tolist() == [[0.5, 0.5]]

    def test_rows_sum_to_one(self, rng):
        out = ad.softmax(rng.normal(size=(5, 7)))
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_overflow_safe(self):
        out = ad.softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)


class TestCrossEntropy:
    def test_logit_gradient_is_softmax_minus_onehot_over_n(self, rng):
        # d(mean CE)/d(logits) = (softmax(logits) - onehot) / n, the standard identity.
        logits = rng.normal(size=(4, 2))
        labels = np.array([0, 1, 1, 0])
        _, grad = ad.cross_entropy(logits, labels)
        onehot = np.eye(2)[labels]
        np.testing.assert_allclose(grad, (ad.softmax(logits) - onehot) / 4, atol=1e-15)


class TestScoreLogits:
    def test_one_dim_inputs_are_single_rows(self, rng):
        params, inputs, _ = scorer_case(rng, n=1)
        as_rows = ad.score_logits(*inputs, params)
        as_vectors = ad.score_logits(*[a.reshape(-1) for a in inputs], params)
        assert as_vectors.tobytes() == as_rows.tobytes()

    @pytest.mark.parametrize("position", range(5))
    def test_input_of_wrong_width_is_rejected(self, rng, position):
        params, inputs, _ = scorer_case(rng, d=3, n=2, shared=False)
        inputs[position] = np.zeros((2, 4))
        with pytest.raises(ValidationError, match="columns"):
            ad.score_logits(*inputs, params)

    def test_context_of_wrong_row_count_is_rejected(self, rng):
        params, inputs, _ = scorer_case(rng, n=4)
        inputs[3] = np.zeros((3, 4))
        with pytest.raises(ValidationError, match="1 or 4 rows"):
            ad.score_logits(*inputs, params)


class TestBackward:
    def test_bit_deterministic_and_leaves_its_arguments_alone(self, rng):
        params, inputs, labels = scorer_case(rng, n=7, shared=False)
        before = [a.copy() for a in (*inputs, *params.arrays().values())]
        first, second = ad.backward(*inputs, params, labels), ad.backward(*inputs, params, labels)
        assert first[0] == second[0]
        for a, b in zip(first[1], second[1]):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(before, (*inputs, *params.arrays().values())):
            assert a.tobytes() == b.tobytes()
