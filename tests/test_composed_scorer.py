"""Finite-difference checks of the ops that only the composed oracles use.

The ops live in `composed_scorer`, beside the oracle graphs of the scorer
and its loss; the oracle itself is checked against the library's
analytic backward in `test_accuracy`.
"""

import tape as ad
from composed_scorer import concat_cols, log, scale, sigmoid
from tape import Tensor
from test_tape import assert_grads_match


class TestPrimitiveGradients:
    def test_scale(self, rng):
        a = Tensor(rng.normal(size=(2, 6)))
        assert_grads_match(lambda: ad.sum_all(scale(a, -2.5)), [a])

    def test_concat_cols(self, rng):
        a = Tensor(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=(3, 4)))
        weight = ad.constant(rng.normal(size=(3, 6)))
        assert_grads_match(
            lambda: ad.sum_all(ad.mul_elementwise(concat_cols([a, b]), weight)), [a, b]
        )

    def test_sigmoid(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        assert_grads_match(lambda: ad.sum_all(sigmoid(a)), [a])

    def test_log(self, rng):
        a = Tensor(rng.random(size=(3, 3)) + 0.5)
        assert_grads_match(lambda: ad.sum_all(log(a)), [a])
