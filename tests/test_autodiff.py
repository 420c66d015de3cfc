"""Tests of the scorer's training math on plain arrays.

The gradient oracle is central finite differences of the loss
(`oracles.finite_difference`), independent of the analytic backwards; the
bit-for-bit oracle, the composed tape graph, is held to `backward` in
`test_accuracy`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diverank.autodiff as ad
from diverank.accuracy import init_scorer_params
from diverank.data import ValidationError
from oracles import finite_difference

FD_RTOL = 1e-4
# Logits anywhere in [-800, 800], with the saturated and signed-zero ones drawn often.
LOGITS = st.floats(-800.0, 800.0) | st.sampled_from([-800.0, -40.0, -0.0, 0.0, 40.0, 800.0])


def assert_scorer_grads_match(inputs, params, labels):
    """Check `autodiff.backward`'s gradients against central differences of the loss."""
    _, analytic = ad.backward(*inputs, params, labels)

    def loss():
        return ad.cross_entropy(ad.score_logits(*inputs, params), labels)[0]

    numeric = finite_difference(loss, params.arrays().values())
    for name, a, n in zip(params.arrays(), analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=FD_RTOL, atol=1e-7, err_msg=name)


def per_row(n, row):
    """A (d,) row shared by all n targets as the (n, d) input the scorer math takes."""
    return np.repeat(np.reshape(row, (1, -1)), n, axis=0)


def scorer_case(rng, d=4, n=5, shared=True):
    """Params, the five (n, d) inputs and labels; `shared` repeats one row of
    each interest and context input for every target."""
    params = init_scorer_params(d, rng)
    rows = 1 if shared else n
    inputs = [rng.normal(size=(n, d))]
    inputs += [np.repeat(rng.normal(size=(rows, d)), n // rows, axis=0) for _ in range(4)]
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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(LOGITS, min_size=2, max_size=2), st.integers(0, 1))
    @example([40.0, -40.0], 0)
    @example([40.0, -40.0], 1)
    @example([800.0, -800.0], 0)
    @example([800.0, -800.0], 1)
    @example([-0.0, 0.0], 1)
    def test_one_row_logit_gradient_holds_no_negative_zero(self, logits, label):
        """So summing the `mlp_b2` gradient over one row keeps its bits.  Each
        entry is p * (-1/p - inner) or p * (-0.0 - inner), with inner near -1,
        so never -0.0.  A logit gap past about 709 overflows -1/p or rounds p
        to 0, and the entries are NaN, which a sum keeps too."""
        with np.errstate(all="ignore"):
            _, grad = ad.cross_entropy(np.array([logits]), [label])
        assert not np.any((grad == 0.0) & np.signbit(grad)), grad


NAMES = ("targets", "h_macro", "h_micro", "h_prev", "h_cand")


class TestScoreLogits:
    @pytest.mark.parametrize("position", range(5))
    def test_input_of_wrong_width_is_rejected(self, rng, position):
        params, inputs, _ = scorer_case(rng, d=3, n=2, shared=False)
        inputs[position] = np.zeros((2, 4))
        with pytest.raises(ValidationError, match=rf"^{NAMES[position]} must be \(2, 3\) rows"):
            ad.score_logits(*inputs, params)

    def test_context_of_wrong_row_count_is_rejected(self, rng):
        params, inputs, _ = scorer_case(rng, n=4)
        inputs[3] = np.zeros((3, 4))
        want = r"^h_prev must be \(4, 4\) rows, one per target, got shape \(3, 4\)$"
        with pytest.raises(ValidationError, match=want):
            ad.score_logits(*inputs, params)

    @pytest.mark.parametrize("shape", [(4,), (1, 4)], ids=["vector", "one row"])
    @pytest.mark.parametrize("position", range(1, 5))
    @pytest.mark.parametrize("step", ["score_logits", "backward"])
    def test_shared_row_is_rejected(self, rng, step, position, shape):
        """Every input holds one row per target: a single row is not repeated."""
        params, inputs, labels = scorer_case(rng, n=3)
        inputs[position] = inputs[position][0].reshape(shape)
        call = {"score_logits": lambda: ad.score_logits(*inputs, params),
                "backward": lambda: ad.backward(*inputs, params, labels)}[step]
        with pytest.raises(ValidationError, match=rf"^{NAMES[position]} must be \(3, 4\) rows, one per target"):
            call()


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
