"""The scorer and its loss as composed autodiff graphs: the test oracles.

`diverank.autodiff.backward` chains two hand-written backwards on plain
arrays, one for the scorer and one for its loss.  The graphs below are
what they replace, built from the primitives of the test tape (`tape`),
so the tests can hold the fused forward, loss and gradients to them bit
for bit.  The four ops defined here are used by nothing but these oracles
and the tests.
"""

from types import SimpleNamespace
from typing import Sequence

import numpy as np

import tape as ad
from diverank.accuracy import ScorerParams
from diverank.data import ValidationError
from tape import Tape, Tensor


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def back(g: np.ndarray) -> None:
        a.accumulate(g * s)

    return ad.record(a.data * s, (a,), back)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ValidationError("concat_cols needs at least one tensor")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.shape[0] != rows:
            raise ValidationError("concat_cols row counts differ")
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def back(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate(g[:, lo:hi])

    return ad.record(np.concatenate([p.data for p in parts], axis=1), tuple(parts), back)


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))

    def back(g: np.ndarray) -> None:
        a.accumulate(g * y * (1.0 - y))

    return ad.record(y, (a,), back)


def log(a: Tensor) -> Tensor:
    def back(g: np.ndarray) -> None:
        a.accumulate(g / a.data)

    return ad.record(np.log(a.data), (a,), back)


def score_logits_oracle(
    targets: Tensor,
    h_macro: Tensor,
    h_micro: Tensor,
    h_prev: Tensor,
    h_cand: Tensor,
    params: SimpleNamespace,
) -> Tensor:
    """`autodiff.score_logits` as a graph of 20 recorded primitives.

    Every input holds one row per target; `params` holds a leaf tensor
    under each `ScorerParams` field name.
    """
    gate_prev = sigmoid(ad.matmul(ad.relu(ad.matmul(h_prev, params.w1_prev)), params.w2_prev))
    gate_cand = sigmoid(ad.matmul(ad.relu(ad.matmul(h_cand, params.w1_cand)), params.w2_cand))
    features = concat_cols(
        [
            targets,
            ad.mul_elementwise(targets, gate_prev),
            ad.mul_elementwise(targets, gate_cand),
            ad.mul_elementwise(h_macro, gate_prev),
            ad.mul_elementwise(h_micro, gate_prev),
            ad.mul_elementwise(h_macro, gate_cand),
            ad.mul_elementwise(h_micro, gate_cand),
        ]
    )
    hidden = ad.relu(ad.add(ad.matmul(features, params.mlp_w1), params.mlp_b1))
    return ad.add(ad.matmul(hidden, params.mlp_w2), params.mlp_b2)


def cross_entropy_oracle(logits: Tensor, labels: np.ndarray) -> Tensor:
    """The loss of `autodiff.backward` as a graph of 5 recorded primitives."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValidationError("labels must align with logit rows")
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), labels] = 1.0
    picked = ad.mul_elementwise(log(ad.softmax_rows(logits)), ad.constant(onehot))
    return scale(ad.sum_all(picked), -1.0 / n)


def composed_step(targets, h_macro, h_micro, h_prev, h_cand, params: ScorerParams, labels):
    """One training step through the composed graph.

    Returns the logits, the loss, the eight parameter gradients in
    `ScorerParams` field order, and the number of ops the tape recorded.
    """
    leaves = {name: Tensor(w, requires_grad=True) for name, w in params.arrays().items()}
    inputs = [ad.constant(a) for a in (targets, h_macro, h_micro, h_prev, h_cand)]
    with Tape() as tape:
        logits = score_logits_oracle(*inputs, SimpleNamespace(**leaves))
        loss = cross_entropy_oracle(logits, labels)
        ad.backward(loss)
    return logits.data, loss.item(), tuple(t.grad for t in leaves.values()), len(tape)


def composed_backward(targets, h_macro, h_micro, h_prev, h_cand, params: ScorerParams, labels):
    """`autodiff.backward` through the composed graph: the loss and the eight gradients."""
    return composed_step(targets, h_macro, h_micro, h_prev, h_cand, params, labels)[1:3]
