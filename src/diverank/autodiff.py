"""The context-gated scorer's training math, on plain float64 arrays.

Every input holds one row per target: its embedding, its user's two
interest vectors and its two contexts, each an (n, d) array.
`score_logits` is the forward pass: two logits per target row.  `backward`
runs the same forward, keeping what its backward needs, takes the mean
cross-entropy of the minibatch's labels, and chains the two analytic
backwards, of the loss and of the scorer, into all eight parameter
gradients.  Each backward repeats, operation for operation and in the same
order, what a reverse-mode tape of the composed graph (matmul, relu,
sigmoid, elementwise products, column concatenation, bias adds, softmax,
log, sum) would replay, so the tests hold both bit for bit to that
composed oracle.
"""

from __future__ import annotations

import numpy as np

from .data import ValidationError


def _rows(a, n: int, name: str, dim: int) -> np.ndarray:
    """An input as float64, checked to hold one row of `dim` columns per target."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.shape != (n, dim):
        raise ValidationError(f"{name} must be ({n}, {dim}) rows, one per target, got shape {arr.shape}")
    return arr


def _gate(src: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    """Excitation gate sigma(relu(src W1) W2), with what its backward needs."""
    pre = src @ w1
    mask = pre > 0
    hidden = np.where(mask, pre, 0.0)
    return 1.0 / (1.0 + np.exp(-(hidden @ w2))), mask, hidden


def _gate_grads(g, src, gate, mask, hidden, w2) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of W1 and W2 from the gradient `g` of the gate's output."""
    g_pre_sigmoid = g * gate * (1.0 - gate)
    g_hidden = g_pre_sigmoid @ w2.T
    return src.T @ (g_hidden * mask), hidden.T @ g_pre_sigmoid


def _forward(targets, h_macro, h_micro, h_prev, h_cand, params):
    """Logits, and the backward from their gradient to the eight parameter gradients."""
    n, d = len(np.atleast_2d(targets)), params.dim
    T = _rows(targets, n, "targets", d)
    src_prev = _rows(h_prev, n, "h_prev", d)
    src_cand = _rows(h_cand, n, "h_cand", d)
    macro = _rows(h_macro, n, "h_macro", d)
    micro = _rows(h_micro, n, "h_micro", d)
    p = params
    prev = _gate(src_prev, p.w1_prev, p.w2_prev)
    cand = _gate(src_cand, p.w1_cand, p.w2_cand)
    gate_prev, gate_cand = prev[0], cand[0]
    features = np.concatenate(
        [
            T,
            T * gate_prev,
            T * gate_cand,
            macro * gate_prev,
            micro * gate_prev,
            macro * gate_cand,
            micro * gate_cand,
        ],
        axis=1,
    )
    pre = features @ p.mlp_w1 + p.mlp_b1
    mask = pre > 0
    hidden = np.where(mask, pre, 0.0)
    logits = hidden @ p.mlp_w2 + p.mlp_b2

    def back(g: np.ndarray) -> tuple[np.ndarray, ...]:
        g_pre = (g @ p.mlp_w2.T) * mask
        g_features = g_pre @ p.mlp_w1.T
        block = [g_features[:, k * d : (k + 1) * d] for k in range(7)]
        # Each gate sums its contributions in the order a tape replays them.
        g_gate_cand = block[6] * micro
        g_gate_cand += block[5] * macro
        g_gate_prev = block[4] * micro
        g_gate_prev += block[3] * macro
        g_gate_cand += block[2] * T
        g_gate_prev += block[1] * T
        return (
            *_gate_grads(g_gate_prev, src_prev, *prev, p.w2_prev),
            *_gate_grads(g_gate_cand, src_cand, *cand, p.w2_cand),
            features.T @ g_pre,
            # A one-row bias gradient is passed on as is, keeping its -0.0s.
            g_pre if n == 1 else g_pre.sum(axis=0, keepdims=True),
            hidden.T @ g,
            # No -0.0 to keep here: test_one_row_logit_gradient_holds_no_negative_zero.
            g.sum(axis=0, keepdims=True),
        )

    return logits, back


def score_logits(targets, h_macro, h_micro, h_prev, h_cand, params) -> np.ndarray:
    """Two logits per target row, as an (n, 2) array.

    Every input is an (n, d) array holding one row per target: the
    target embedding, its user's macro and micro interest vectors, and
    its previous and candidate contexts.  Feature layout per row: the raw
    target embedding, the target gated by the previous and candidate
    contexts, then the macro and micro interest vectors gated by each
    context.
    """
    return _forward(targets, h_macro, h_micro, h_prev, h_cand, params)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; rows sum to one."""
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    return ex / ex.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of binary labels under a row softmax, and its logit gradient."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValidationError("labels must align with logit rows")
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), labels] = 1.0
    probs = softmax(logits)
    picked = np.log(probs) * onehot
    scale = -1.0 / n
    g_probs = np.full_like(picked, scale) * onehot / probs
    inner = (g_probs * probs).sum(axis=1, keepdims=True)
    return float(picked.sum() * scale), probs * (g_probs - inner)


def backward(targets, h_macro, h_micro, h_prev, h_cand, params, labels) -> tuple[float, tuple[np.ndarray, ...]]:
    """One minibatch's mean cross-entropy loss and its eight parameter gradients.

    The inputs are those of `score_logits` plus one 0/1 label per target
    row; the gradients come in `ScorerParams` field order.
    """
    logits, back = _forward(targets, h_macro, h_micro, h_prev, h_cand, params)
    loss, g_logits = cross_entropy(logits, labels)
    return loss, back(g_logits)
