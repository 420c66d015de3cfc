"""Ranking and classification metrics used across evaluation and sweeps.

All functions are pure numpy and operate on plain arrays.  `dcg_at_k` and
`ndcg_at_k` read a list along the last axis, `ilad` along the last two
`(..., L, d)`: a stack of equal-length lists is one call, each list keeps the
bits it gets alone, and a single list gives a `float`.
"""

from __future__ import annotations

import numpy as np

from .data import ValidationError
from .kernels import normalize_rows


def _float_if_single(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.ndim == 0 else values


def dcg_at_k(relevances, k: int) -> float | np.ndarray:
    """Discounted cumulative gain with gain 2^rel - 1, discount log2(pos + 1)."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    rel = np.asarray(relevances, dtype=np.float64)[..., :k]
    positions = np.arange(1, rel.shape[-1] + 1, dtype=np.float64)
    return _float_if_single(np.sum((np.exp2(rel) - 1.0) / np.log2(positions + 1.0), axis=-1))


def ndcg_at_k(relevances, k: int, ideal_relevances=None) -> float | np.ndarray:
    """Normalized DCG; 0.0 when no relevant item exists.

    By default the ideal ordering is the list's own relevances sorted
    descending.  Pass `ideal_relevances` (the ground-truth relevance
    pool) to normalize against the best ranking achievable from the full
    candidate universe instead of just the surfaced list.  A stack of
    (m, L) lists takes (m, P) pools, or one (P,) pool that all share.
    """
    rel = np.asarray(relevances, dtype=np.float64)
    pool = rel if ideal_relevances is None else np.asarray(ideal_relevances, dtype=np.float64)
    gain, best = dcg_at_k(rel, k), dcg_at_k(np.flip(np.sort(pool, axis=-1), axis=-1), k)
    ndcg = np.divide(gain, best, out=np.zeros(np.broadcast(gain, best).shape), where=np.not_equal(best, 0.0))
    return _float_if_single(ndcg)


def auc(labels, scores) -> float:
    """Area under the ROC curve via the rank statistic; ties count half.

    Raises when only one class is present, where AUC is undefined.
    """
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValidationError("labels and scores must be equal-length vectors")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValidationError("labels must be binary")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC needs both classes present")
    order = np.argsort(scores, kind="stable")
    # A run of tied scores fills sorted positions first .. last and shares
    # their average 1-based rank.
    _, first, counts = np.unique(
        scores[order], return_index=True, return_counts=True, equal_nan=False
    )
    last = first + counts - 1
    ranks = np.empty(labels.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, counts)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def ilad(embeddings) -> float | np.ndarray:
    """Intra-list average distance: mean pairwise (1 - cosine similarity).

    Needs at least two items; zero-norm embeddings are rejected because
    cosine similarity is undefined for them, and the error's `row` is the
    flat index of the first list holding one.
    """
    embs = np.asarray(embeddings, dtype=np.float64)
    if embs.ndim < 2 or embs.shape[-2] < 2:
        raise ValidationError("ilad needs at least two embeddings")
    unit = normalize_rows(embs)
    zero = ~unit.any(axis=-1).all(axis=-1)  # only an all-zero row stays zero
    if zero.any():
        raise ValidationError("ilad is undefined for zero-norm embeddings", row=int(np.argmax(zero)))
    cosine = unit @ np.swapaxes(unit, -1, -2)
    rows, cols = np.triu_indices(embs.shape[-2], k=1)
    # A C-contiguous copy, so that each list's mean sums its pairs in the order a single list does.
    distances = np.ascontiguousarray(1.0 - cosine[..., rows, cols])
    return _float_if_single(distances.mean(axis=-1))
