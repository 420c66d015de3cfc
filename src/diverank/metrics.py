"""Ranking and classification metrics used across evaluation and sweeps.

All functions are pure numpy and operate on plain arrays.
"""

from __future__ import annotations

import functools

import numpy as np

from .data import ValidationError
from .kernels import normalize_rows


def _check_k(k: int) -> None:
    if k < 1:
        raise ValidationError("k must be >= 1")


def dcg_at_k(relevances, k: int) -> float:
    """Discounted cumulative gain with gain 2^rel - 1, discount log2(pos + 1)."""
    _check_k(k)
    rel = np.asarray(relevances, dtype=np.float64)[:k]
    if rel.size == 0:
        return 0.0
    positions = np.arange(1, rel.size + 1, dtype=np.float64)
    return float(np.sum((np.exp2(rel) - 1.0) / np.log2(positions + 1.0)))


def ndcg_at_k(relevances, k: int, ideal_relevances=None) -> float:
    """Normalized DCG; 0.0 when no relevant item exists.

    By default the ideal ordering is the list's own relevances sorted
    descending.  Pass `ideal_relevances` (the ground-truth relevance
    pool) to normalize against the best ranking achievable from the full
    candidate universe instead of just the surfaced list.
    """
    _check_k(k)
    rel = np.asarray(relevances, dtype=np.float64)
    pool = rel if ideal_relevances is None else np.asarray(ideal_relevances, dtype=np.float64)
    ideal = np.sort(pool)[::-1]
    denom = dcg_at_k(ideal, k)
    if denom == 0.0:
        return 0.0
    return dcg_at_k(rel, k) / denom


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


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, k=1)`, built once per list length and read-only."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def ilad(embeddings) -> float:
    """Intra-list average distance: mean pairwise (1 - cosine similarity).

    Needs at least two items; zero-norm embeddings are rejected because
    cosine similarity is undefined for them.
    """
    embs = np.asarray(embeddings, dtype=np.float64)
    if embs.ndim != 2 or embs.shape[0] < 2:
        raise ValidationError("ilad needs at least two embeddings")
    unit = normalize_rows(embs)
    if not unit.any(axis=1).all():  # only an all-zero row stays zero
        raise ValidationError("ilad is undefined for zero-norm embeddings")
    cosine = unit @ unit.T
    return float(np.mean(1.0 - cosine[_upper_pairs(embs.shape[0])]))
