"""Reference implementations that only the tests call.

Each is slow or narrow by design: exhaustive subset search for the
greedy selector, a full check of a built kernel matrix, a clamped binary
log-loss for the metric goldens, and central finite differences for every
analytic gradient.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from diverank.data import ValidationError
from diverank.kernels import KernelMatrix
from diverank.selection import subset_objective

FD_STEP = 1e-5


def exhaustive_map(
    kernel: KernelMatrix,
    scores: np.ndarray,
    alpha: float,
    k: int,
    max_n: int = 16,
) -> tuple[tuple[int, ...], float]:
    """Exact argmax of h over all size-k subsets, for small instances only.

    Subsets are scanned in lexicographic index order and only a strictly
    greater objective replaces the incumbent, so ties resolve to the
    lexicographically smallest subset.  A singular submatrix scores
    -inf.  Guarded to n <= max_n candidates.
    """
    n = kernel.size
    if n > max_n:
        raise ValidationError(f"exhaustive search is guarded to n <= {max_n}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (n,):
        raise ValidationError("scores must align with the kernel")
    if not 1 <= k <= n:
        raise ValidationError("k must lie in [1, n]")
    d_matrix = kernel.values
    best_subset: tuple[int, ...] | None = None
    best_value = -np.inf
    for subset in combinations(range(n), k):
        value = subset_objective(d_matrix, scores, np.asarray(subset), alpha)
        if value > best_value:
            best_value = value
            best_subset = subset
    assert best_subset is not None
    return best_subset, best_value


def assert_valid_kernel(values) -> None:
    """Every entry finite and the matrix exactly symmetric: the O(n^2) check
    that `composite_matrix` leaves to its diagonal and its mirror copies."""
    values = np.asarray(values)
    assert values.ndim == 2 and values.shape[0] == values.shape[1], values.shape
    assert np.isfinite(values).all(), "kernel matrix contains non-finite entries"
    assert np.array_equal(values, values.T), "kernel matrix is not exactly symmetric"


def logloss(labels, probabilities) -> float:
    """Mean binary cross-entropy; probabilities clamped to [1e-15, 1 - 1e-15]."""
    labels = np.asarray(labels, dtype=np.float64)
    probs = np.asarray(probabilities, dtype=np.float64)
    if labels.shape != probs.shape or labels.ndim != 1 or labels.size == 0:
        raise ValidationError("labels and probabilities must be equal-length vectors")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValidationError("labels must be binary")
    clamped = np.clip(probs, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped)))


def finite_difference(loss_fn: Callable[[], float], arrays: Iterable[np.ndarray]) -> list[np.ndarray]:
    """Central-difference gradients of loss_fn() w.r.t. each array, perturbed in place.

    grad ~ (f(p + h) - f(p - h)) / 2h per entry, with h = FD_STEP; every
    entry is restored before the next one is perturbed.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        grad_flat = grad.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + FD_STEP
            hi = loss_fn()
            flat[idx] = keep - FD_STEP
            lo = loss_fn()
            flat[idx] = keep
            grad_flat[idx] = (hi - lo) / (2.0 * FD_STEP)
        grads.append(grad)
    return grads
