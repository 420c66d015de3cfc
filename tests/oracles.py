"""Reference implementations that only the tests call.

Each is slow or narrow by design: exhaustive subset search for the
greedy selector, the greedy loop and scorer as they were before the
scorer's list-invariant terms were hoisted, a full check of a built kernel
matrix, a clamped binary log-loss for the metric goldens, and central
finite differences for every analytic gradient.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from diverank.accuracy import ContextState, ScorerParams, initial_context, update_context
from diverank.data import (
    CandidateSet,
    ExperimentConfig,
    NumericalError,
    RerankResult,
    SelectionStep,
    ValidationError,
)
from diverank.interests import InterestProfile
from diverank.kernels import KernelMatrix
from diverank.selection import Scorer, SelectionTrace, StepTrace, subset_objective

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


def reference_scores(
    targets: np.ndarray, profile: InterestProfile, ctx: ContextState, params: ScorerParams
) -> np.ndarray:
    """The scorer's forward folded into one matmul per call, every gate
    rebuilt from `ctx`: what `score_batch` computed before its list state."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    d = targets.shape[1]
    w1, w2, b2 = params.mlp_w1, params.mlp_w2, params.mlp_b2[0]

    def sigmoid(x):
        return np.exp(-np.logaddexp(0.0, -x))

    g_prev = sigmoid(np.maximum(ctx.h_prev @ params.w1_prev, 0.0) @ params.w2_prev)
    g_cand = sigmoid(np.maximum(ctx.h_cand @ params.w1_cand, 0.0) @ params.w2_cand)
    weight = w1[:d] + g_prev[:, None] * w1[d : 2 * d] + g_cand[:, None] * w1[2 * d : 3 * d]
    macro, micro = profile.h_macro, profile.h_micro
    gated = np.concatenate([macro * g_prev, micro * g_prev, macro * g_cand, micro * g_cand])
    row = gated @ w1[3 * d :] + params.mlp_b1[0]
    gap = np.maximum(targets @ weight + row, 0.0) @ (w2[:, 1] - w2[:, 0]) + (b2[1] - b2[0])
    return sigmoid(gap)


def reference_greedy(
    candidates: CandidateSet, kernel: KernelMatrix, scorer: Scorer, cfg: ExperimentConfig
) -> tuple[RerankResult, SelectionTrace]:
    """The greedy loop of `bs_dpp_select` as it was before it was trimmed:
    a warning scope and a copied finiteness check per step, copied trace
    arrays, and an argmax that re-checks eligibility."""
    n = candidates.size
    alpha, epsilon, k = float(cfg.alpha), float(cfg.epsilon), min(cfg.k, n)
    d_matrix = kernel.values
    embs = candidates.embeddings
    d2 = np.diag(d_matrix).astype(np.float64).copy()
    cis = np.zeros((k, n))
    trace = SelectionTrace()
    trace.min_d2_before_clamp = float(d2.min())
    selected: list[int] = []
    selected_mask = np.zeros(n, dtype=bool)
    steps: list[SelectionStep] = []
    objective = 0.0
    exhausted = False
    ctx = initial_context(embs)
    scores = np.asarray(scorer(ctx), dtype=np.float64)
    eligible = (d2 > epsilon) & ~selected_mask
    if not eligible.any():
        raise NumericalError("no candidate has d^2 above epsilon at initialization")
    while len(selected) < k:
        log_d2 = np.log(np.maximum(d2, 1e-300))
        with np.errstate(over="ignore"):
            joint = scores + alpha * log_d2
        if not np.isfinite(joint[eligible]).all():
            raise NumericalError(f"score + alpha * log d^2 overflows at alpha={alpha:g}; lower alpha")
        values = log_d2 if not selected and cfg.diversity_only_init else joint
        j = int(np.argmax(np.where(eligible, values, -np.inf)))
        if not eligible[j]:
            raise NumericalError("argmax over an empty eligible set")
        trace.steps.append(StepTrace(j, tuple(selected), d2.copy(), scores.copy(), eligible.copy()))
        marginal = joint[j]
        steps.append(SelectionStep(candidates.ids[j], float(scores[j]), float(log_d2[j]), float(marginal)))
        objective += float(marginal)
        t = len(selected)
        selected.append(j)
        selected_mask[j] = True
        if len(selected) == k:
            break
        d_j = np.sqrt(d2[j])
        e = (d_matrix[j, :] - cis[:t, j] @ cis[:t, :]) / d_j
        cis[t, :] = e
        d2 = d2 - np.square(e)
        pre_clamp_min = float(d2[~selected_mask].min()) if (~selected_mask).any() else 0.0
        trace.min_d2_before_clamp = min(trace.min_d2_before_clamp, pre_clamp_min)
        d2 = np.maximum(d2, 0.0)
        eligible = (d2 > epsilon) & ~selected_mask
        if not eligible.any():
            exhausted = True
            break
        ctx = update_context(ctx, embs[j])
        scores = np.asarray(scorer(ctx), dtype=np.float64)
    result = RerankResult(
        user_id=candidates.user_id,
        item_ids=tuple(candidates.ids[j] for j in selected),
        steps=tuple(steps),
        objective=objective,
        exhausted=exhausted,
    )
    return result, trace


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
