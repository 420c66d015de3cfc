"""Greedy sequential selection under a joint accuracy-diversity objective.

The target is h(u, S) = sum of context-aware scores of the selected
items plus alpha * log det of the kernel submatrix they index.  Greedy
maximization picks, at each step, the candidate maximizing
score + alpha * log(d_i^2), where d_i^2 is the candidate's conditional
determinant ratio maintained by incremental Cholesky-style updates:

    e_i = (D[j, i] - <c_j, c_i>) / d_j       after selecting j
    c_i <- [c_i, e_i]                        one extra coordinate
    d_i^2 <- d_i^2 - e_i^2                   clamped at zero

so det(D_{S + i}) = det(D_S) * d_i^2 holds at every step and the whole
run costs O(K^2 N) after the kernel is built.  Candidates whose d_i^2
falls to the numerical floor are excluded; if nothing remains the short
list is returned and flagged.

Baselines with the same call shape: a frozen-score greedy DPP, maximal
marginal relevance, and an exhaustive optimum for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .accuracy import ContextState, ScorerParams, initial_context, score_batch, update_context
from .data import CandidateSet, ExperimentConfig, NumericalError, RerankResult, SelectionStep, ValidationError
from .interests import InterestProfile
from .kernels import KernelMatrix, normalize_rows

# A scorer maps the selection context to one score per candidate.
Scorer = Callable[[ContextState], np.ndarray]


def constant_scorer(scores: np.ndarray) -> Scorer:
    """Context-insensitive scorer that serves a frozen score vector."""
    frozen = np.asarray(scores, dtype=np.float64).copy()
    return lambda ctx: frozen


def profile_scorer(
    candidates: CandidateSet, profile: InterestProfile, params: ScorerParams
) -> Scorer:
    """Context-aware scorer backed by the trained accuracy model."""
    return lambda ctx: score_batch(candidates.embeddings, profile, ctx, params)


@dataclass
class StepTrace:
    """Numerical snapshot of one greedy step, for audit and testing."""

    chosen: int
    selected_before: tuple[int, ...]
    d2: np.ndarray
    scores: np.ndarray
    eligible: np.ndarray


@dataclass
class SelectionTrace:
    steps: list[StepTrace] = field(default_factory=list)
    min_d2_before_clamp: float = np.inf


def _argmax_lowest(values: np.ndarray, eligible: np.ndarray) -> int:
    masked = np.where(eligible, values, -np.inf)
    best = int(np.argmax(masked))  # first occurrence = lowest index on ties
    if not eligible[best]:
        raise NumericalError("argmax over an empty eligible set")
    return best


def bs_dpp_select(
    candidates: CandidateSet,
    kernel: KernelMatrix,
    scorer: Scorer,
    cfg: ExperimentConfig,
    collect_trace: bool = False,
) -> RerankResult | tuple[RerankResult, SelectionTrace]:
    """Greedy joint accuracy-diversity selection of up to cfg.k items.

    The scorer is re-evaluated after every pick with the updated
    selection context.  The first pick maximizes the joint objective
    unless cfg.diversity_only_init is set, in which case it maximizes
    log(d_i^2) alone.  Ties break to the lowest candidate index.
    """
    n = candidates.size
    if candidates.ids != kernel.ids:
        raise ValidationError("kernel ids must match candidate order")
    alpha = float(cfg.alpha)
    epsilon = float(cfg.epsilon)
    k = min(cfg.k, n)

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
    if scores.shape != (n,):
        raise ValidationError("scorer must return one score per candidate")

    eligible = (d2 > epsilon) & ~selected_mask
    if not eligible.any():
        raise NumericalError(
            "no candidate has d^2 above epsilon at initialization; "
            "the kernel is numerically singular (try a larger jitter)"
        )

    while len(selected) < k:
        # Finite floor keeps alpha * log_d2 NaN-free at excluded entries;
        # eligibility masking governs exclusion, not the log value.
        log_d2 = np.log(np.maximum(d2, 1e-300))
        with np.errstate(over="ignore"):  # only eligible entries must stay finite
            joint = scores + alpha * log_d2
        if not np.isfinite(joint[eligible]).all():
            raise NumericalError(f"score + alpha * log d^2 overflows at alpha={alpha:g}; lower alpha")
        values = log_d2 if not selected and cfg.diversity_only_init else joint
        j = _argmax_lowest(values, eligible)
        if collect_trace:
            trace.steps.append(
                StepTrace(
                    chosen=j,
                    selected_before=tuple(selected),
                    d2=d2.copy(),
                    scores=scores.copy(),
                    eligible=eligible.copy(),
                )
            )
        marginal = joint[j]
        steps.append(
            SelectionStep(
                item_id=candidates.ids[j],
                score=float(scores[j]),
                log_d2=float(log_d2[j]),
                marginal=float(marginal),
            )
        )
        objective += float(marginal)
        t = len(selected)
        selected.append(j)
        selected_mask[j] = True
        if len(selected) == k:
            break

        # Rank-one Cholesky extension relative to the newly chosen j.
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

    if not np.isfinite(objective):
        raise NumericalError(f"objective sum overflows at alpha={alpha:g}; lower alpha")
    result = RerankResult(
        user_id=candidates.user_id,
        item_ids=tuple(candidates.ids[j] for j in selected),
        steps=tuple(steps),
        objective=objective,
        exhausted=exhausted,
    )
    if collect_trace:
        return result, trace
    return result


def fixed_score_dpp_select(
    candidates: CandidateSet, kernel: KernelMatrix, cfg: ExperimentConfig
) -> RerankResult:
    """Greedy DPP with the scorer frozen to the base scores.

    Identical machinery to bs_dpp_select; only the score source differs,
    so it doubles as the fast-greedy comparator baseline.
    """
    return bs_dpp_select(candidates, kernel, constant_scorer(candidates.base_scores), cfg)


def subset_objective(
    d_matrix: np.ndarray, scores: np.ndarray, idx: Sequence[int], alpha: float
) -> float:
    """h of one subset: its score sum plus alpha * log det of its kernel
    submatrix, -inf when that submatrix is singular."""
    value = float(scores[idx].sum())
    if alpha != 0.0:
        sign, logdet = np.linalg.slogdet(d_matrix[np.ix_(idx, idx)])
        value += alpha * logdet if sign > 0 else -np.inf
    return value


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


def mmr_select(
    candidates: CandidateSet,
    sim: Callable[[np.ndarray, int], np.ndarray],
    lam: float,
    k: int,
) -> list[str]:
    """Maximal marginal relevance re-ranking.

    Step value: lam * base_score - (1 - lam) * max similarity to the
    already-selected items (zero for the first pick).  Ties break to the
    lowest candidate index.  `sim(rows, j)` returns the similarity of each
    row in `rows` to candidate j, as `cosine_similarity_fn` does.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValidationError("lambda must lie in [0, 1]")
    if k < 1:
        raise ValidationError("k must be >= 1")
    n = candidates.size
    k = min(k, n)
    scores = candidates.base_scores
    # -inf floor: the max over selected similarities may be negative, and
    # a zero floor would erase that boost for anti-correlated candidates.
    max_sim = np.full(n, -np.inf)
    all_indices = np.arange(n)
    selected_mask = np.zeros(n, dtype=bool)
    order: list[int] = []
    for step in range(k):
        if step == 0:
            values = lam * scores
        else:
            values = lam * scores - (1.0 - lam) * max_sim
        values = np.where(selected_mask, -np.inf, values)
        j = int(np.argmax(values))
        order.append(j)
        selected_mask[j] = True
        if step + 1 < k:
            max_sim = np.maximum(max_sim, sim(all_indices, j))
    return [candidates.ids[j] for j in order]


def cosine_similarity_fn(embeddings: np.ndarray) -> Callable[[np.ndarray, int], np.ndarray]:
    """Cosine similarity of candidate rows `i` (an index or index array) to row j, for MMR."""
    unit = normalize_rows(embeddings)

    def sim(i, j: int):
        return unit[i] @ unit[j]

    return sim
