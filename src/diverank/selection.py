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
run costs O(K^2 N) after the kernel is built.  After every pick the
scores are re-read from a scorer whose one input is h_prev, the running
mean of the picked embeddings.  Candidates whose d_i^2 falls to the
numerical floor are excluded; if nothing remains the short list is
returned and flagged.

Baselines with the same call shape: a frozen-score greedy DPP and maximal
marginal relevance.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .accuracy import ScorerParams, list_state, score_batch
from .data import CandidateSet, ExperimentConfig, NumericalError, RerankResult, ValidationError
from .interests import InterestProfile
from .kernels import KernelMatrix, normalize_rows

# A scorer maps h_prev, the mean embedding of the items selected so far
# (zeros before the first pick), to one score per candidate.
Scorer = Callable[[np.ndarray], np.ndarray]


def constant_scorer(scores: np.ndarray) -> Scorer:
    """Context-insensitive scorer that serves a frozen score vector."""
    frozen = np.asarray(scores, dtype=np.float64).copy()
    return lambda h_prev: frozen


def profile_scorer(
    candidates: CandidateSet, profile: InterestProfile, params: ScorerParams
) -> Scorer:
    """Context-aware scorer backed by the trained accuracy model; the terms
    fixed for the list, the candidate mean among them, are built once, here,
    and shared by every call."""
    embs = candidates.embeddings
    state = list_state(embs, profile, embs.mean(axis=0), params)
    return lambda h_prev: score_batch(embs, h_prev, params, state)


def bs_dpp_select(
    candidates: CandidateSet,
    kernel: KernelMatrix,
    scorer: Scorer,
    cfg: ExperimentConfig,
) -> tuple[RerankResult, float]:
    """Greedy joint accuracy-diversity selection of up to cfg.k items, and
    its d^2 floor: the smallest d_i^2 of any candidate not yet picked,
    before clamping, over every step.

    The scorer is re-evaluated after every pick with h_prev, the mean
    embedding of the items picked so far.  The first pick maximizes the joint objective
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
    d2 = np.diag(d_matrix).astype(np.float64)
    cis = np.zeros((k, n))
    min_d2 = float(d2.min())

    selected: list[int] = []
    unselected = np.ones(n, dtype=bool)
    picks: list[tuple[float, float, float]] = []  # (score, log_d2, marginal) per pick
    objective = 0.0
    exhausted = False

    h_prev = np.zeros(embs.shape[1])
    scores = np.asarray(scorer(h_prev), dtype=np.float64)
    if scores.shape != (n,):
        raise ValidationError("scorer must return one score per candidate")

    eligible = d2 > epsilon
    if not eligible.any():
        raise NumericalError(
            "no candidate has d^2 above epsilon at initialization; "
            "the kernel is numerically singular (try a larger jitter)"
        )

    # Only eligible joint values must stay finite, which each step checks.
    with np.errstate(over="ignore"):
        while len(selected) < k:
            # Finite floor keeps alpha * log_d2 NaN-free at excluded entries;
            # eligibility masking governs exclusion, not the log value.
            log_d2 = np.log(np.maximum(d2, 1e-300))
            joint = scores + alpha * log_d2
            if not np.isfinite(joint[eligible]).all():  # faster than .all(where=eligible)
                raise NumericalError(f"score + alpha * log d^2 overflows at alpha={alpha:g}; lower alpha")
            values = log_d2 if not selected and cfg.diversity_only_init else joint
            # Some entry is eligible, so its finite value wins; ties go to the lowest index.
            j = int(np.where(eligible, values, -np.inf).argmax())
            marginal = float(joint[j])
            picks.append((float(scores[j]), float(log_d2[j]), marginal))
            objective += marginal
            t = len(selected)
            selected.append(j)
            unselected[j] = False
            if len(selected) == k:
                break

            # Rank-one Cholesky extension relative to the newly chosen j.
            d_j = np.sqrt(d2[j])
            e = (d_matrix[j, :] - cis[:t, j] @ cis[:t, :]) / d_j
            cis[t, :] = e
            d2 = d2 - np.square(e)
            # Fewer than k <= n items are selected, so some entry is left.
            min_d2 = min(min_d2, float(d2[unselected].min()))
            d2 = np.maximum(d2, 0.0)

            eligible = (d2 > epsilon) & unselected
            if not eligible.any():
                exhausted = True
                break
            h_prev = (h_prev * t + embs[j]) / (t + 1)
            scores = np.asarray(scorer(h_prev), dtype=np.float64)

    if not np.isfinite(objective):
        raise NumericalError(f"objective sum overflows at alpha={alpha:g}; lower alpha")
    item_ids = tuple(candidates.ids[j] for j in selected)
    return RerankResult(candidates.user_id, item_ids, *zip(*picks), objective, exhausted), min_d2


def fixed_score_dpp_select(
    candidates: CandidateSet, kernel: KernelMatrix, cfg: ExperimentConfig
) -> RerankResult:
    """Greedy DPP with the scorer frozen to the base scores.

    Identical machinery to bs_dpp_select; only the score source differs,
    so it doubles as the fast-greedy comparator baseline.  Returns the
    result alone: its one caller, `sweep`, reads no d^2 floor.
    """
    return bs_dpp_select(candidates, kernel, constant_scorer(candidates.base_scores), cfg)[0]


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
    all_rows = slice(None)  # a basic index: sim's rows stay a view
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
            max_sim = np.maximum(max_sim, sim(all_rows, j))
    return [candidates.ids[j] for j in order]


def cosine_similarity_fn(embeddings: np.ndarray) -> Callable[[np.ndarray, int], np.ndarray]:
    """Cosine similarity of candidate rows `i` (any numpy index) to row j, for MMR."""
    unit = normalize_rows(embeddings)

    def sim(i, j: int):
        return unit[i] @ unit[j]

    return sim
