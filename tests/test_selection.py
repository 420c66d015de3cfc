"""Greedy selection tests.

Determinant oracles use naive dense determinants (np.linalg.det /
slogdet on explicitly indexed submatrices); the MMR oracle is a
step-by-step reimplementation with plain loops.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from diverank.data import (
    CandidateSet,
    ExperimentConfig,
    NumericalError,
    ValidationError,
)
from diverank.kernels import KernelMatrix
from diverank.selection import (
    bs_dpp_select,
    constant_scorer,
    cosine_similarity_fn,
    fixed_score_dpp_select,
    mmr_select,
    profile_scorer,
)
from oracles import exhaustive_map, reference_greedy, reference_scores


def make_candidates(scores, dim=2, embs=None):
    n = len(scores)
    if embs is None:
        rng = np.random.default_rng(99)
        embs = rng.normal(size=(n, dim))
    ids = tuple(f"i{k + 1}" for k in range(n))
    return CandidateSet("u1", ids, embs, scores)


def kernel_of(matrix):
    matrix = np.asarray(matrix, dtype=float)
    ids = tuple(f"i{k + 1}" for k in range(matrix.shape[0]))
    return KernelMatrix(ids=ids, values=matrix)


def random_psd_kernel(rng, n, strength=0.5):
    """Unit-diagonal PSD matrix blended toward identity for conditioning."""
    raw = rng.normal(size=(n, n + 2))
    gram = raw @ raw.T
    d = np.sqrt(np.diag(gram))
    corr = gram / np.outer(d, d)
    vals = (1.0 - strength) * np.eye(n) + strength * corr
    return kernel_of(0.5 * (vals + vals.T))


class TestGreedyBasics:
    def test_identity_kernel_pure_score_order(self):
        cands = make_candidates([0.9, 0.5, 0.1])
        kernel = kernel_of(np.eye(3))
        for alpha in (0.0, 0.7, 3.0):
            cfg = ExperimentConfig(alpha=alpha, k=3)
            result = bs_dpp_select(cands, kernel, constant_scorer(cands.base_scores), cfg)
            assert result.item_ids == ("i1", "i2", "i3")

    def test_duplicate_suppression_fixture(self):
        # Items 1 and 2 are exact duplicates in the kernel; after picking
        # item 1 the duplicate's conditional variance collapses to zero.
        kernel = kernel_of([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        scores = np.array([0.9, 0.9, 0.5])
        cands = make_candidates(scores)
        cfg = ExperimentConfig(alpha=1.0, k=2)
        result = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg)
        assert set(result.item_ids) == {"i1", "i3"}
        assert result.objective == pytest.approx(1.4)

    def test_duplicate_fixture_matches_exhaustive_oracle(self):
        kernel = kernel_of([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        scores = np.array([0.9, 0.9, 0.5])
        subset, value = exhaustive_map(kernel, scores, alpha=1.0, k=2)
        assert subset == (0, 2)
        assert value == pytest.approx(1.4)
        # The duplicate pair is singular: direct determinant audit.
        assert np.linalg.det(kernel.values[np.ix_([0, 1], [0, 1])]) == pytest.approx(0.0)

    def test_first_cholesky_update_values(self):
        # After picking j with D_jj = 1, a candidate with D_ji = 0.5 must
        # carry e = 0.5 and d^2 = 0.75 = det [[1, .5], [.5, 1]].
        kernel = kernel_of([[1.0, 0.5], [0.5, 1.0]])
        cands = make_candidates([0.9, 0.1])
        cfg = ExperimentConfig(alpha=0.0, k=2)
        _, trace = bs_dpp_select(
            cands, kernel, constant_scorer(cands.base_scores), cfg, collect_trace=True
        )
        second = trace.steps[1]
        assert second.selected_before == (0,)
        assert second.d2[1] == pytest.approx(0.75)
        assert np.linalg.det(kernel.values) == pytest.approx(0.75)

    def test_tie_breaks_to_lowest_index(self):
        kernel = kernel_of(np.eye(4))
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        cands = make_candidates(scores)
        cfg = ExperimentConfig(alpha=1.0, k=4)
        result = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg)
        assert result.item_ids == ("i1", "i2", "i3", "i4")

    def test_alpha_zero_exact_base_score_order(self, rng):
        scores = rng.random(10)
        cands = make_candidates(scores, dim=3)
        kernel = random_psd_kernel(rng, 10)
        cfg = ExperimentConfig(alpha=0.0, k=10)
        result = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg)
        expected = [f"i{j + 1}" for j in np.argsort(-scores, kind="stable")]
        assert list(result.item_ids) == expected

    def test_k_larger_than_n_truncates(self, rng):
        cands = make_candidates([0.3, 0.6])
        kernel = kernel_of(np.eye(2))
        cfg = ExperimentConfig(alpha=0.5, k=9)
        result = bs_dpp_select(cands, kernel, constant_scorer(cands.base_scores), cfg)
        assert len(result.item_ids) == 2

    def test_kernel_id_mismatch_rejected(self, rng):
        cands = make_candidates([0.5, 0.5])
        kernel = KernelMatrix(ids=("x", "y"), values=np.eye(2))
        with pytest.raises(ValidationError):
            bs_dpp_select(cands, kernel, constant_scorer(cands.base_scores), ExperimentConfig())


class TestNumericalBehavior:
    def test_monotone_exclusion_of_collapsed_candidates(self, rng):
        # Three copies of the same direction: only one survives; with k=3
        # the run exhausts after the two distinct directions.
        base = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        kernel = kernel_of(base)
        scores = np.array([0.9, 0.8, 0.1])
        cands = make_candidates(scores)
        cfg = ExperimentConfig(alpha=1.0, k=3)
        result = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg)
        assert result.item_ids == ("i1", "i3")
        assert result.exhausted

    def test_singular_at_init_raises(self):
        kernel = kernel_of(np.zeros((2, 2)))
        cands = make_candidates([0.5, 0.5])
        cfg = ExperimentConfig(alpha=1.0, k=2)
        with pytest.raises(NumericalError):
            bs_dpp_select(cands, kernel, constant_scorer(cands.base_scores), cfg)

    @pytest.mark.filterwarnings("error")  # numpy may not print an overflow warning
    @pytest.mark.parametrize(
        "alpha, fragment",
        [
            (1e308, "score + alpha * log d^2 overflows"),  # one step's value
            # Each of three picks adds 0.9e308, finite alone; their sum is not.
            (0.9e308 / math.log(10.0), "objective sum overflows"),
        ],
    )
    def test_non_finite_joint_value_raises(self, alpha, fragment):
        kernel = kernel_of(10.0 * np.eye(3))  # every log d^2 is log 10
        cands = make_candidates([0.0, 0.0, 0.0])
        cfg = ExperimentConfig(alpha=alpha, k=3)
        with pytest.raises(NumericalError, match=re.escape(fragment)):
            bs_dpp_select(cands, kernel, constant_scorer(cands.base_scores), cfg)

    def test_d2_tracks_naive_determinant_ratio(self, rng):
        # d_i^2 produced by the incremental recursion equals
        # det(D_{S + i}) / det(D_S) from naive determinants, every step.
        n, k = 10, 6
        kernel = random_psd_kernel(rng, n)
        scores = rng.random(n)
        cands = make_candidates(scores, dim=3)
        cfg = ExperimentConfig(alpha=0.8, k=k)
        _, trace = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg, collect_trace=True)
        d = kernel.values
        for step in trace.steps:
            s = list(step.selected_before)
            _, logdet_s = np.linalg.slogdet(d[np.ix_(s, s)]) if s else (1.0, 0.0)
            for i in range(n):
                if not step.eligible[i] or i in s:
                    continue
                si = s + [i]
                sign, logdet_si = np.linalg.slogdet(d[np.ix_(si, si)])
                assert sign > 0
                assert math.log(step.d2[i]) == pytest.approx(
                    logdet_si - logdet_s, abs=1e-8
                )

    def test_trace_min_d2_nonnegative_for_psd(self, rng):
        kernel = random_psd_kernel(rng, 8)
        scores = rng.random(8)
        cands = make_candidates(scores, dim=3)
        cfg = ExperimentConfig(alpha=1.0, k=8)
        _, trace = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg, collect_trace=True)
        assert trace.min_d2_before_clamp >= -1e-8


class TestEquivalences:
    def test_fixed_score_equals_constant_scorer_route(self, rng):
        scores = rng.random(8)
        cands = make_candidates(scores, dim=3)
        kernel = random_psd_kernel(rng, 8)
        cfg = ExperimentConfig(alpha=1.2, k=5)
        a = fixed_score_dpp_select(cands, kernel, cfg)
        b = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg)
        assert a.item_ids == b.item_ids
        assert a.objective == pytest.approx(b.objective)

    def test_identity_kernel_any_alpha_is_top_k(self, rng):
        scores = rng.random(7)
        cands = make_candidates(scores, dim=3)
        kernel = kernel_of(np.eye(7))
        cfg = ExperimentConfig(alpha=2.5, k=4)
        result = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg)
        expected = [f"i{j + 1}" for j in np.argsort(-scores, kind="stable")[:4]]
        assert list(result.item_ids) == expected

    def test_diversity_only_init_changes_first_pick(self):
        # Joint seeding takes the best score + diversity blend; the
        # diversity-only switch must seed on log d^2 alone.
        vals = np.array([[2.0, 0.0], [0.0, 1.0]])
        kernel = kernel_of(vals)
        scores = np.array([0.1, 0.9])
        cands = make_candidates(scores)
        joint = bs_dpp_select(
            cands, kernel, constant_scorer(scores), ExperimentConfig(alpha=1.0, k=1)
        )
        assert joint.item_ids == ("i2",)  # 0.9 > 0.1 + log 2
        div = bs_dpp_select(
            cands,
            kernel,
            constant_scorer(scores),
            ExperimentConfig(alpha=1.0, k=1, diversity_only_init=True),
        )
        assert div.item_ids == ("i1",)  # log 2 > log 1

    def test_determinism(self, rng):
        scores = rng.random(9)
        cands = make_candidates(scores, dim=4)
        kernel = random_psd_kernel(rng, 9)
        cfg = ExperimentConfig(alpha=0.9, k=6)
        a = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg)
        b = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg)
        assert a == b


class TestExhaustive:
    def test_k_equals_n_returns_full_set(self, rng):
        kernel = random_psd_kernel(rng, 5)
        scores = rng.random(5)
        subset, value = exhaustive_map(kernel, scores, alpha=1.0, k=5)
        assert subset == (0, 1, 2, 3, 4)
        _, logdet = np.linalg.slogdet(kernel.values)
        assert value == pytest.approx(scores.sum() + logdet)

    def test_alpha_zero_is_top_k_by_score(self, rng):
        kernel = random_psd_kernel(rng, 6)
        scores = np.array([0.1, 0.9, 0.4, 0.8, 0.2, 0.6])
        subset, value = exhaustive_map(kernel, scores, alpha=0.0, k=3)
        assert set(subset) == {1, 3, 5}
        assert value == pytest.approx(0.9 + 0.8 + 0.6)

    def test_alpha_zero_singular_kernel_still_ranks(self):
        kernel = kernel_of([[1.0, 1.0], [1.0, 1.0]])
        subset, value = exhaustive_map(kernel, np.array([0.3, 0.7]), alpha=0.0, k=2)
        assert subset == (0, 1)
        assert value == pytest.approx(1.0)

    def test_guard_on_large_n(self, rng):
        kernel = random_psd_kernel(rng, 17)
        with pytest.raises(ValidationError):
            exhaustive_map(kernel, np.zeros(17), alpha=1.0, k=2)

    def test_greedy_within_oracle_gap(self, rng):
        for trial in range(10):
            local = np.random.default_rng(trial)
            n, k = 10, 4
            kernel = random_psd_kernel(local, n)
            scores = 0.5 + 0.5 * local.random(n)
            cands = make_candidates(scores, dim=3)
            cfg = ExperimentConfig(alpha=0.4, k=k)
            greedy = bs_dpp_select(cands, kernel, constant_scorer(scores), cfg)
            _, optimum = exhaustive_map(kernel, scores, alpha=0.4, k=k)
            assert greedy.objective <= optimum + 1e-9
            assert optimum > 0
            assert greedy.objective >= 0.9 * optimum


class TestMmr:
    def test_lambda_one_pure_score_order(self, rng):
        scores = rng.random(6)
        cands = make_candidates(scores, dim=3)
        sim = cosine_similarity_fn(cands.embeddings)
        order = mmr_select(cands, sim, lam=1.0, k=6)
        expected = [f"i{j + 1}" for j in np.argsort(-scores, kind="stable")]
        assert order == expected

    def test_lambda_zero_avoids_duplicate(self):
        embs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cands = make_candidates([0.9, 0.8, 0.1], embs=embs)
        sim = cosine_similarity_fn(embs)
        order = mmr_select(cands, sim, lam=0.0, k=2)
        # First pick ties at value 0 -> lowest index; second pick must skip
        # the identical i2 (similarity 1) for the orthogonal i3.
        assert order == ["i1", "i3"]

    def test_matches_hand_loop_oracle(self, rng):
        n, k = 8, 5
        embs = rng.normal(size=(n, 4))
        scores = rng.random(n)
        cands = make_candidates(scores, embs=embs)
        sim = cosine_similarity_fn(embs)
        lam = 0.6
        got = mmr_select(cands, sim, lam=lam, k=k)

        chosen = []
        remaining = list(range(n))
        for step in range(k):
            best, best_val = None, -np.inf
            for i in remaining:
                penalty = max((sim(i, j) for j in chosen), default=0.0)
                val = lam * scores[i] - (1 - lam) * penalty if chosen else lam * scores[i]
                if val > best_val:
                    best, best_val = i, val
            chosen.append(best)
            remaining.remove(best)
        assert got == [f"i{j + 1}" for j in chosen]

    def test_similarity_rows_are_a_view(self, rng):
        # Each MMR step asks for every row's similarity to the last pick;
        # the rows index must not copy the (n, d) matrix.
        embs = rng.normal(size=(20, 4))
        cands = make_candidates(rng.random(20), embs=embs)
        sim = cosine_similarity_fn(embs)
        seen = []

        def recording_sim(rows, j):
            seen.append(np.shares_memory(embs[rows], embs))
            return sim(rows, j)

        assert mmr_select(cands, recording_sim, lam=0.5, k=6) == mmr_select(cands, sim, lam=0.5, k=6)
        assert seen and all(seen)

    def test_lambda_out_of_range_rejected(self, rng):
        cands = make_candidates([0.5])
        sim = cosine_similarity_fn(cands.embeddings)
        with pytest.raises(ValidationError):
            mmr_select(cands, sim, lam=1.5, k=1)


class TestProfileScorer:
    def test_first_step_scores_match_score_batch(self, rng):
        from diverank.accuracy import init_scorer_params, initial_context, score_batch
        from diverank.interests import InterestProfile

        n, d = 6, 4
        embs = rng.normal(size=(n, d))
        cands = make_candidates(rng.random(n), embs=embs)
        profile = InterestProfile(
            user_id="u1", h_macro=rng.normal(size=d), h_micro=rng.normal(size=d)
        )
        params = init_scorer_params(d, rng)
        scorer = profile_scorer(cands, profile, params)
        ctx = initial_context(embs)
        got = scorer(ctx)
        want = score_batch(embs, profile, ctx, params)
        np.testing.assert_array_equal(got, want)

    def test_context_updates_shift_scores(self, rng):
        # After a pick the previous-context gate changes, so at least one
        # candidate's score should move for a generic random model.
        from diverank.accuracy import init_scorer_params, initial_context, update_context
        from diverank.interests import InterestProfile

        n, d = 6, 4
        embs = rng.normal(size=(n, d))
        cands = make_candidates(rng.random(n), embs=embs)
        profile = InterestProfile(
            user_id="u1", h_macro=rng.normal(size=d), h_micro=rng.normal(size=d)
        )
        params = init_scorer_params(d, rng)
        scorer = profile_scorer(cands, profile, params)
        ctx0 = initial_context(embs)
        ctx1 = update_context(ctx0, embs[0])
        before = scorer(ctx0)
        after = scorer(ctx1)
        assert not np.allclose(before, after)

    @pytest.mark.parametrize(
        "n, d, hidden, w2_scale",
        [
            (100, 16, None, 1.0),  # the pipeline benchmark shape
            (500, 64, 256, 1.0),  # the criterion 7 shape
            (12, 3, None, 1.0),  # d < reduction: gate bottleneck of 1
            (40, 8, None, 1e3),  # saturated logit gaps
        ],
        ids=["n100-d16", "n500-d64", "bottleneck1", "w2-times-1e3"],
    )
    def test_every_step_matches_autodiff_oracle(self, n, d, hidden, w2_scale):
        # Rebuild each step's context from the chosen order and hold the
        # folded forward to the training forward it replaces.
        from diverank import autodiff as ad
        from diverank.accuracy import (
            init_scorer_params,
            initial_context,
            score_batch,
            update_context,
        )
        from diverank.interests import InterestProfile

        rng = np.random.default_rng(17)
        embs = rng.normal(size=(n, d))
        cands = make_candidates(rng.random(n), embs=embs)
        profile = InterestProfile("u1", h_macro=rng.normal(size=d), h_micro=rng.normal(size=d))
        params = init_scorer_params(d, rng, hidden=hidden)
        params.mlp_w2 *= w2_scale
        cfg = ExperimentConfig(k=10, alpha=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, trace = bs_dpp_select(
                cands,
                random_psd_kernel(rng, n),
                profile_scorer(cands, profile, params),
                cfg,
                collect_trace=True,
            )
            assert len(trace.steps) == cfg.k
            for step in trace.steps:
                ctx = initial_context(embs)
                for j in step.selected_before:
                    ctx = update_context(ctx, embs[j])
                got = score_batch(embs, profile, ctx, params)
                np.testing.assert_array_equal(got, step.scores)
                logits = ad.score_logits(
                    embs, profile.h_macro, profile.h_micro, ctx.h_prev, ctx.h_cand, params
                )
                want = ad.softmax(logits)[:, 1]
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
                assert np.all(np.isfinite(got) & (got >= 0.0) & (got <= 1.0))
                single = score_batch(embs[step.chosen], profile, ctx, params)  # 1-D target
                assert single.shape == (1,)
                assert single[0] == pytest.approx(want[step.chosen], abs=1e-12)


def _scored_case(n, d, k, *, hidden=None, w2_scale=1.0, rank=None, seed=23, **cfg_fields):
    """Candidates, kernel, profile, params and config for one greedy run.

    The kernel is the composite one, or, with `rank`, a jitter-free Gram
    matrix of that rank, which exhausts after `rank` picks.
    """
    from diverank.accuracy import init_scorer_params
    from diverank.interests import InterestProfile
    from diverank.kernels import composite_matrix

    rng = np.random.default_rng(seed)
    embs = rng.normal(size=(n, d))
    cands = make_candidates(rng.random(n), embs=embs)
    profile = InterestProfile("u1", h_macro=rng.normal(size=d), h_micro=rng.normal(size=d))
    params = init_scorer_params(d, rng, hidden=hidden)
    params.mlp_w2 *= w2_scale
    params.mlp_b1 += rng.normal(size=params.mlp_b1.shape)  # trained biases are not zero
    params.mlp_b2 += rng.normal(size=2)
    cfg = ExperimentConfig(k=k, **cfg_fields)
    if rank is None:
        kernel = composite_matrix(cands.ids, embs, profile, cfg)
    else:
        basis = rng.normal(size=(n, rank))
        kernel = KernelMatrix(ids=cands.ids, values=basis @ basis.T)
    return cands, kernel, profile, params, cfg


GREEDY_GRID = {
    "n100-d16-k10": dict(n=100, d=16, k=10),
    "n800-d16-k5": dict(n=800, d=16, k=5),
    "bottleneck1": dict(n=12, d=3, k=5),
    "w2-times-1e3": dict(n=40, d=8, k=10, w2_scale=1e3),
    "diversity-only-init": dict(n=100, d=16, k=10, diversity_only_init=True),
    "alpha0": dict(n=100, d=16, k=10, alpha=0.0),
    "rank3-exhausts": dict(n=30, d=8, k=10, rank=3),
}


class TestReferenceGreedy:
    """The trimmed loop with the per-list scorer state, held to the loop
    and the one-matmul scorer it replaced."""

    @pytest.mark.parametrize("case", GREEDY_GRID.values(), ids=GREEDY_GRID.keys())
    def test_matches_reference_loop_and_scorer(self, case):
        cands, kernel, profile, params, cfg = _scored_case(**case)
        got, trace = bs_dpp_select(
            cands, kernel, profile_scorer(cands, profile, params), cfg, collect_trace=True
        )
        want, want_trace = reference_greedy(
            cands,
            kernel,
            lambda ctx: reference_scores(cands.embeddings, profile, ctx, params),
            cfg,
        )
        assert got.item_ids == want.item_ids
        assert got.exhausted == want.exhausted == ("rank" in case)
        assert trace.min_d2_before_clamp == want_trace.min_d2_before_clamp
        assert got.objective == pytest.approx(want.objective, rel=0.0, abs=1e-12)
        for a, b in zip(got.steps, want.steps):
            assert a.item_id == b.item_id
            for name in ("score", "log_d2", "marginal"):
                assert getattr(a, name) == pytest.approx(getattr(b, name), rel=0.0, abs=1e-12)
        assert len(trace.steps) == len(want_trace.steps) == len(got.item_ids)
        for a, b in zip(trace.steps, want_trace.steps):
            assert (a.chosen, a.selected_before) == (b.chosen, b.selected_before)
            np.testing.assert_array_equal(a.eligible, b.eligible)
            np.testing.assert_allclose(a.d2, b.d2, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(a.scores, b.scores, rtol=0.0, atol=1e-12)


class TestListState:
    @pytest.mark.parametrize("case", GREEDY_GRID.values(), ids=GREEDY_GRID.keys())
    def test_state_matches_stateless_bit_for_bit_and_is_never_written(self, case):
        from diverank.accuracy import initial_context, list_state, score_batch, update_context

        cands, _, profile, params, _ = _scored_case(**case)
        embs = cands.embeddings
        ctx = initial_context(embs)
        state = list_state(embs, profile, ctx.h_cand, params)
        before = {name: np.copy(getattr(state, name)) for name in ("base", "interest", "gap", "gap_bias")}
        for j in range(min(len(embs), 12)):
            np.testing.assert_array_equal(
                score_batch(embs, profile, ctx, params, state),
                score_batch(embs, profile, ctx, params),
            )
            ctx = update_context(ctx, embs[j])
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(state, name), value)

    def test_profile_scorer_builds_one_state_per_list(self, monkeypatch):
        from diverank import accuracy, selection

        built = []
        list_state = accuracy.list_state
        for module in (accuracy, selection):  # profile_scorer's name and score_batch's
            monkeypatch.setattr(module, "list_state", lambda *a: built.append(a) or list_state(*a))
        cands, kernel, profile, params, cfg = _scored_case(n=30, d=8, k=6)
        bs_dpp_select(cands, kernel, profile_scorer(cands, profile, params), cfg)
        assert len(built) == 1

