"""Ranking and diversity metric tests.

Golden values are hand-derived from the defining formulas: the nDCG
fixture is (1/log2(3)) / 1 for a single relevant item at position 2, the
logloss fixture is -ln(1/2), and the ILAD fixtures come from pairwise
cosine distances computed by an explicit loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverank.data import ValidationError
from diverank.kernels import normalize_rows
from diverank.metrics import auc, dcg_at_k, ilad, ndcg_at_k
from oracles import logloss, reference_dcg_at_k, reference_ilad, reference_ndcg_at_k


def pairwise_cosine_distance_mean(vectors):
    """Scalar-loop ILAD oracle: mean of 1 - cos over unordered pairs."""
    total = 0.0
    pairs = 0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            a, b = vectors[i], vectors[j]
            cos = float(np.dot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
            total += 1.0 - cos
            pairs += 1
    return total / pairs


def auc_loop_oracle(labels, scores):
    """AUC by the rank statistic with a scalar loop over runs of tied scores."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(labels.size, dtype=np.float64)
    i = 0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestNdcg:
    def test_all_relevant_in_order_is_one(self):
        assert ndcg_at_k([1, 1, 1], 3) == pytest.approx(1.0)

    def test_single_relevant_at_position_two(self):
        # DCG = 1/log2(3); ideal DCG = 1/log2(2) = 1.
        value = ndcg_at_k([0, 1], 2)
        assert value == pytest.approx(1.0 / math.log2(3), abs=1e-4)
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_no_relevant_items_is_zero(self):
        assert ndcg_at_k([0, 0, 0], 3) == 0.0

    def test_ideal_pool_argument(self):
        # Ranking shows [0, 1] but the pool holds two relevant items: the
        # ideal DCG must use the pool, not the shown list.
        with_pool = ndcg_at_k([0, 1], 2, ideal_relevances=[1, 1, 0])
        ideal = 1.0 + 1.0 / math.log2(3)
        assert with_pool == pytest.approx((1.0 / math.log2(3)) / ideal)

    def test_graded_gains(self):
        # gain 2^rel - 1 with rel=2 at the top.
        dcg = dcg_at_k([2, 1], 2)
        assert dcg == pytest.approx(3.0 + 1.0 / math.log2(3))

    def test_moving_relevant_earlier_never_hurts(self, rng):
        for _ in range(50):
            rel = list((rng.random(6) < 0.4).astype(int))
            if sum(rel) == 0:
                continue
            pos = max(i for i, r in enumerate(rel) if r == 1)
            if pos == 0 or rel[pos - 1] == 1:
                continue
            moved = list(rel)
            moved[pos - 1], moved[pos] = moved[pos], moved[pos - 1]
            assert ndcg_at_k(moved, 6) >= ndcg_at_k(rel, 6) - 1e-12

    def test_range(self, rng):
        for _ in range(30):
            rel = list((rng.random(8) < 0.5).astype(int))
            k = int(rng.integers(1, 9))
            assert 0.0 <= ndcg_at_k(rel, k) <= 1.0 + 1e-12

    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError):
            ndcg_at_k([1], 0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        rel=st.lists(st.sampled_from((0, 1)), max_size=12),
        pool=st.lists(st.sampled_from((0, 1)), max_size=40),
        k=st.integers(1, 12),
    )
    def test_top_k_of_the_pool_is_the_whole_pool(self, rel, pool, k):
        """eval and sweep pass only a user's k highest labels as the ideal pool."""
        top = sorted(pool, reverse=True)[:k]
        assert ndcg_at_k(rel, k, ideal_relevances=top) == ndcg_at_k(rel, k, ideal_relevances=pool)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)

    def test_full_inversion(self):
        assert auc([1, 0], [0.2, 0.8]) == 0.0

    def test_all_tied_scores(self):
        assert auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_monotone_transform_invariance(self, rng):
        labels = (rng.random(40) < 0.5).astype(int)
        labels[0], labels[1] = 0, 1
        scores = rng.normal(size=40)
        base = auc(labels, scores)
        assert auc(labels, 3.0 * scores + 7.0) == pytest.approx(base)
        assert auc(labels, np.exp(scores)) == pytest.approx(base)
        assert auc(labels, np.tanh(scores)) == pytest.approx(base)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            auc([1, 1], [0.5, 0.6])
        with pytest.raises(ValidationError):
            auc([0, 0], [0.5, 0.6])

    def test_tie_aware_hand_case(self):
        # Positive tied with one negative: the tied pair counts 1/2.
        assert auc([0, 1, 0], [0.3, 0.5, 0.5]) == pytest.approx(0.75)

    @pytest.mark.parametrize("levels", [None, 2, 5, 50])
    def test_matches_loop_oracle_bit_for_bit(self, levels, rng):
        # levels=None draws untied scores; otherwise scores repeat among `levels` values.
        for n in (2, 3, 17, 200, 1000):
            labels = (rng.random(n) < 0.4).astype(int)
            labels[0], labels[1] = 0, 1
            scores = rng.normal(size=n) if levels is None else rng.integers(0, levels, n) / levels
            assert auc(labels, scores) == auc_loop_oracle(labels, scores)

    def test_nan_scores_match_loop_oracle(self):
        labels = [0, 1, 1, 0, 1]
        scores = [0.5, float("nan"), 0.5, float("nan"), 0.1]
        assert auc(labels, scores) == auc_loop_oracle(labels, scores)


class TestLogloss:
    def test_half_probability_gives_ln2(self):
        assert logloss([0, 1], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-9)

    def test_confident_correct_is_small(self):
        assert logloss([1], [0.999]) < 0.01

    def test_probability_clamping(self):
        # Exact 0/1 probabilities must not produce inf.
        value = logloss([1, 0], [1.0, 0.0])
        assert math.isfinite(value)
        assert value < 1e-10

    def test_hand_value(self):
        expected = -(math.log(0.8) + math.log(1 - 0.3)) / 2.0
        assert logloss([1, 0], [0.8, 0.3]) == pytest.approx(expected)


class TestIlad:
    def test_identical_vectors(self):
        v = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert ilad(v) == pytest.approx(0.0)

    def test_orthogonal_unit_pair(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert ilad(v) == 1.0

    def test_pairwise_cosine_half_triple(self):
        # Three unit vectors at pairwise cosine 0.5 (120-degree cone).
        c = 0.5
        v = np.array(
            [
                [1.0, 0.0, 0.0],
                [c, math.sqrt(1 - c * c), 0.0],
                [c, (c - c * c) / math.sqrt(1 - c * c),
                 math.sqrt(1 - c * c - ((c - c * c) ** 2) / (1 - c * c))],
            ]
        )
        gram = v @ v.T
        assert np.allclose(np.diag(gram), 1.0)
        off = gram[np.triu_indices(3, k=1)]
        assert np.allclose(off, 0.5, atol=1e-12)
        assert ilad(v) == pytest.approx(0.5)

    def test_matches_loop_oracle(self, rng):
        v = rng.normal(size=(6, 5))
        assert ilad(v) == pytest.approx(pairwise_cosine_distance_mean(v), abs=1e-12)

    def test_range_bound(self, rng):
        for _ in range(20):
            v = rng.normal(size=(5, 4))
            assert 0.0 <= ilad(v) <= 2.0 + 1e-12

    def test_fewer_than_two_vectors_rejected(self):
        with pytest.raises(ValidationError):
            ilad(np.ones((1, 3)))

    def test_rows_whose_squares_overflow_or_underflow(self, rng):
        v = rng.normal(size=(4, 16))
        want = ilad(v)
        for row, scale in ((0, 1e200), (2, 1e-170)):
            v[row] *= scale
        assert ilad(v) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValidationError):
            ilad(np.array([[0.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_triu_indices_bit_for_bit(self, n, rng):
        for _ in range(3):
            v = rng.normal(size=(n, 16))
            unit = normalize_rows(v)
            want = float(np.mean(1.0 - (unit @ unit.T)[np.triu_indices(n, k=1)]))
            assert ilad(v) == want

    def test_zero_norm_error_names_the_first_list_holding_one(self, rng):
        stack = rng.normal(size=(5, 3, 4))
        stack[3, 1] = 0.0
        stack[1, 2] = 0.0
        with pytest.raises(ValidationError, match="zero-norm") as err:
            ilad(stack)
        assert err.value.row == 1
        with pytest.raises(ValidationError, match="zero-norm") as err:
            ilad(stack[3])
        assert err.value.row == 0


# Rows scaled so that np.linalg.norm overflows (1e200) or underflows to 0
# (1e-170) and normalize_rows takes its rescale path.
EXTREME_SCALES = (1e200, 1e-170)


@st.composite
def stacks(draw):
    """Equal-length lists as one stack: (relevances (m, L), ideal pools (m, P),
    embeddings (m, L, d), k), with 1 <= L <= k and 0 <= P <= k."""
    k = draw(st.sampled_from((1, 5, 10, 50)))
    length, pool = draw(st.integers(1, k)), draw(st.integers(0, k))
    m, d = draw(st.integers(1, 6)), draw(st.sampled_from((2, 16, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    relevances = rng.integers(0, 3, size=(m, length))
    ideal = rng.integers(0, 3, size=(m, pool))
    embs = rng.normal(size=(m, length, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, length, 1))
    for scale in EXTREME_SCALES:
        for _ in range(draw(st.integers(0, 2))):
            embs[rng.integers(m), rng.integers(length)] = rng.normal(size=d) * scale
    return relevances, ideal, embs, k


class TestStackedLists:
    """A stack of lists gets, list by list, the bits of the per-list oracles."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(stack=stacks())
    def test_each_list_equals_its_oracle_bit_for_bit(self, stack):
        relevances, ideal, embs, k = stack
        assert dcg_at_k(relevances, k).tolist() == [reference_dcg_at_k(r, k) for r in relevances]
        assert ndcg_at_k(relevances, k).tolist() == [reference_ndcg_at_k(r, k) for r in relevances]
        assert ndcg_at_k(relevances, k, ideal_relevances=ideal).tolist() == [
            reference_ndcg_at_k(r, k, ideal_relevances=p) for r, p in zip(relevances, ideal)
        ]
        # One pool that every list of the stack shares.
        assert ndcg_at_k(relevances, k, ideal_relevances=ideal[0]).tolist() == [
            reference_ndcg_at_k(r, k, ideal_relevances=ideal[0]) for r in relevances
        ]
        if embs.shape[1] >= 2:
            assert ilad(embs).tolist() == [reference_ilad(e) for e in embs]

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(stack=stacks())
    def test_one_list_gives_a_float(self, stack):
        relevances, ideal, embs, k = stack
        for value, want in (
            (dcg_at_k(relevances[0], k), reference_dcg_at_k(relevances[0], k)),
            (ndcg_at_k(relevances[0], k, ideal_relevances=ideal[0]),
             reference_ndcg_at_k(relevances[0], k, ideal_relevances=ideal[0])),
        ):
            assert type(value) is float and value == want
        if embs.shape[1] >= 2:
            value = ilad(embs[0])
            assert type(value) is float and value == reference_ilad(embs[0])
