"""Context-aware scorer tests.

The forward oracle re-derives the whole score path with scalar loops:
both excitation gates, the seven-block feature row, the ReLU hidden
layer, and the two-logit softmax.  The training math of
`diverank.autodiff` is held bit for bit to the composed autodiff graphs in
`composed_scorer`.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest

import diverank.accuracy as accuracy
import diverank.autodiff as ad
from diverank import cli
from composed_scorer import composed_backward, composed_step
from diverank.accuracy import (
    build_impressions,
    init_scorer_params,
    list_state,
    score_batch,
    scorer_params_from_arrays,
    train_scorer,
    Impressions,
)
from diverank.data import NO_LABEL, EmbeddingTable, NumericalError, ValidationError
from diverank.interests import InterestProfile
from oracles import initial_context, update_context, user_records
from test_autodiff import assert_scorer_grads_match, per_row


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def matvec(vec, mat):
    return [sum(vec[a] * mat[a, b] for a in range(len(vec))) for b in range(mat.shape[1])]


def gate_oracle(ctx, w1, w2):
    hidden = [max(0.0, h) for h in matvec(ctx, w1)]
    return [sigmoid(z) for z in matvec(hidden, w2)]


def score_oracle(target, h_macro, h_micro, h_prev, h_cand, params):
    """Scalar-loop positive-class probability for a single target row."""
    g_prev = gate_oracle(h_prev, params.w1_prev, params.w2_prev)
    g_cand = gate_oracle(h_cand, params.w1_cand, params.w2_cand)
    feats = []
    feats += list(target)
    feats += [t * g for t, g in zip(target, g_prev)]
    feats += [t * g for t, g in zip(target, g_cand)]
    feats += [m * g for m, g in zip(h_macro, g_prev)]
    feats += [m * g for m, g in zip(h_micro, g_prev)]
    feats += [m * g for m, g in zip(h_macro, g_cand)]
    feats += [m * g for m, g in zip(h_micro, g_cand)]
    hidden = [
        max(0.0, z + params.mlp_b1[0, i])
        for i, z in enumerate(matvec(feats, params.mlp_w1))
    ]
    logits = [
        z + params.mlp_b2[0, i] for i, z in enumerate(matvec(hidden, params.mlp_w2))
    ]
    m = max(logits)
    exp = [math.exp(z - m) for z in logits]
    return exp[1] / sum(exp)


def score(targets, profile, ctx, params):
    """`score_batch` of (n, d) targets with the list state built from `ctx.h_cand`."""
    return score_batch(targets, ctx.h_prev, params, list_state(targets, profile, ctx.h_cand, params))


def make_profile(user_id, rng, dim):
    return InterestProfile(
        user_id=user_id, h_macro=rng.normal(size=dim), h_micro=rng.normal(size=dim)
    )


class TestScore:
    def test_all_zero_weights_give_half(self):
        params = scorer_params_from_arrays(
            {
                "w1_prev": np.zeros((4, 1)),
                "w2_prev": np.zeros((1, 4)),
                "w1_cand": np.zeros((4, 1)),
                "w2_cand": np.zeros((1, 4)),
                "mlp_w1": np.zeros((28, 8)),
                "mlp_b1": np.zeros((1, 8)),
                "mlp_w2": np.zeros((8, 2)),
                "mlp_b2": np.zeros((1, 2)),
            }
        )
        rng = np.random.default_rng(3)
        profile = make_profile("u", rng, 4)
        ctx = initial_context(rng.normal(size=(5, 4)))
        value = score(rng.normal(size=(1, 4)), profile, ctx, params)[0]
        assert value == pytest.approx(0.5)

    def test_deterministic(self, rng):
        params = init_scorer_params(4, rng)
        profile = make_profile("u", rng, 4)
        ctx = initial_context(rng.normal(size=(5, 4)))
        target = rng.normal(size=(1, 4))
        assert np.array_equal(score(target, profile, ctx, params), score(target, profile, ctx, params))

    def test_matches_scalar_oracle(self, rng):
        params = init_scorer_params(4, rng)
        profile = make_profile("u", rng, 4)
        embs = rng.normal(size=(6, 4))
        ctx = update_context(initial_context(embs), embs[0])
        for row in range(3):
            got = score(embs[[row]], profile, ctx, params)[0]
            want = score_oracle(
                embs[row], profile.h_macro, profile.h_micro, ctx.h_prev, ctx.h_cand, params
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_batch_matches_single(self, rng):
        params = init_scorer_params(4, rng)
        profile = make_profile("u", rng, 4)
        embs = rng.normal(size=(5, 4))
        ctx = initial_context(embs)
        batch = score(embs, profile, ctx, params)
        singles = [score(embs[[i]], profile, ctx, params)[0] for i in range(5)]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_probability_range_and_softmax_sum(self, rng):
        params = init_scorer_params(4, rng)
        profile = make_profile("u", rng, 4)
        embs = rng.normal(size=(8, 4)) * 3.0
        ctx = initial_context(embs)
        probs = score(embs, profile, ctx, params)
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0)
        shared = (profile.h_macro, profile.h_micro, ctx.h_prev, ctx.h_cand)
        logits = ad.score_logits(embs, *(per_row(8, v) for v in shared), params)
        rows = ad.softmax(logits)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_logit_gap_affine_invariance(self, rng):
        # Scaling the output layer scales both logits, hence the gap, by the
        # same positive factor: the candidate ordering must not change.
        params = init_scorer_params(4, rng)
        arrays = {name: w.copy() for name, w in params.arrays().items()}
        arrays["mlp_w2"] = 3.5 * arrays["mlp_w2"]
        arrays["mlp_b2"] = 3.5 * arrays["mlp_b2"] + 0.7  # shared shift
        scaled = scorer_params_from_arrays(arrays)
        profile = make_profile("u", rng, 4)
        embs = rng.normal(size=(10, 4))
        ctx = initial_context(embs)
        base = score(embs, profile, ctx, params)
        other = score(embs, profile, ctx, scaled)
        assert np.array_equal(np.argsort(base), np.argsort(other))


class TestCrossEntropy:
    def test_matches_manual_value(self):
        logits = np.array([[2.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        loss = ad.cross_entropy(logits, labels)[0]
        p0 = math.exp(2.0) / (math.exp(2.0) + 1.0)
        p1 = math.exp(1.0) / (1.0 + math.exp(1.0))
        assert loss == pytest.approx(-(math.log(p0) + math.log(p1)) / 2.0, abs=1e-12)

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ad.cross_entropy(np.zeros((3, 2)), np.array([0, 1]))


def impressions_oracle(rows, table):
    """The per-user loop `build_impressions` replaced, as row tuples.

    It reads raw (user, item, ts, label) rows, groups them per user itself
    and sorts each session by timestamp (stable), so it accepts rows in any
    order.
    """
    by_user = {}
    for user_id, item_id, ts, label in rows:
        if label == NO_LABEL or item_id not in table:
            continue
        by_user.setdefault(user_id, []).append((ts, item_id, label))
    out = []
    for user_id in sorted(by_user):
        session = sorted(by_user[user_id], key=lambda row: row[0])
        embs = table.rows(item_id for _, item_id, _ in session)
        h_cand = embs.mean(axis=0)
        running = np.zeros(embs.shape[1])
        for t, (_, _, label) in enumerate(session):
            h_prev = running / t if t else np.zeros(embs.shape[1])
            out.append((user_id, embs[t], h_prev, h_cand, label))
            running = running + embs[t]
    return out


class TestImpressions:
    def test_session_context_reconstruction(self):
        table = EmbeddingTable(("a", "b"), np.array([[2.0, 0.0], [0.0, 2.0]]))
        imps = build_impressions(user_records(("u1", "b", 20, 0), ("u1", "a", 10, 1)), table)
        assert len(imps) == 2
        # Session order is by timestamp: a then b.
        assert np.array_equal(imps.h_prev, [[0.0, 0.0], [2.0, 0.0]])
        assert np.array_equal(imps.h_cand, [[1.0, 1.0], [1.0, 1.0]])
        assert imps.labels.tolist() == [1, 0]

    def test_unlabeled_skipped(self):
        table = EmbeddingTable(("a",), np.array([[1.0]]))
        events = user_records(("u1", "a", 1, NO_LABEL), ("u1", "a", 2, 1))
        assert len(build_impressions(events, table)) == 1

    def test_matches_per_user_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        embs = rng.normal(size=(12, 5))
        embs[:, 4] = -0.0  # sums must start from +0.0, as the loop's did
        table = EmbeddingTable(tuple(f"i{k}" for k in range(12)), embs)
        rows = []
        for _ in range(90):
            user = f"u{rng.integers(6)}"  # users interleaved in row order
            item = f"i{rng.integers(15)}"  # i12..i14 are not in the catalog
            label = [NO_LABEL, 0, 1][rng.integers(3)]
            rows.append((user, item, int(rng.integers(8)), label))  # many equal timestamps
        rows.append(("u9", "i14", 3, 1))  # a user with no usable row
        expected = impressions_oracle(rows, table)
        imps = build_impressions(user_records(*rows), table)
        assert 0 < len(imps) == len(expected) < len(rows)
        assert imps.user_ids == tuple(e[0] for e in expected)
        for col, pos in (("embeddings", 1), ("h_prev", 2), ("h_cand", 3)):
            want = np.stack([e[pos] for e in expected])
            assert getattr(imps, col).tobytes() == want.tobytes(), col
        assert imps.labels.tolist() == [e[4] for e in expected]

    @pytest.mark.parametrize(
        "columns",
        [
            (("u1",), np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)), [0, 1]),
            (("u1", "u1"), np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 3)), [0, 1]),
            (("u1", "u1"), np.zeros(3), np.zeros(3), np.zeros(3), [0, 1]),
            (("u1", "u1"), np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)), [0, 2]),
            (("u1", "u1"), np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)), [1]),
        ],
    )
    def test_malformed_columns_rejected(self, columns):
        with pytest.raises(ValidationError):
            Impressions(*columns)


def separable_impressions(rng, n=60, dim=4):
    # Two clouds separated along the first axis; label follows the cloud.
    labels = np.arange(n) % 2
    centers = np.zeros((n, dim))
    centers[:, 0] = np.where(labels == 1, 3.0, -3.0)
    embeddings = centers + 0.3 * rng.normal(size=(n, dim))
    return Impressions(("u1",) * n, embeddings, np.zeros((n, dim)), np.zeros((n, dim)), labels)


class TestTraining:
    def test_separable_data_reaches_high_auc(self, rng):
        impressions = separable_impressions(rng)
        params = init_scorer_params(4, np.random.default_rng(1))
        profiles = {"u1": make_profile("u1", rng, 4)}
        curve = train_scorer(impressions, profiles, params, lr=0.1, epochs=30, seed=0)
        assert curve[-1]["auc"] >= 0.95

    def test_lr_zero_bit_identical_and_flat(self, rng):
        impressions = separable_impressions(rng, n=20)
        params = init_scorer_params(4, np.random.default_rng(1))
        before = {name: w.copy() for name, w in params.arrays().items()}
        profiles = {"u1": make_profile("u1", rng, 4)}
        curve = train_scorer(impressions, profiles, params, lr=0.0, epochs=3, seed=0)
        for name, w in params.arrays().items():
            assert np.array_equal(w, before[name]), name
        losses = [row["loss"] for row in curve]
        assert losses[0] == losses[1] == losses[2]

    def test_single_sample_step_does_not_increase_loss(self, rng):
        imp = separable_impressions(rng, n=2)
        params = init_scorer_params(4, np.random.default_rng(5))
        profiles = {"u1": make_profile("u1", rng, 4)}
        curve = train_scorer(imp, profiles, params, lr=1e-3, epochs=2, seed=0, batch_size=2)
        assert curve[1]["loss"] <= curve[0]["loss"] + 1e-12

    def test_degenerate_labels_rejected(self, rng):
        impressions = Impressions(("u1",) * 4, rng.normal(size=(4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), [1] * 4)
        params = init_scorer_params(4, rng)
        with pytest.raises(ValidationError):
            train_scorer(impressions, {}, params, lr=0.1, epochs=1, seed=0)

    def test_loss_curve_decreases_overall(self, rng):
        impressions = separable_impressions(rng)
        params = init_scorer_params(4, np.random.default_rng(2))
        curve = train_scorer(impressions, {}, params, lr=0.1, epochs=10, seed=0)
        assert curve[-1]["loss"] < curve[0]["loss"]

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_bad_learning_rate_rejected(self, rng, lr):
        params = init_scorer_params(4, np.random.default_rng(2))
        with pytest.raises(ValidationError, match="lr"):
            train_scorer(separable_impressions(rng), {}, params, lr=lr, epochs=1, seed=0)

    def test_divergence_is_numerical_error(self, rng):
        params = init_scorer_params(4, np.random.default_rng(2))
        with pytest.raises(NumericalError, match="diverged"):
            train_scorer(separable_impressions(rng), {}, params, lr=1e308, epochs=3, seed=0)


class TestScorerGradients:
    def test_full_path_finite_difference(self, rng):
        params = init_scorer_params(3, rng, reduction=3, hidden=5)
        inputs = [rng.normal(size=(4, 3))] + [per_row(4, rng.normal(size=3)) for _ in range(4)]
        labels = np.array([0, 1, 1, 0])
        assert_scorer_grads_match(inputs, params, labels)


def assert_same_bits(got, want, what):
    """Equal values, NaNs in the same places and zeros of the same sign."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.array_equal(got, want, equal_nan=True), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what


def fused_step(inputs, params, labels):
    """`composed_step`'s logits, loss and gradients from the library's training math."""
    loss, grads = ad.backward(*inputs, params, labels)
    return ad.score_logits(*inputs, params), loss, grads


def scaled_params(d, rng, weight_scale):
    params = init_scorer_params(d, rng)
    for w in params.arrays().values():
        w *= weight_scale
    return params


class TestFusedOpsMatchComposedOracle:
    @pytest.mark.parametrize("weight_scale", [1.0, 50.0], ids=["plain", "saturated"])
    @pytest.mark.parametrize("shared", [False, True], ids=["per-row", "shared"])
    @pytest.mark.parametrize("n", [1, 2, 33])
    @pytest.mark.parametrize("d", [1, 3, 16])  # d=3 with reduction 4: a bottleneck of 1
    def test_logits_loss_and_gradients_bit_identical(self, d, n, shared, weight_scale):
        rng = np.random.default_rng(100 * d + n)
        params = scaled_params(d, rng, weight_scale)
        rows = 1 if shared else n  # a shared row is repeated for every target
        inputs = [rng.normal(size=(n, d))]
        inputs += [np.repeat(rng.normal(size=(rows, d)), n // rows, axis=0) for _ in range(4)]
        labels = np.arange(n) % 2
        with np.errstate(all="ignore"):
            fused = fused_step(inputs, params, labels)
            oracle = composed_step(*inputs, params, labels)
        assert_same_bits(fused[0], oracle[0], "logits")
        assert_same_bits(fused[1], oracle[1], "loss")
        for name, got, want in zip(params.arrays(), fused[2], oracle[2]):
            assert_same_bits(got, want, name)

    def test_saturated_grid_reaches_nan_gradients(self):
        # The saturated cases above must exercise a softmax underflow.
        rng = np.random.default_rng(100 * 16 + 33)
        params = scaled_params(16, rng, 50.0)
        inputs = [rng.normal(size=(33, 16)) for _ in range(5)]
        with np.errstate(all="ignore"):
            loss, grads = ad.backward(*inputs, params, np.arange(33) % 2)
        assert np.isnan(loss) and any(np.isnan(g).any() for g in grads)

    def test_composed_oracle_step_records_25_ops(self, rng):
        params = init_scorer_params(4, rng)
        inputs = [rng.normal(size=(5, 4)), *(per_row(5, rng.normal(size=(1, 4))) for _ in range(4))]
        labels = np.array([0, 1, 1, 0, 1])
        assert composed_step(*inputs, params, labels)[3] == 25

    def test_training_run_matches_composed_oracle(self, rng, monkeypatch):
        impressions = separable_impressions(rng, n=70)
        profiles = {"u1": make_profile("u1", rng, 4)}

        def train():
            params = init_scorer_params(4, np.random.default_rng(7))
            curve = train_scorer(impressions, profiles, params, lr=0.1, epochs=2, seed=3)
            return params, curve

        fused_params, fused_curve = train()
        monkeypatch.setattr(ad, "backward", composed_backward)
        oracle_params, oracle_curve = train()
        assert fused_curve == oracle_curve
        for name, w in oracle_params.arrays().items():
            assert fused_params.arrays()[name].tobytes() == w.tobytes(), name


class TestTrainingCallsBackward:
    """`train_scorer` reaches the gradients only through `autodiff.backward`,
    looked up on the module once per minibatch, so a wrapper there sees
    every step."""

    @pytest.mark.parametrize("n, batch_size, epochs", [(70, 32, 2), (64, 32, 3), (5, 8, 1), (33, 1, 1)])
    def test_one_call_per_minibatch_and_unchanged_results(self, rng, monkeypatch, n, batch_size, epochs):
        impressions = separable_impressions(rng, n=n)
        profiles = {"u1": make_profile("u1", rng, 4)}

        def train():
            params = init_scorer_params(4, np.random.default_rng(7))
            curve = train_scorer(impressions, profiles, params, 0.1, epochs, seed=3, batch_size=batch_size)
            return params, curve

        plain_params, plain_curve = train()
        calls = []
        original = ad.backward

        def counted(*args):
            calls.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(ad, "backward", counted)
        wrapped_params, wrapped_curve = train()
        assert len(calls) == epochs * math.ceil(n / batch_size)
        assert sum(calls) == epochs * n
        assert wrapped_curve == plain_curve
        for name, w in plain_params.arrays().items():
            assert wrapped_params.arrays()[name].tobytes() == w.tobytes(), name


def count_score_logits(monkeypatch):
    """Wrap `autodiff.score_logits`; the returned list gets each call's row count."""
    seen, original = [], ad.score_logits

    def counted(*args):
        seen.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(ad, "score_logits", counted)
    return seen


class TestChunkedScoring:
    """`train_scorer` scores the whole training set `SCORE_CHUNK_ROWS` rows
    at a time, and gathers each minibatch's interest rows by user."""

    # 70 = 4 * 16 + 6 = 10 * 7 = 69 + 1: a partial last chunk, whole chunks only, a one-row last chunk.
    @pytest.mark.parametrize("chunk", [16, 7, 69])
    def test_chunks_of_a_70_row_set_give_the_one_forward_bits(self, rng, monkeypatch, chunk):
        """At n=70 and d=4, each chunk size gives the curve and parameters of
        one forward over all rows, bit for bit.  That holds at this size, not
        for every size: at the pipeline shape 7-row chunks move an AUC."""
        n, epochs = 70, 2
        base = separable_impressions(rng, n=n)
        users = tuple(f"u{r % 5}" for r in range(n))
        impressions = Impressions(users, base.embeddings, rng.normal(size=(n, 4)), rng.normal(size=(n, 4)), base.labels)
        profiles = {f"u{u}": make_profile(f"u{u}", rng, 4) for u in range(4)}  # u4 has none: zero rows
        seen = count_score_logits(monkeypatch)

        def train():
            params = init_scorer_params(4, np.random.default_rng(7))
            return params, train_scorer(impressions, profiles, params, lr=0.1, epochs=epochs, seed=3)

        whole_params, whole_curve = train()
        assert seen == [n] * epochs
        seen.clear()
        monkeypatch.setattr(accuracy, "SCORE_CHUNK_ROWS", chunk)
        chunked_params, chunked_curve = train()
        assert seen == ([chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)) * epochs
        assert chunked_curve == whole_curve
        for name, w in whole_params.arrays().items():
            assert chunked_params.arrays()[name].tobytes() == w.tobytes(), name

    def test_pipeline_curve_equals_the_one_forward_curve(self, tmp_path, monkeypatch):
        """At the pipeline benchmark's shape (`synth` seed 301: 200 users,
        12,000 impressions, d=16), `training_log.csv` at `SCORE_CHUNK_ROWS`
        is the one a single forward over every impression writes."""
        root = str(tmp_path)
        items, behaviors, clusters = (os.path.join(root, f"{name}.jsonl") for name in ("items", "behaviors", "clusters"))
        shape = ["--users", "200", "--candidates-per-user", "100", "--dim", "16", "--items-per-cluster", "30"]
        assert cli.main(["synth", "--out", root, "--seed", "301", *shape]) == 0
        assert cli.main(["cluster", "--items", items, "--behaviors", behaviors, "--out", clusters, "--seed", "301"]) == 0
        seen = count_score_logits(monkeypatch)

        def training_log(out: str) -> str:
            argv = ["--items", items, "--behaviors", behaviors, "--clusters", clusters, "--seed", "301"]
            assert cli.main(["train-scorer", *argv, "--out", os.path.join(root, out), "--epochs", "1"]) == 0
            return (tmp_path / out / "training_log.csv").read_text()

        chunked = training_log("chunked")
        assert seen[0] == accuracy.SCORE_CHUNK_ROWS and sum(seen) == 12_000
        seen.clear()
        monkeypatch.setattr(accuracy, "SCORE_CHUNK_ROWS", 12_000)
        assert training_log("whole") == chunked
        assert seen == [12_000]

    def test_extra_peak_grows_by_under_256_bytes_per_impression(self):
        """Scoring every impression in one forward allocated about 2.6 KB
        per impression at d=16.  In chunks, the peak above the inputs grows
        only by per-impression vectors such as the epoch's order, the
        logits and the AUC's ranks: about 33 bytes per impression."""

        def extra_peak(n, d=16):
            rng = np.random.default_rng(n)
            users = tuple(f"u{r % 50}" for r in range(n))
            impressions = Impressions(users, *(rng.normal(size=(n, d)) for _ in range(3)), np.arange(n) % 2)
            params = init_scorer_params(d, rng)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                train_scorer(impressions, {}, params, lr=0.1, epochs=1, seed=0)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        small, large = 2048, 8192
        assert (extra_peak(large) - extra_peak(small)) / (large - small) < 256

    def test_overflow_in_the_last_partial_chunk_gets_the_overflow_advice(self, rng, monkeypatch):
        base = separable_impressions(rng, n=70)
        embeddings = base.embeddings.copy()
        embeddings[-1, 0] = 1e200  # row 69, in the last chunk of rows 64 to 69
        impressions = Impressions(base.user_ids, embeddings, base.h_prev, base.h_cand, base.labels)
        monkeypatch.setattr(accuracy, "SCORE_CHUNK_ROWS", 16)
        seen = count_score_logits(monkeypatch)
        params = init_scorer_params(4, np.random.default_rng(2))
        with pytest.raises(NumericalError, match="epoch 0 .*overflow at its initial weights"):
            train_scorer(impressions, {}, params, lr=0.1, epochs=3, seed=0)
        assert seen == [16, 16, 16, 16, 6]


class TestInit:
    def test_draws_fan_in_uniforms_in_field_order(self):
        d, reduction, hidden = 6, 3, 5
        params = init_scorer_params(d, np.random.default_rng(9), reduction=reduction, hidden=hidden)
        rng = np.random.default_rng(9)
        b = d // reduction
        shapes = {"w1_prev": (d, b), "w2_prev": (b, d), "w1_cand": (d, b), "w2_cand": (b, d),
                  "mlp_w1": (7 * d, hidden), "mlp_w2": (hidden, 2)}
        for name, w in params.arrays().items():
            if name in shapes:
                bound = 1.0 / np.sqrt(shapes[name][0])
                want = rng.uniform(-bound, bound, size=shapes[name])
            else:
                want = np.zeros((1, hidden if name == "mlp_b1" else 2))
            assert w.dtype == np.float64 and w.tobytes() == want.tobytes(), name
