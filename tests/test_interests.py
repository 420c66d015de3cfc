"""Interest point grouping and macro/micro attention tests.

The attention oracle re-derives every head with explicit scalar loops
(projection, scaled dot scores, row softmax, weighted sum, output
projection), sharing no code with the tensor implementation.
"""

import math

import numpy as np
import pytest

import diverank.autodiff as ad
from diverank.autodiff import Tensor
from diverank.data import NO_LABEL, BehaviorLog, EmbeddingTable, ValidationError
from diverank.interests import (
    AttentionParams,
    InterestPoint,
    InterestProfile,
    attention_pool,
    build_profile,
    group_interest_points,
    init_interest_params,
    interest_params_from_arrays,
    load_profiles,
    macro_interest,
    micro_interest,
    multi_head_attention,
    save_profiles,
    time_bucket,
)


def make_log(*rows):
    """An unlabeled BehaviorLog from (user_id, item_id, ts) rows."""
    users, items, ts = zip(*rows) if rows else ((), (), ())
    return BehaviorLog(users, items, ts, [NO_LABEL] * len(users))


def attention_oracle(x, heads, wo, head_dim):
    """Scalar-loop multi-head self-attention over the rows of x."""
    n = x.shape[0]
    head_outs = []
    for wq, wk, wv in heads:
        q = np.array([[sum(x[i, a] * wq[a, b] for a in range(x.shape[1]))
                       for b in range(head_dim)] for i in range(n)])
        k = np.array([[sum(x[i, a] * wk[a, b] for a in range(x.shape[1]))
                       for b in range(head_dim)] for i in range(n)])
        v = np.array([[sum(x[i, a] * wv[a, b] for a in range(x.shape[1]))
                       for b in range(head_dim)] for i in range(n)])
        out = np.zeros((n, head_dim))
        for i in range(n):
            scores = [sum(q[i, c] * k[j, c] for c in range(head_dim)) / math.sqrt(head_dim)
                      for j in range(n)]
            m = max(scores)
            exp = [math.exp(s - m) for s in scores]
            z = sum(exp)
            weights = [e / z for e in exp]
            for c in range(head_dim):
                out[i, c] = sum(weights[j] * v[j, c] for j in range(n))
        head_outs.append(out)
    joined = np.concatenate(head_outs, axis=1)
    return np.array([[sum(joined[i, a] * wo[a, b] for a in range(joined.shape[1]))
                      for b in range(wo.shape[1])] for i in range(n)])


def random_attention(rng, input_dim, output_dim, num_heads, head_dim):
    heads = [
        (
            Tensor(rng.normal(size=(input_dim, head_dim))),
            Tensor(rng.normal(size=(input_dim, head_dim))),
            Tensor(rng.normal(size=(input_dim, head_dim))),
        )
        for _ in range(num_heads)
    ]
    wo = Tensor(rng.normal(size=(num_heads * head_dim, output_dim)))
    return AttentionParams(heads=heads, wo=wo, head_dim=head_dim)


def identity_attention(dim):
    eye = np.eye(dim)
    return AttentionParams(
        heads=[(Tensor(eye.copy()), Tensor(eye.copy()), Tensor(eye.copy()))],
        wo=Tensor(eye.copy()),
        head_dim=dim,
    )


class TestGrouping:
    def table(self):
        return EmbeddingTable(("i1", "i2", "i3"), np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))

    def test_sum_pooling(self):
        events = make_log(
            ("u", "i1", 1),
            ("u", "i3", 2),
        )
        points = group_interest_points(events, self.table(), {"i1": 7, "i3": 7}, top_m=3)
        assert len(points) == 1
        assert points[0].cluster_id == 7
        assert np.allclose(points[0].vector, [1.0, 1.0])
        assert points[0].item_ids == ("i1", "i3")
        assert points[0].last_ts == 2

    def test_singleton_point(self):
        events = make_log(("u", "i2", 5))
        points = group_interest_points(events, self.table(), {"i2": 0}, top_m=1)
        assert len(points) == 1
        assert np.allclose(points[0].vector, [0.5, 0.5])

    def test_unknown_items_skipped(self):
        events = make_log(
            ("u", "i1", 1),
            ("u", "ghost", 2),
            ("u", "i2", 3),  # no cluster entry
        )
        points = group_interest_points(events, self.table(), {"i1": 0, "ghost": 1}, top_m=5)
        assert len(points) == 1
        assert points[0].item_ids == ("i1",)

    def test_top_m_by_count_then_recency(self):
        events = make_log(
            ("u", "i1", 1),
            ("u", "i2", 9),
            ("u", "i3", 3),
        )
        clusters = {"i1": 0, "i2": 1, "i3": 2}
        points = group_interest_points(events, self.table(), clusters, top_m=2)
        # Equal counts: recency decides, cluster 1 (ts 9) then cluster 2 (ts 3).
        assert [p.cluster_id for p in points] == [1, 2]

    def test_member_count_conservation(self):
        events = make_log(
            ("u", "i1", 1),
            ("u", "i2", 2),
            ("u", "i3", 3),
        )
        clusters = {"i1": 0, "i2": 0, "i3": 1}
        points = group_interest_points(events, self.table(), clusters, top_m=5)
        surviving = {p.cluster_id for p in points}
        behavior_count = sum(1 for i in events.item_ids if clusters[i] in surviving)
        assert sum(p.count for p in points) == behavior_count

    def test_repeat_interactions_dedup_within_group(self):
        events = make_log(
            ("u", "i1", 1),
            ("u", "i1", 4),
        )
        points = group_interest_points(events, self.table(), {"i1": 0}, top_m=1)
        assert points[0].count == 1
        assert points[0].last_ts == 4


class TestAttention:
    def test_single_input_identity_weights(self):
        x = np.array([[0.3, -1.2, 0.7]])
        out = multi_head_attention(ad.constant(x), identity_attention(3))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_two_identical_inputs(self, rng):
        row = rng.normal(size=4)
        x = np.stack([row, row])
        params = random_attention(rng, 4, 4, num_heads=2, head_dim=2)
        out = multi_head_attention(ad.constant(x), params).data
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_matches_scalar_oracle(self, rng):
        x = rng.normal(size=(3, 5))
        params = random_attention(rng, 5, 4, num_heads=2, head_dim=3)
        got = multi_head_attention(ad.constant(x), params).data
        want = attention_oracle(
            x,
            [(wq.data, wk.data, wv.data) for wq, wk, wv in params.heads],
            params.wo.data,
            params.head_dim,
        )
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_pool_is_position_mean(self, rng):
        x = rng.normal(size=(4, 3))
        params = random_attention(rng, 3, 3, num_heads=1, head_dim=2)
        full = multi_head_attention(ad.constant(x), params).data
        pooled = attention_pool(ad.constant(x), params).data
        np.testing.assert_allclose(pooled, full.mean(axis=0, keepdims=True), atol=1e-12)

    def test_dim_mismatch_rejected(self, rng):
        params = random_attention(rng, 4, 4, 1, 2)
        with pytest.raises(ValidationError):
            multi_head_attention(ad.constant(np.zeros((2, 3))), params)


class TestMacroInterest:
    def params(self, rng, dim=4):
        return init_interest_params(dim, time_buckets=4, rng=rng)

    def point(self, cid, vec, ts=0):
        return InterestPoint(cluster_id=cid, item_ids=("x",), vector=np.asarray(vec, float), last_ts=ts)

    def test_zero_points_cold_start(self, rng):
        out = macro_interest([], self.params(rng))
        assert np.array_equal(out.data, np.zeros((1, 4)))

    def test_single_point(self, rng):
        params = self.params(rng)
        vec = rng.normal(size=4)
        got = macro_interest([self.point(0, vec)], params).data
        want = attention_oracle(
            vec.reshape(1, -1),
            [(wq.data, wk.data, wv.data) for wq, wk, wv in params.macro.heads],
            params.macro.wo.data,
            params.macro.head_dim,
        )
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_three_points_match_oracle(self, rng):
        params = self.params(rng)
        vecs = rng.normal(size=(3, 4))
        points = [self.point(i, vecs[i]) for i in range(3)]
        got = macro_interest(points, params).data
        want = attention_oracle(
            vecs,
            [(wq.data, wk.data, wv.data) for wq, wk, wv in params.macro.heads],
            params.macro.wo.data,
            params.macro.head_dim,
        ).mean(axis=0, keepdims=True)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_permutation_invariance(self, rng):
        params = self.params(rng)
        vecs = rng.normal(size=(5, 4))
        points = [self.point(i, vecs[i]) for i in range(5)]
        base = macro_interest(points, params).data
        for perm in ([4, 2, 0, 1, 3], [1, 0, 3, 2, 4]):
            out = macro_interest([points[i] for i in perm], params).data
            np.testing.assert_allclose(out, base, atol=1e-12)


class TestTimeBuckets:
    def test_zero_interval(self):
        assert time_bucket(0, 8) == 0

    def test_one_hour_boundary(self):
        # log2(1 + 1) = 1 exactly at one hour.
        assert time_bucket(3600, 8) == 1
        assert time_bucket(3599, 8) == 0

    def test_capped_at_table_size(self):
        assert time_bucket(10**9, 4) == 3

    def test_negative_interval_rejected(self):
        with pytest.raises(ValidationError):
            time_bucket(-1, 8)


class TestMicroInterest:
    def test_zero_recent_cold_start(self, rng):
        params = init_interest_params(4, time_buckets=4, rng=rng)
        out = micro_interest([], now=100, params=params)
        assert np.array_equal(out.data, np.zeros((1, 4)))

    def test_zero_time_embeddings_reduce_to_plain_attention(self, rng):
        params = init_interest_params(4, time_buckets=4, rng=rng, time_dim=2)
        params.time_table.data[:] = 0.0
        embs = rng.normal(size=(3, 4))
        recent = [(embs[i], 100 - i) for i in range(3)]
        got = micro_interest(recent, now=100, params=params).data
        padded = np.concatenate([embs, np.zeros((3, 2))], axis=1)
        want = attention_oracle(
            padded,
            [(wq.data, wk.data, wv.data) for wq, wk, wv in params.micro.heads],
            params.micro.wo.data,
            params.micro.head_dim,
        ).mean(axis=0, keepdims=True)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_four_items_match_oracle(self, rng):
        params = init_interest_params(4, time_buckets=6, rng=rng, time_dim=3)
        embs = rng.normal(size=(4, 4))
        now = 1_000_000
        ages = [0, 3600, 50_000, 900_000]
        recent = [(embs[i], now - ages[i]) for i in range(4)]
        buckets = [time_bucket(a, 6) for a in ages]
        joined = np.concatenate([embs, params.time_table.data[buckets]], axis=1)
        want = attention_oracle(
            joined,
            [(wq.data, wk.data, wv.data) for wq, wk, wv in params.micro.heads],
            params.micro.wo.data,
            params.micro.head_dim,
        ).mean(axis=0, keepdims=True)
        got = micro_interest(recent, now=now, params=params).data
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_unsorted_recent_rejected(self, rng):
        params = init_interest_params(4, time_buckets=4, rng=rng)
        recent = [(np.zeros(4), 10), (np.zeros(4), 50)]
        with pytest.raises(ValidationError):
            micro_interest(recent, now=100, params=params)


class TestBuildProfile:
    def world(self, rng):
        table = EmbeddingTable(
            tuple(f"i{k}" for k in range(6)), [rng.normal(size=4) for k in range(6)]
        )
        clusters = {f"i{k}": k % 2 for k in range(6)}
        params = init_interest_params(4, time_buckets=4, rng=rng)
        return table, clusters, params

    def test_cold_start_zero_profile(self, rng):
        table, clusters, params = self.world(rng)
        prof = build_profile("u1", make_log(), table, clusters, params, top_m=3, recent_window=5)
        assert np.array_equal(prof.h_macro, np.zeros(4))
        assert np.array_equal(prof.h_micro, np.zeros(4))

    def test_recent_window_truncates(self, rng):
        table, clusters, params = self.world(rng)
        events = make_log(*(("u1", f"i{k % 6}", k * 10) for k in range(6)))
        prof = build_profile("u1", events, table, clusters, params, top_m=3, recent_window=2)
        newest_two = [(table.rows([f"i{k}"])[0], k * 10) for k in (5, 4)]
        want = micro_interest(newest_two, now=50, params=params).data[0]
        np.testing.assert_allclose(prof.h_micro, want, atol=1e-12)

    def test_now_defaults_to_latest_event(self, rng):
        table, clusters, params = self.world(rng)
        events = make_log(
            ("u1", "i0", 1000),
            ("u1", "i1", 5000),
        )
        auto = build_profile("u1", events, table, clusters, params, top_m=3, recent_window=5)
        explicit = build_profile(
            "u1", events, table, clusters, params, top_m=3, recent_window=5, now=5000
        )
        np.testing.assert_array_equal(auto.h_micro, explicit.h_micro)

    def test_macro_consistent_with_direct_call(self, rng):
        table, clusters, params = self.world(rng)
        events = make_log(*(("u1", f"i{k}", k) for k in range(4)))
        prof = build_profile("u1", events, table, clusters, params, top_m=3, recent_window=10)
        points = group_interest_points(events, table, clusters, top_m=3)
        np.testing.assert_allclose(
            prof.h_macro, macro_interest(points, params).data[0], atol=1e-12
        )


class TestProfileIO:
    def test_round_trip(self, tmp_path, rng):
        profiles = {
            "u1": InterestProfile(
                user_id="u1",
                h_macro=rng.normal(size=4),
                h_micro=rng.normal(size=4),
            ),
            "u2": InterestProfile(
                user_id="u2",
                h_macro=np.zeros(4),
                h_micro=np.zeros(4),
            ),
        }
        path = str(tmp_path / "profiles.jsonl")
        save_profiles(path, list(profiles.values()))
        loaded = load_profiles(path)
        assert set(loaded) == {"u1", "u2"}
        np.testing.assert_array_equal(loaded["u1"].h_macro, profiles["u1"].h_macro)
        np.testing.assert_array_equal(loaded["u2"].h_micro, profiles["u2"].h_micro)


class TestParamsCheckpoint:
    def test_array_round_trip(self, rng):
        params = init_interest_params(4, time_buckets=4, rng=rng, time_dim=3)
        arrays = {name: t.data for name, t in params.tensors().items()}
        rebuilt = interest_params_from_arrays(arrays, num_heads=2, time_dim=3)
        x = rng.normal(size=(3, 4))
        points_out_a = multi_head_attention(ad.constant(x), params.macro).data
        points_out_b = multi_head_attention(ad.constant(x), rebuilt.macro).data
        np.testing.assert_array_equal(points_out_a, points_out_b)

    def test_missing_tensor_rejected(self, rng):
        params = init_interest_params(4, time_buckets=4, rng=rng)
        arrays = {name: t.data for name, t in params.tensors().items()}
        del arrays["macro.h1.wk"]
        with pytest.raises(ValidationError):
            interest_params_from_arrays(arrays, num_heads=2, time_dim=8)


class TestInterestGradients:
    def test_macro_path_finite_difference(self, rng):
        from test_autodiff import assert_grads_match

        params = init_interest_params(4, time_buckets=4, rng=rng)
        vecs = rng.normal(size=(3, 4))
        points = [
            InterestPoint(cluster_id=i, item_ids=("x",), vector=vecs[i], last_ts=0)
            for i in range(3)
        ]
        weight = ad.constant(rng.normal(size=(1, 4)))
        tensors = [t for name, t in sorted(params.tensors().items()) if name != "time_table"
                   and name.startswith("macro")]
        assert_grads_match(
            lambda: ad.sum_all(ad.mul_elementwise(macro_interest(points, params), weight)),
            tensors,
        )

    def test_micro_path_finite_difference(self, rng):
        from test_autodiff import assert_grads_match

        params = init_interest_params(4, time_buckets=4, rng=rng, time_dim=2)
        embs = rng.normal(size=(3, 4))
        recent = [(embs[i], 1000 - 400 * i) for i in range(3)]
        weight = ad.constant(rng.normal(size=(1, 4)))
        tensors = [t for name, t in sorted(params.tensors().items())
                   if name.startswith("micro") or name == "time_table"]
        assert_grads_match(
            lambda: ad.sum_all(
                ad.mul_elementwise(micro_interest(recent, now=2000, params=params), weight)
            ),
            tensors,
        )
