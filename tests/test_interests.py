"""Interest point grouping and macro/micro pooling tests.

The pooling checks recompute each profile vector by hand from the table
rows: a plain mean of the top-M point sums for h_macro, and a weighted
mean with weights 1 / (1 + age in hours) for h_micro.
"""

import numpy as np
import pytest

from diverank.data import EmbeddingTable, UserEvents, ValidationError
from diverank.interests import (
    MACRO_SCALE,
    MICRO_SCALE,
    InterestProfile,
    build_profile,
    group_interest_points,
    load_profiles,
    recency_weights,
    save_profiles,
)
from oracles import user_records

HOUR = 3600


def history(*rows):
    """One user's unlabelled record from (user_id, item_id, ts) rows."""
    [events] = user_records(*rows)
    return events


class TestGrouping:
    def table(self):
        return EmbeddingTable(("i1", "i2", "i3"), np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))

    def test_sum_pooling(self):
        events = history(
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
        events = history(("u", "i2", 5))
        points = group_interest_points(events, self.table(), {"i2": 0}, top_m=1)
        assert len(points) == 1
        assert np.allclose(points[0].vector, [0.5, 0.5])

    def test_unknown_items_skipped(self):
        events = history(
            ("u", "i1", 1),
            ("u", "ghost", 2),
            ("u", "i2", 3),  # no cluster entry
        )
        points = group_interest_points(events, self.table(), {"i1": 0, "ghost": 1}, top_m=5)
        assert len(points) == 1
        assert points[0].item_ids == ("i1",)

    def test_top_m_by_count_then_recency(self):
        events = history(
            ("u", "i1", 1),
            ("u", "i2", 9),
            ("u", "i3", 3),
        )
        clusters = {"i1": 0, "i2": 1, "i3": 2}
        points = group_interest_points(events, self.table(), clusters, top_m=2)
        # Equal counts: recency decides, cluster 1 (ts 9) then cluster 2 (ts 3).
        assert [p.cluster_id for p in points] == [1, 2]

    def test_member_count_conservation(self):
        events = history(
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
        events = history(
            ("u", "i1", 1),
            ("u", "i1", 4),
        )
        points = group_interest_points(events, self.table(), {"i1": 0}, top_m=1)
        assert points[0].count == 1
        assert points[0].last_ts == 4


def world(rng, n=6):
    """n random items in two clusters (even and odd ids)."""
    table = EmbeddingTable(tuple(f"i{k}" for k in range(n)), rng.normal(size=(n, 4)))
    return table, {f"i{k}": k % 2 for k in range(n)}


def row(table, item_id):
    return table.rows([item_id])[0]


class TestMacroPooling:
    def test_scales_the_mean_of_the_top_m_sums(self, rng):
        table, _ = world(rng)
        clusters = {"i0": 0, "i1": 0, "i2": 1, "i3": 1, "i4": 2}
        events = history(*(("u", f"i{k}", k) for k in range(5)))
        prof = build_profile(events, table, clusters, top_m=2, recent_window=5)
        points = group_interest_points(events, table, clusters, top_m=2)
        assert [p.cluster_id for p in points] == [1, 0]  # cluster 2 has one member
        np.testing.assert_array_equal(
            prof.h_macro, MACRO_SCALE * np.mean([p.vector for p in points], axis=0)
        )
        sums = [row(table, "i0") + row(table, "i1"), row(table, "i2") + row(table, "i3")]
        np.testing.assert_allclose(prof.h_macro, 0.4 * (sums[0] + sums[1]) / 2, rtol=0, atol=1e-15)

    def test_top_m_keeps_the_largest_cluster(self, rng):
        table, clusters = world(rng)
        events = history(*(("u", f"i{k}", k) for k in range(5)))  # 3 even, 2 odd
        prof = build_profile(events, table, clusters, top_m=1, recent_window=5)
        want = 0.4 * (row(table, "i0") + row(table, "i2") + row(table, "i4"))
        np.testing.assert_allclose(prof.h_macro, want, rtol=0, atol=1e-15)

    def test_no_points_gives_zero_macro_only(self, rng):
        table, _ = world(rng)
        events = history(("u", "i0", 1), ("u", "i1", 2))
        prof = build_profile(events, table, {}, top_m=3, recent_window=5)
        assert np.array_equal(prof.h_macro, np.zeros(4))
        assert np.any(prof.h_micro != 0.0)

    def test_ignores_timestamps_and_the_window(self, rng):
        table, _ = world(rng)
        clusters = {"i0": 0, "i1": 0, "i2": 0, "i3": 1, "i4": 1, "i5": 2}
        rows = [("u", f"i{k}", 10 * k) for k in range(6)]
        base = build_profile(history(*rows), table, clusters, top_m=2, recent_window=1)
        spread = history(*((u, i, t * HOUR) for u, i, t in rows))
        other = build_profile(spread, table, clusters, top_m=2, recent_window=6,
                              now=10**6 * HOUR)
        np.testing.assert_array_equal(base.h_macro, other.h_macro)

    def test_repeat_interactions_count_once(self, rng):
        table, clusters = world(rng)
        once = history(("u", "i0", 1), ("u", "i2", 2))
        twice = history(("u", "i0", 1), ("u", "i2", 2), ("u", "i0", 3))
        a = build_profile(once, table, clusters, top_m=1, recent_window=5)
        b = build_profile(twice, table, clusters, top_m=1, recent_window=5)
        np.testing.assert_array_equal(a.h_macro, b.h_macro)


class TestMicroPooling:
    def test_matches_hand_computed_weighted_mean(self, rng):
        table, clusters = world(rng)
        now = 100 * HOUR
        ages = {"i0": 0, "i1": HOUR, "i2": 5 * HOUR + 1800}
        events = history(*(("u", i, now - age) for i, age in ages.items()))
        prof = build_profile(events, table, clusters, top_m=3, recent_window=5, now=now)
        weights = {"i0": 1.0, "i1": 0.5, "i2": 1.0 / 6.5}
        want = sum(w * row(table, i) for i, w in weights.items()) / sum(weights.values())
        np.testing.assert_allclose(prof.h_micro, 0.25 * want, rtol=0, atol=1e-15)

    def test_more_recent_item_weighs_more(self):
        table = EmbeddingTable(("new", "old"), np.eye(2))
        events = history(("u", "old", 0), ("u", "new", 10 * HOUR))
        prof = build_profile(events, table, {}, top_m=1, recent_window=5)
        # Ages 0 h and 10 h: weights 1 and 1/11, normalized to 11/12 and 1/12.
        np.testing.assert_allclose(prof.h_micro, [0.25 * 11 / 12, 0.25 / 12], rtol=1e-15)
        assert prof.h_micro[0] > prof.h_micro[1]

    def test_equal_ages_give_the_scaled_plain_mean(self, rng):
        table, clusters = world(rng)
        events = history(*(("u", f"i{k}", 7 * HOUR) for k in range(4)))
        prof = build_profile(events, table, clusters, top_m=3, recent_window=5, now=9 * HOUR)
        want = MICRO_SCALE * table.rows([f"i{k}" for k in range(4)]).mean(axis=0)
        np.testing.assert_allclose(prof.h_micro, want, rtol=0, atol=1e-15)

    def test_recency_weights_decay_hyperbolically(self):
        got = recency_weights(np.array([10 * HOUR, 9 * HOUR, 7 * HOUR, 0]), now=10 * HOUR)
        np.testing.assert_array_equal(got, [1.0, 0.5, 0.25, 1.0 / 11.0])

    def test_is_a_convex_combination_of_the_window(self, rng):
        table, clusters = world(rng)
        events = history(*(("u", f"i{k}", int(t)) for k, t in enumerate(rng.integers(0, 10**6, 6))))
        prof = build_profile(events, table, clusters, top_m=3, recent_window=6)
        rows = MICRO_SCALE * table.embeddings
        assert np.all(prof.h_micro >= rows.min(axis=0) - 1e-15)
        assert np.all(prof.h_micro <= rows.max(axis=0) + 1e-15)

    def test_shifting_every_timestamp_keeps_the_profile(self, rng):
        table, clusters = world(rng)
        rows = [("u", f"i{k}", 1000 * k * k) for k in range(6)]
        base = build_profile(history(*rows), table, clusters, top_m=3, recent_window=4)
        shifted = history(*((u, i, t + 7 * HOUR) for u, i, t in rows))
        moved = build_profile(shifted, table, clusters, top_m=3, recent_window=4)
        np.testing.assert_array_equal(base.h_macro, moved.h_macro)
        np.testing.assert_array_equal(base.h_micro, moved.h_micro)

    def test_unknown_items_stay_out_of_the_window(self, rng):
        table, clusters = world(rng)
        events = history(("u", "i0", 0), ("u", "ghost", 5), ("u", "i1", 9))
        prof = build_profile(events, table, clusters, top_m=3, recent_window=2)
        known = history(("u", "i0", 0), ("u", "i1", 9))
        want = build_profile(known, table, clusters, top_m=3, recent_window=2)
        np.testing.assert_array_equal(prof.h_micro, want.h_micro)

    def test_ignores_clusters_and_top_m(self, rng):
        table, clusters = world(rng)
        events = history(*(("u", f"i{k}", 700 * k) for k in range(6)))
        base = build_profile(events, table, clusters, top_m=1, recent_window=4)
        other = build_profile(events, table, {}, top_m=5, recent_window=4)
        np.testing.assert_array_equal(base.h_micro, other.h_micro)

    def test_repeat_interaction_fills_two_window_slots(self, rng):
        table, clusters = world(rng)
        events = history(("u", "i0", 0), ("u", "i1", HOUR), ("u", "i0", 2 * HOUR))
        prof = build_profile(events, table, clusters, top_m=3, recent_window=3)
        # Ages 0 h (i0), 1 h (i1) and 2 h (i0): weights 1, 1/2 and 1/3.
        want = ((1 + 1 / 3) * row(table, "i0") + 0.5 * row(table, "i1")) / (1 + 0.5 + 1 / 3)
        np.testing.assert_allclose(prof.h_micro, 0.25 * want, rtol=0, atol=1e-15)

    def test_distant_now_tends_to_the_plain_mean(self, rng):
        table, clusters = world(rng)
        events = history(*(("u", f"i{k}", k * HOUR) for k in range(6)))
        prof = build_profile(events, table, clusters, top_m=3, recent_window=6,
                             now=10**9 * HOUR)
        want = MICRO_SCALE * table.embeddings.mean(axis=0)
        np.testing.assert_allclose(prof.h_micro, want, rtol=0, atol=1e-8)

    def test_single_event_gives_the_scaled_embedding(self, rng):
        table, clusters = world(rng)
        prof = build_profile(history(("u", "i3", 50)), table, clusters, top_m=3,
                             recent_window=5, now=50 + 9 * HOUR)
        np.testing.assert_allclose(prof.h_micro, 0.25 * row(table, "i3"), rtol=1e-15)
        np.testing.assert_allclose(prof.h_macro, 0.4 * row(table, "i3"), rtol=1e-15)

    def test_recency_weights_reject_a_future_timestamp(self):
        with pytest.raises(ValidationError, match="event timestamp lies in the future"):
            recency_weights(np.array([0, HOUR + 1]), now=HOUR)


class TestBuildProfile:
    def test_cold_start_zero_profile(self, rng):
        table, clusters = world(rng)
        prof = build_profile(UserEvents("u1", (), [], []), table, clusters, top_m=3, recent_window=5)
        assert np.array_equal(prof.h_macro, np.zeros(4))
        assert np.array_equal(prof.h_micro, np.zeros(4))

    def test_unknown_history_is_a_cold_start(self, rng):
        table, clusters = world(rng)
        events = history(("u1", "ghost", 3), ("u1", "phantom", 4))
        prof = build_profile(events, table, clusters, top_m=3, recent_window=5)
        assert np.array_equal(prof.h_macro, np.zeros(4))
        assert np.array_equal(prof.h_micro, np.zeros(4))

    def test_recent_window_truncates(self, rng):
        table, clusters = world(rng)
        events = history(*(("u1", f"i{k}", k * HOUR) for k in range(6)))
        prof = build_profile(events, table, clusters, top_m=3, recent_window=2)
        # The newest two, i5 (age 0) and i4 (age 1 h), weigh 1 and 1/2.
        want = 0.25 * (row(table, "i5") + 0.5 * row(table, "i4")) / 1.5
        np.testing.assert_allclose(prof.h_micro, want, rtol=0, atol=1e-15)

    def test_now_defaults_to_latest_event(self, rng):
        table, clusters = world(rng)
        events = history(
            ("u1", "i0", 1000),
            ("u1", "i1", 5000),
        )
        auto = build_profile(events, table, clusters, top_m=3, recent_window=5)
        explicit = build_profile(events, table, clusters, top_m=3, recent_window=5, now=5000)
        later = build_profile(events, table, clusters, top_m=3, recent_window=5, now=9000)
        np.testing.assert_array_equal(auto.h_micro, explicit.h_micro)
        assert not np.array_equal(auto.h_micro, later.h_micro)

    def test_event_order_does_not_change_the_profile(self, rng):
        table, clusters = world(rng)
        rows = [("u1", f"i{k}", 500 * k) for k in range(6)]
        forward = build_profile(history(*rows), table, clusters, top_m=2, recent_window=3)
        backward = build_profile(history(*rows[::-1]), table, clusters, top_m=2,
                                 recent_window=3)
        np.testing.assert_array_equal(forward.h_macro, backward.h_macro)
        np.testing.assert_array_equal(forward.h_micro, backward.h_micro)

    def test_linear_in_the_embeddings(self, rng):
        table, clusters = world(rng)
        tripled = EmbeddingTable(table.ids, 3.0 * table.embeddings)
        events = history(*(("u1", f"i{k}", 900 * k) for k in range(6)))
        base = build_profile(events, table, clusters, top_m=2, recent_window=3)
        big = build_profile(events, tripled, clusters, top_m=2, recent_window=3)
        np.testing.assert_allclose(big.h_macro, 3.0 * base.h_macro, rtol=1e-14)
        np.testing.assert_allclose(big.h_micro, 3.0 * base.h_micro, rtol=1e-14)

    def test_future_timestamp_rejected(self, rng):
        table, clusters = world(rng)
        events = history(("u1", "i0", 100), ("u1", "i1", 200))
        with pytest.raises(ValidationError, match="event timestamp lies in the future"):
            build_profile(events, table, clusters, top_m=3, recent_window=5, now=150)

    def test_recent_window_below_one_rejected(self, rng):
        table, clusters = world(rng)
        with pytest.raises(ValidationError, match="recent_window must be >= 1"):
            build_profile(UserEvents("u1", (), [], []), table, clusters, top_m=3, recent_window=0)


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
        save_profiles(path, profiles)
        loaded = load_profiles(path)
        assert set(loaded) == {"u1", "u2"}
        np.testing.assert_array_equal(loaded["u1"].h_macro, profiles["u1"].h_macro)
        np.testing.assert_array_equal(loaded["u2"].h_micro, profiles["u2"].h_micro)
