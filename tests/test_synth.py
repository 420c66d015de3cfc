"""Synthetic fixture generator: shape, determinism, and world-model checks."""

import numpy as np
import pytest

from diverank.data import ValidationError, save_behaviors, save_items
from diverank.synth import (
    NOW_TS,
    THIRTY_DAYS,
    SyntheticSpec,
    derive_seed,
    generate,
)

SMALL = dict(
    clusters=2,
    items_per_cluster=5,
    dim=4,
    users=3,
    behaviors_per_user=8,
    candidates_per_user=6,
)


def same_records(a, b) -> bool:
    """Two lists of UserEvents hold equal columns."""
    return len(a) == len(b) and all(
        (x.user_id, x.item_ids) == (y.user_id, y.item_ids)
        and np.array_equal(x.ts, y.ts)
        and np.array_equal(x.labels, y.labels)
        for x, y in zip(a, b)
    )


def small_spec(**overrides) -> SyntheticSpec:
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


class TestDeriveSeed:
    def test_pinned_values(self):
        # Frozen goldens: changing the derivation silently would reshuffle
        # every seeded fixture, so drift must fail loudly.
        assert derive_seed(0, "synth") == 8717832160055552384
        assert derive_seed(0, "cluster") == 11490268612900111303
        assert derive_seed(7, "synth") == 1221810949859136762

    def test_distinct_across_stages_and_seeds(self):
        seeds = {derive_seed(s, stage) for s in range(4) for stage in ("a", "b", "c")}
        assert len(seeds) == 12

    def test_repeatable(self):
        assert derive_seed(42, "train-shuffle") == derive_seed(42, "train-shuffle")


class TestSpecValidation:
    def test_defaults_valid(self):
        spec = SyntheticSpec()
        assert spec.clusters * spec.items_per_cluster >= spec.candidates_per_user

    def test_zero_clusters_rejected(self):
        with pytest.raises(ValidationError, match="clusters must be >= 1"):
            small_spec(clusters=0)

    def test_dim_one_rejected(self):
        with pytest.raises(ValidationError, match="dim must be >= 2"):
            small_spec(dim=1)

    def test_negative_score_noise_rejected(self):
        with pytest.raises(ValidationError, match="score_noise must be >= 0"):
            small_spec(score_noise=-0.1)

    def test_candidates_beyond_catalog_rejected(self):
        with pytest.raises(ValidationError, match="catalog"):
            small_spec(candidates_per_user=11)

    @pytest.mark.parametrize("name", ["noise", "sharpness", "score_noise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_named_as_such(self, name, value):
        with pytest.raises(ValidationError) as err:
            small_spec(**{name: value})
        assert str(err.value) == f"{name} must be finite, got {value}"

    def test_problems_collected(self):
        with pytest.raises(ValidationError) as err:
            small_spec(clusters=0, noise=-1.0)
        assert "clusters must be >= 1" in str(err.value)
        assert "noise must be >= 0" in str(err.value)


class TestWorldShape:
    def test_counts(self):
        world = generate(small_spec())
        assert len(world.items) == 10
        assert [len(events) for events in world.behaviors] == [8] * 3
        assert len(world.candidates) == 3
        assert all(cs.size == 6 for cs in world.candidates)
        assert [len(by_item) for by_item in world.labels.values()] == [6] * 3

    def test_item_ids(self):
        world = generate(small_spec())
        assert list(world.items.ids) == [f"it{i:04d}" for i in range(10)]

    def test_behavior_timestamps_in_window_and_per_user_ascending(self):
        world = generate(small_spec())
        for events in world.behaviors:
            ts = events.ts.tolist()
            assert all(NOW_TS - THIRTY_DAYS <= t <= NOW_TS for t in ts)
            assert set(events.labels.tolist()) <= {0, 1}
            assert ts == sorted(ts)

    def test_labels_are_the_map_load_labels_returns(self):
        world = generate(small_spec())
        assert list(world.labels) == [cs.user_id for cs in world.candidates]
        assert all(set(map(type, by_item.values())) == {int} for by_item in world.labels.values())
        assert all(set(by_item.values()) <= {0, 1} for by_item in world.labels.values())

    def test_candidate_sets_have_unique_scored_items(self):
        world = generate(small_spec())
        for cs in world.candidates:
            assert len(set(cs.ids)) == cs.size
            for score in cs.base_scores:
                assert 0.0 <= score <= 1.0

    def test_labels_align_with_candidates(self):
        world = generate(small_spec())
        labelled = {(user_id, i) for user_id, by_item in world.labels.items() for i in by_item}
        offered = {(cs.user_id, i) for cs in world.candidates for i in cs.ids}
        assert labelled == offered


class TestDeterminism:
    def test_same_seed_same_world(self):
        a = generate(small_spec(seed=3))
        b = generate(small_spec(seed=3))
        assert same_records(a.behaviors, b.behaviors)
        assert a.labels == b.labels
        assert a.items.ids == b.items.ids
        assert np.array_equal(a.items.embeddings, b.items.embeddings)
        for ca, cb in zip(a.candidates, b.candidates):
            assert ca.ids == cb.ids
            assert np.array_equal(ca.base_scores, cb.base_scores)

    def test_serialized_bytes_identical(self, tmp_path):
        for tag in ("a", "b"):
            world = generate(small_spec(seed=5))
            save_items(tmp_path / f"items_{tag}.jsonl", world.items)
            save_behaviors(tmp_path / f"behaviors_{tag}.jsonl", world.behaviors)
        assert (tmp_path / "items_a.jsonl").read_bytes() == (
            tmp_path / "items_b.jsonl"
        ).read_bytes()
        assert (tmp_path / "behaviors_a.jsonl").read_bytes() == (
            tmp_path / "behaviors_b.jsonl"
        ).read_bytes()

    def test_different_seed_different_world(self):
        a = generate(small_spec(seed=0))
        b = generate(small_spec(seed=1))
        assert not np.array_equal(a.items.embeddings[0], b.items.embeddings[0])


class TestWorldModel:
    def test_zero_noise_collapses_clusters_to_unit_centroids(self):
        world = generate(small_spec(noise=0.0))
        for c in range(2):
            block = [world.items.embeddings[c * 5 + j] for j in range(5)]
            for emb in block[1:]:
                assert np.array_equal(emb, block[0])
            assert np.linalg.norm(block[0]) == pytest.approx(1.0, abs=1e-12)

    def test_score_noise_only_perturbs_base_scores(self):
        # The rng stream consumes identical draws either way, so every other
        # artifact must match bit for bit; only base scores may move.
        quiet = generate(small_spec(seed=2, score_noise=0.0))
        loud = generate(small_spec(seed=2, score_noise=4.0))
        assert same_records(quiet.behaviors, loud.behaviors)
        assert quiet.labels == loud.labels
        assert np.array_equal(quiet.items.embeddings, loud.items.embeddings)
        diffs = [
            abs(qa - la)
            for qc, lc in zip(quiet.candidates, loud.candidates)
            for qa, la in zip(qc.base_scores, lc.base_scores)
        ]
        assert max(diffs) > 0.0

    def test_zero_score_noise_scores_match_click_model(self):
        # With no observation noise the upstream score IS the click
        # probability, so labels should look calibrated against it: the
        # high-score half of each candidate set must collect more positives.
        world = generate(small_spec(seed=4, score_noise=0.0, candidates_per_user=10))
        label_of = {
            (user_id, item_id): label for user_id, by_item in world.labels.items() for item_id, label in by_item.items()
        }
        high, low = [], []
        for cs in world.candidates:
            order = np.argsort(cs.base_scores)
            ids = cs.ids
            low.extend(label_of[(cs.user_id, ids[i])] for i in order[:5])
            high.extend(label_of[(cs.user_id, ids[i])] for i in order[5:])
        assert np.mean(high) > np.mean(low)
