"""Record validation, JSONL parsing, and config handling tests."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverank.data import (
    NO_LABEL,
    BehaviorLog,
    CandidateSet,
    EmbeddingTable,
    ExperimentConfig,
    ParseError,
    ValidationError,
    _finite_rows,
    _finite_vector,
    load_behaviors,
    load_candidates,
    load_config,
    load_items,
    load_results,
    save_behaviors,
    save_candidates,
    save_items,
    save_results,
)


def make_item(item_id="it1", dim=4, base_score=0.5):
    """One item object as a candidates line spells it."""
    embedding = np.arange(dim, dtype=float).tolist()
    return {"item_id": item_id, "embedding": embedding, "base_score": base_score}


def make_table(*ids, dim=4):
    """A catalog whose every row is arange(dim)."""
    return EmbeddingTable(ids, np.tile(np.arange(dim, dtype=float), (len(ids), 1)))


def make_log(*rows):
    """A BehaviorLog from (user_id, item_id, ts, label) rows."""
    users, items, ts, labels = zip(*rows) if rows else ((), (), (), ())
    return BehaviorLog(users, items, ts, labels)


class TestBehaviorLog:
    def test_valid(self):
        log = make_log(("u1", "i1", 10, 1))
        assert log.ts[0] == 10
        assert log.ts.dtype == np.int64 and log.labels.dtype == np.int8
        assert not log.ts.flags.writeable and not log.labels.flags.writeable

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValidationError):
            make_log(("u1", "i1", -1, NO_LABEL))

    def test_label_domain(self):
        make_log(("u", "i", 0, 0))
        make_log(("u", "i", 0, NO_LABEL))
        with pytest.raises(ValidationError):
            make_log(("u", "i", 0, 2))


class TestEmbeddingTable:
    def test_valid(self):
        table = make_table("it1")
        assert table.dim == 4
        assert table.ids == ("it1",)

    def test_embedding_read_only(self):
        table = make_table("it1")
        with pytest.raises(ValueError):
            table.embeddings[0, 0] = 99.0

    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError):
            make_table("")

    def test_empty_embedding_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingTable(("x",), np.empty((1, 0)))

    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "items.jsonl"
        save_items(str(path), make_table("it0", "it1", "it2"))
        table = load_items(str(path))
        assert len(table) == 3
        assert table.dim == 4
        assert table.ids == ("it0", "it1", "it2")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text("")
        table = load_items(str(path))
        assert len(table) == 0
        with pytest.raises(ValidationError):
            table.dim  # no rows, no dimension

    def test_dim_mismatch_cites_line(self, tmp_path):
        path = tmp_path / "items.jsonl"
        lines = [
            json.dumps({"item_id": "a", "embedding": [1, 2, 3, 4]}),
            json.dumps({"item_id": "b", "embedding": [1, 2, 3]}),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_items(str(path))
        assert err.value.line == 2
        assert "2" in str(err.value)

    def test_malformed_json_cites_line(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text('{"item_id": "a", "embedding": [1]}\nnot json\n')
        with pytest.raises(ParseError) as err:
            load_items(str(path))
        assert err.value.line == 2

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValidationError):
            make_table("a", "a")

    def test_duplicate_id_cites_line(self, tmp_path):
        path = tmp_path / "items.jsonl"
        save_items(str(path), make_table("a", "b"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"item_id": "a", "embedding": [0, 1, 2, 3]}) + "\n")
        with pytest.raises(ParseError) as err:
            load_items(str(path))
        assert err.value.line == 3
        assert "duplicate" in str(err.value)

    def test_matrix_row_order(self):
        table = EmbeddingTable(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(table.rows(table.ids), np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestBehaviorIO:
    def test_out_of_order_events_sorted(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        events = make_log(
            ("u1", "i2", 20, NO_LABEL),
            ("u1", "i1", 10, NO_LABEL),
        )
        save_behaviors(str(path), events)
        loaded = load_behaviors(str(path))
        assert loaded.ts.tolist() == [10, 20]

    def test_duplicates_retained(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        events = make_log(
            ("u1", "i1", 5, 1),
            ("u1", "i1", 5, 1),
        )
        save_behaviors(str(path), events)
        assert len(load_behaviors(str(path))) == 2

    def test_null_and_absent_label_load_as_no_label(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        path.write_text(
            '{"user_id": "u1", "item_id": "a", "ts": 1, "label": null}\n'
            '{"user_id": "u1", "item_id": "b", "ts": 2}\n'
            '{"user_id": "u1", "item_id": "c", "ts": 3, "label": 0}\n'
        )
        assert load_behaviors(str(path)).labels.tolist() == [NO_LABEL, NO_LABEL, 0]

    def test_typed_field_error_cites_line(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        path.write_text(
            '{"user_id": "u2", "item_id": "a", "ts": 1}\n'
            "\n"
            '{"user_id": "u1", "item_id": "b", "ts": 1.5}\n'
        )
        with pytest.raises(ParseError) as err:
            load_behaviors(str(path))
        assert err.value.line == 3
        assert "ts must be an integer" in str(err.value)

    def test_sorted_by_user_then_ts_stably(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        events = make_log(
            ("u2", "a", 5, NO_LABEL),
            ("u1", "b", 7, NO_LABEL),
            ("u1", "c", 3, NO_LABEL),
            ("u1", "d", 3, NO_LABEL),
        )
        save_behaviors(str(path), events)
        loaded = load_behaviors(str(path))
        assert loaded.item_ids == ("c", "d", "b", "a")
        assert loaded.ts.tolist() == [3, 3, 7, 5]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        events = make_log(
            ("u1", "i1", 5, 1),
            ("u2", "i9", 7, NO_LABEL),
        )
        save_behaviors(str(path), events)
        loaded = load_behaviors(str(path))
        assert (loaded.user_ids, loaded.item_ids) == (events.user_ids, events.item_ids)
        assert np.array_equal(loaded.ts, events.ts)
        assert np.array_equal(loaded.labels, events.labels)


def candidate_set(user_id, *items):
    """Build a CandidateSet from item objects the way a candidates line does."""
    return CandidateSet.from_dict({"user_id": user_id, "items": list(items)})


class TestCandidateSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            candidate_set("u1", make_item("a"), make_item("a"))

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValidationError):
            candidate_set("u1", make_item("a", dim=4), make_item("b", dim=3))

    def test_missing_base_score_rejected(self):
        with pytest.raises(ValidationError):
            candidate_set("u1", make_item("a", base_score=None))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            candidate_set("u1")

    def test_accessors(self):
        cs = candidate_set("u1", make_item("a", base_score=0.9), make_item("b", base_score=0.1))
        assert cs.ids == ("a", "b")
        assert cs.size == 2
        assert np.array_equal(cs.base_scores, np.array([0.9, 0.1]))
        assert cs.embeddings.shape == (2, 4)

    def test_columns_are_read_only_copies(self):
        embs = np.zeros((2, 3))
        cs = CandidateSet("u1", ("a", "b"), embs, np.array([0.5, 0.5]))
        embs[0, 0] = 9.0
        assert cs.embeddings[0, 0] == 0.0
        with pytest.raises(ValueError):
            cs.embeddings[0, 0] = 1.0
        with pytest.raises(ValueError):
            cs.base_scores[0] = 1.0

    def test_round_trip(self, tmp_path):
        path = tmp_path / "candidates.jsonl"
        sets = [
            candidate_set("u1", make_item("a", base_score=0.9)),
            candidate_set("u2", make_item("b", base_score=0.2), make_item("c", base_score=0.3)),
        ]
        save_candidates(str(path), sets)
        loaded = load_candidates(str(path))
        assert [cs.user_id for cs in loaded] == ["u1", "u2"]
        assert loaded[1].ids == ("b", "c")
        assert np.array_equal(loaded[1].embeddings, sets[1].embeddings)


class TestItemRoundTrip:
    def test_field_for_field(self, tmp_path, rng):
        path = tmp_path / "items.jsonl"
        table = EmbeddingTable(tuple(f"it{i}" for i in range(10)), rng.normal(size=(10, 6)))
        save_items(str(path), table)
        loaded = load_items(str(path))
        assert loaded.ids == table.ids
        assert np.array_equal(loaded.embeddings, table.embeddings)


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig()

    def test_alpha_zero_allowed(self):
        ExperimentConfig(alpha=0.0)

    def test_b_l_zero_message(self):
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(b_l=0.0)
        assert "b_l must be positive" in str(err.value)

    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(k=0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(alpha=-0.5)

    def test_all_violations_collected(self):
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(b_l=0.0, k=0, a_s=-1.0)
        message = str(err.value)
        assert "b_l" in message
        assert "k" in message
        assert "a_s" in message

    def test_item_kernel_defaults_inherit(self):
        cfg = ExperimentConfig(a_s=2.0, b_s=3.0)
        assert cfg.a_item == 2.0
        assert cfg.b_item == 3.0
        explicit = ExperimentConfig(a_s=2.0, b_s=3.0, a_item=5.0, b_item=7.0)
        assert explicit.a_item == 5.0
        assert explicit.b_item == 7.0

    def test_replace_is_checked(self):
        with pytest.raises(ValidationError) as err:
            replace(ExperimentConfig(), alpha=-1.0)
        assert "alpha must be >= 0" in str(err.value)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        cfg = ExperimentConfig(alpha=2.0, beta1=0.25, k=7, diversity_only_init=True)
        path.write_text(json.dumps(asdict(cfg)) + "\n")
        assert load_config(str(path)) == cfg

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"alpha": 1.0, "bogus": 2}\n')
        with pytest.raises(ValidationError):
            load_config(str(path))


class TestResultsIO:
    def test_round_trip(self, tmp_path):
        from diverank.data import RerankResult, SelectionStep

        path = tmp_path / "results.jsonl"
        results = [
            RerankResult(
                user_id="u1",
                item_ids=("a", "b"),
                steps=(
                    SelectionStep("a", score=0.9, log_d2=0.0, marginal=0.9),
                    SelectionStep("b", score=0.5, log_d2=-0.3, marginal=0.2),
                ),
                objective=1.1,
                exhausted=False,
            )
        ]
        save_results(str(path), results)
        loaded = load_results(str(path))
        assert loaded == results


# JSON-shaped values: numbers (ints up to 10**400, floats with NaN and
# inf), the values numpy would coerce to numbers, and nested lists.
FINITE_NUMBERS = st.one_of(st.integers(-1000, 1000), st.floats(-1e3, 1e3))
JSON_LEAVES = st.one_of(
    FINITE_NUMBERS,
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=8)


@st.composite
def json_rows(draw):
    """Rows mostly of one width, so that well-formed matrices come up."""
    width = draw(st.integers(0, 3))
    row = st.one_of(
        st.lists(FINITE_NUMBERS, min_size=width, max_size=width),
        st.lists(JSON_LEAVES, min_size=width, max_size=width),
        JSON_VALUES,
    )
    return draw(st.lists(row, max_size=4))


def accepted_numbers(values):
    """The floats the number rule should read from `values`, else None."""
    if not isinstance(values, list) or not values:
        return None
    if not all(type(v) in (int, float) for v in values):
        return None
    try:
        floats = [float(v) for v in values]
    except OverflowError:
        return None
    return floats if all(map(math.isfinite, floats)) else None


class TestNumberRule:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_vector_is_its_finite_numbers_or_a_validation_error(self, values):
        want = accepted_numbers(values)
        try:
            vec = _finite_vector(values, "v")
        except ValidationError:
            assert want is None
        else:
            assert vec.dtype == np.float64
            assert vec.tolist() == want

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(json_rows())
    def test_rows_are_one_matrix_or_name_the_first_bad_row(self, rows):
        want = [accepted_numbers(row) for row in rows]
        # Row 0 is checked first, so a bad row 0 stops the scan before its width is read.
        bad = next((r for r, row in enumerate(want) if row is None or len(row) != len(want[0])), None)
        try:
            embs = _finite_rows(rows, [f"i{r}" for r in range(len(rows))], "")
        except ValidationError as exc:
            assert bad is not None and exc.row == bad
            assert f"item i{bad}: embedding" in str(exc)
        else:
            assert bad is None
            assert embs.dtype == np.float64
            assert embs.shape == ((len(rows), len(want[0])) if rows else (0, 0))
            assert embs.tolist() == want
