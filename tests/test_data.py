"""Record validation, JSONL parsing, and config handling tests."""

import ast
import json
import math
import re
from dataclasses import asdict, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diverank import cli
from diverank.data import (
    NO_LABEL,
    CandidateSet,
    EmbeddingTable,
    ExperimentConfig,
    ParseError,
    RerankResult,
    UserEvents,
    ValidationError,
    _finite_rows,
    _finite_vector,
    load_behaviors,
    load_candidates,
    load_checkpoint,
    load_config,
    load_items,
    load_labels,
    load_results,
    save_behaviors,
    save_candidates,
    save_checkpoint,
    save_items,
    save_labels,
    save_results,
)
from diverank.clustering import save_clusters
from diverank.interests import InterestProfile, load_profiles, save_profiles
from diverank.synth import SyntheticSpec, generate
from oracles import _dumps, behavior_lines, candidates_line, label_lookups, user_records


def make_item(item_id="it1", dim=4, base_score=0.5):
    """One item object as a candidates line spells it."""
    embedding = np.arange(dim, dtype=float).tolist()
    return {"item_id": item_id, "embedding": embedding, "base_score": base_score}


def make_table(*ids, dim=4):
    """A catalog whose every row is arange(dim)."""
    return EmbeddingTable(ids, np.tile(np.arange(dim, dtype=float), (len(ids), 1)))


class TestUserEvents:
    def test_valid(self):
        [events] = user_records(("u1", "i1", 10, 1))
        assert events.ts[0] == 10
        assert events.ts.dtype == np.int64 and events.labels.dtype == np.int8
        assert not events.ts.flags.writeable and not events.labels.flags.writeable

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValidationError):
            user_records(("u1", "i1", -1, NO_LABEL))

    def test_label_domain(self):
        user_records(("u", "i", 0, 0))
        user_records(("u", "i", 0, NO_LABEL))
        with pytest.raises(ValidationError):
            user_records(("u", "i", 0, 2))

    def test_constructor_takes_the_line_values_not_the_stored_code(self):
        """Null is an unlabelled entry; NO_LABEL is only how it is held."""
        with pytest.raises(ValidationError, match=r"^label must be null, 0 or 1, got -1$") as err:
            UserEvents("u1", ("a", "b"), [1, 2], [1, NO_LABEL])
        assert err.value.row == 1

    @pytest.mark.parametrize(
        "ts, labels, message",
        [
            ([1, -1], [True, 2], "entry 1: ts must be an integer >= 0, got -1"),
            ([1, 2], [0, 1.0], "entry 1: label must be null, 0 or 1, got 1.0"),
            ([1, 2], [0, None], "entry 0: item_id must be a non-empty string, got ''"),
        ],
    )
    def test_first_fault_in_the_reader_order(self, tmp_path, ts, labels, message):
        """ts, then labels, then item ids, whether the reader or a caller builds the record."""
        line = {"user_id": "u1", "item_ids": ["", "b"], "ts": ts, "labels": labels}
        path = tmp_path / "behaviors.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(ParseError) as err:
            load_behaviors(str(path))
        assert str(err.value) == f"{path}: line 1: {message}"
        with pytest.raises(ValidationError) as err:
            UserEvents("u1", line["item_ids"], ts, labels)
        assert f"entry {err.value.row}: {err.value}" == message

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 3), st.sampled_from((0, 1, None)))))
    def test_rows_held_in_the_stable_sort_by_ts(self, rows):
        item_ids, ts, labels = zip(*rows) if rows else ((), (), ())
        events = UserEvents("u1", item_ids, list(ts), list(labels))
        want = [(i, t, NO_LABEL if label is None else label) for i, t, label in sorted(rows, key=lambda row: row[1])]
        assert list(zip(events.item_ids, events.ts.tolist(), events.labels.tolist())) == want


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
        path.write_text('{"user_id": "u1", "item_ids": ["i2", "i1"], "ts": [20, 10]}\n')
        [loaded] = load_behaviors(str(path))
        assert loaded.item_ids == ("i1", "i2") and loaded.ts.tolist() == [10, 20]

    def test_duplicates_retained(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        save_behaviors(str(path), user_records(("u1", "i1", 5, 1), ("u1", "i1", 5, 1)))
        [loaded] = load_behaviors(str(path))
        assert len(loaded) == 2

    def test_null_and_absent_label_load_as_no_label(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        path.write_text(
            '{"user_id": "u1", "item_ids": ["a", "b"], "ts": [1, 2], "labels": [null, 0]}\n'
            '{"user_id": "u2", "item_ids": ["c"], "ts": [3]}\n'
        )
        assert [events.labels.tolist() for events in load_behaviors(str(path))] == [[NO_LABEL, 0], [NO_LABEL]]

    def test_typed_field_error_cites_line_and_entry(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        path.write_text(
            '{"user_id": "u2", "item_ids": ["a"], "ts": [1]}\n'
            "\n"
            '{"user_id": "u1", "item_ids": ["b", "c", "d"], "ts": [1, 1.5, 2]}\n'
        )
        with pytest.raises(ParseError) as err:
            load_behaviors(str(path))
        assert err.value.line == 3
        assert f"{path}: line 3: entry 1: ts must be an integer >= 0, got 1.5" == str(err.value)

    def test_first_faulty_line_is_named(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        path.write_text(
            '{"user_id": "u1", "item_ids": ["a"], "ts": [1.5]}\n'
            '{"user_id": "u2", "item_ids": ["b"], "ts": [1]}\n'
            '{"user_id": "u1", "item_ids": ["c"], "ts": [2]}\n'
        )
        with pytest.raises(ParseError) as err:
            load_behaviors(str(path))
        assert str(err.value) == f"{path}: line 1: entry 0: ts must be an integer >= 0, got 1.5"

    def test_label_line_has_no_ts(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"user_id": "u1", "item_ids": ["a", "b"], "labels": [1, 0]}\n')
        assert load_labels(str(path), ["u1"]) == {"u1": {"a": 1, "b": 0}}

    @pytest.mark.parametrize(
        "labels, message",
        [
            ({"u1": {"a": 1, "b": None}}, "label line for (u1, b) lacks a label"),
            ({"u1": {"a": True}}, "label must be null, 0 or 1, got True"),
            ({"u1": {"": 0}}, "item_id must be a non-empty string, got ''"),
            ({"u1": {"a": 0}, 7: {"a": 1}}, "user_id must be a non-empty string, got 7"),
        ],
    )
    def test_label_writer_refuses_what_the_reader_refuses(self, tmp_path, labels, message):
        path = tmp_path / "labels.jsonl"
        with pytest.raises(ValidationError) as err:
            save_labels(str(path), labels)
        assert str(err.value) == message and not path.exists()
        path.write_text("".join(json.dumps({"user_id": u, "item_ids": list(m), "labels": list(m.values())}) + "\n"
                                for u, m in labels.items()))
        with pytest.raises(ParseError, match=re.escape(message)):
            load_labels(str(path), [])

    def test_a_behavior_line_is_not_a_label_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"user_id": "u1", "item_ids": ["a"], "ts": [3]}\n')
        with pytest.raises(ParseError) as err:
            load_labels(str(path), ["u1"])
        assert str(err.value) == f"{path}: line 1: label line missing field 'labels'"

    def test_writer_refuses_two_records_for_one_user(self, tmp_path):
        records = user_records(("u1", "a", 1), ("u2", "b", 2)) + user_records(("u1", "c", 3))
        with pytest.raises(ValidationError, match=r"^two records for user 'u1'$"):
            save_behaviors(str(tmp_path / "behaviors.jsonl"), records)

    def test_sorted_by_user_then_ts_stably(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        path.write_text(
            '{"user_id": "u2", "item_ids": ["a"], "ts": [5]}\n'
            '{"user_id": "u1", "item_ids": ["b", "c", "d"], "ts": [7, 3, 3]}\n'
        )
        loaded = load_behaviors(str(path))
        assert [(events.user_id, events.item_ids, events.ts.tolist()) for events in loaded] == [
            ("u1", ("c", "d", "b"), [3, 3, 7]),
            ("u2", ("a",), [5]),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "behaviors.jsonl"
        records = user_records(("u1", "i1", 5, 1), ("u1", "i2", 2**63 - 1, 0), ("u2", "i9", 7, NO_LABEL))
        save_behaviors(str(path), records)
        loaded = load_behaviors(str(path))
        assert [(e.user_id, e.item_ids) for e in loaded] == [(e.user_id, e.item_ids) for e in records]
        for got, want in zip(loaded, records):
            assert np.array_equal(got.ts, want.ts)
            assert np.array_equal(got.labels, want.labels)


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
        signed = make_item("c", base_score=0.3)
        signed["embedding"][0] = -0.0
        sets = [
            candidate_set("u1", make_item("a", base_score=0.9)),
            candidate_set("u2", make_item("b", base_score=0.2), signed),
        ]
        save_candidates(str(path), sets)
        loaded = load_candidates(str(path))
        assert [cs.user_id for cs in loaded] == ["u1", "u2"]
        assert loaded[1].ids == ("b", "c")
        assert np.array_equal(loaded[1].embeddings, sets[1].embeddings)
        # -0.0 == 0.0, so the sign survives only if the raw bits match.
        assert loaded[1].embeddings.view(np.int64)[1, 0] == np.array(-0.0).view(np.int64)
        for got, want in zip(loaded, sets):
            assert np.array_equal(got.base_scores, want.base_scores)


EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.0, 1e16, 0.1)
EDGE_NUMBERS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
BASE_SCORES = st.sampled_from((-0.0, 0.0, 5e-324, 1.0)) | st.floats(0.0, 1.0)
# Quotes, backslashes, control characters and non-ASCII text, which the
# writers must escape as json.dumps does.
IDS = st.text(st.sampled_from('a"\\\x00\x1f\x7f\u2028é中\U0001f600') | st.characters(), min_size=1, max_size=4)


@st.composite
def candidate_sets(draw):
    """Sets drawing rows from one small pool and ids from one small pool, so
    one row sits under several ids and one id holds different rows."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(EDGE_NUMBERS, min_size=dim, max_size=dim), min_size=1, max_size=4))
    id_pool = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        ids = draw(st.lists(st.sampled_from(id_pool), min_size=1, max_size=len(id_pool), unique=True))
        n = len(ids)
        rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        scores = draw(st.lists(BASE_SCORES, min_size=n, max_size=n))
        sets.append(CandidateSet(draw(IDS), tuple(ids), np.array(rows).reshape(n, dim), scores))
    return sets


@st.composite
def rerank_results(draw):
    n = draw(st.integers(0, 4))
    column = st.lists(EDGE_NUMBERS, min_size=n, max_size=n).map(tuple)
    return RerankResult(
        user_id=draw(IDS),
        item_ids=tuple(draw(st.lists(IDS, min_size=n, max_size=n, unique=True))),
        scores=draw(column),
        log_d2=draw(column),
        marginals=draw(column),
        objective=draw(EDGE_NUMBERS),
        exhausted=draw(st.booleans()),
    )


def matrices(rows=st.integers(0, 3), cols=st.integers(1, 3)):
    """(r, c) float matrices of EDGE_NUMBERS."""
    return st.tuples(rows, cols).flatmap(lambda shape: st.lists(
        EDGE_NUMBERS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda data: np.array(data, dtype=np.float64).reshape(shape)))


EDGE_SETS = [
    CandidateSet('u"\\\x01é', ("a", "b\x7f中"), [[-0.0, 5e-324, 2.0]] * 2, [-0.0, 5e-324]),
    CandidateSet("u2", ("a",), [[1.7976931348623157e308, -1.7976931348623157e308, 1.0]], [1.0]),
]
EDGE_ROWS = [("u\x00", 'i"\\', 2**63 - 1, NO_LABEL), ("u1", "i\u2028", 0, 0), ("u1", "é", 3, 1)]


class TestWriterOracle:
    """Every JSON writer must match, byte for byte, one `json.dumps` with
    sorted keys per line (`oracles._dumps`), on edge floats and on ids
    that need escaping."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(sets=candidate_sets())
    @example(sets=EDGE_SETS)
    def test_candidates_match_dumps(self, tmp_path_factory, sets):
        path = tmp_path_factory.getbasetemp() / "oracle_candidates.jsonl"
        save_candidates(str(path), sets)
        want = "".join(candidates_line(cs) + "\n" for cs in sets)
        assert path.read_bytes() == want.encode("utf-8")

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                IDS,
                IDS,
                st.sampled_from((0, 2**63 - 1)) | st.integers(0, 2**63 - 1),
                st.sampled_from((0, 1, NO_LABEL)),
            ),
            max_size=6,
        )
    )
    @example(rows=EDGE_ROWS)
    def test_behaviors_match_dumps(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "oracle_behaviors.jsonl"
        records = user_records(*rows)
        save_behaviors(str(path), records)
        want = "".join(line + "\n" for line in behavior_lines(records))
        assert path.read_bytes() == want.encode("utf-8")

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(labels=st.dictionaries(IDS, st.dictionaries(IDS, st.sampled_from((0, 1)), max_size=4), max_size=4))
    def test_labels_match_dumps(self, tmp_path_factory, labels):
        path = tmp_path_factory.getbasetemp() / "oracle_labels.jsonl"
        save_labels(str(path), labels)
        self.assert_lines(path, (
            {"user_id": user_id, "item_ids": list(labels[user_id]), "labels": list(labels[user_id].values())}
            for user_id in sorted(labels)
        ))

    @staticmethod
    def assert_lines(path, docs):
        assert path.read_bytes() == "".join(_dumps(doc) + "\n" for doc in docs).encode("utf-8")

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(ids=st.lists(IDS, max_size=4, unique=True), embs=matrices(rows=st.just(4)))
    @example(ids=['a"\\', "\x00", "\u2028", "中"], embs=np.array(EDGE_FLOATS[:4] * 2).reshape(4, 2))
    def test_items_match_dumps(self, tmp_path_factory, ids, embs):
        path = tmp_path_factory.getbasetemp() / "oracle_items.jsonl"
        embs = embs[: len(ids)]
        save_items(str(path), EmbeddingTable(tuple(ids), embs))
        self.assert_lines(path, ({"item_id": i, "embedding": e} for i, e in zip(ids, embs.tolist())))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(rerank_results(), max_size=3))
    def test_results_match_dumps(self, tmp_path_factory, results):
        path = tmp_path_factory.getbasetemp() / "oracle_results.jsonl"
        save_results(str(path), results)
        self.assert_lines(path, (
            {"user_id": r.user_id, "item_ids": list(r.item_ids), "scores": list(r.scores), "log_d2": list(r.log_d2),
             "marginals": list(r.marginals), "objective": r.objective, "exhausted": r.exhausted}
            for r in results
        ))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.dictionaries(IDS, st.sampled_from((0, 2**63 - 1)) | st.integers(0, 10**6), max_size=5))
    def test_clusters_match_dumps(self, tmp_path_factory, item_clusters):
        path = tmp_path_factory.getbasetemp() / "oracle_clusters.jsonl"
        save_clusters(str(path), item_clusters)
        self.assert_lines(path, ({"item_id": i, "cluster_id": item_clusters[i]} for i in sorted(item_clusters)))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.dictionaries(IDS, matrices(rows=st.just(2)), max_size=3))
    def test_profiles_match_dumps(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "oracle_profiles.jsonl"
        save_profiles(str(path), {user_id: InterestProfile(user_id, *vectors) for user_id, vectors in rows.items()})
        self.assert_lines(path, (
            {"user_id": user_id, "h_macro": rows[user_id][0].tolist(), "h_micro": rows[user_id][1].tolist()}
            for user_id in sorted(rows)
        ))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        arrays=st.dictionaries(IDS, matrices(cols=st.integers(0, 3)), max_size=3),
        meta=st.dictionaries(IDS, IDS | EDGE_NUMBERS | st.integers(), max_size=3),
    )
    def test_checkpoint_matches_dumps(self, tmp_path_factory, arrays, meta):
        path = tmp_path_factory.getbasetemp() / "oracle_checkpoint.json"
        save_checkpoint(str(path), arrays, meta)
        tensors = [{"name": name, "shape": list(arrays[name].shape), "data": arrays[name].ravel().tolist()}
                   for name in sorted(arrays)]
        self.assert_lines(path, [{"version": 1, "meta": meta, "tensors": tensors}])


USERS = ("u1", "u2", "u\u2028", "u9")  # u9 never has a line


def behavior_rows(labelled):
    """(user, item, ts, label) rows whose users interleave and whose
    timestamps often tie; a label file's rows are labelled, without a ts."""
    stamps = st.none() if labelled else st.sampled_from((0, 1, 2**63 - 1)) | st.integers(0, 3)
    labels = st.sampled_from((0, 1) if labelled else (0, 1, NO_LABEL))
    row = st.tuples(st.sampled_from(USERS[:3]), st.sampled_from(("a", "b", "é")), stamps, labels)
    return st.lists(row, max_size=12)


class TestBehaviorRoundTrip:
    """Writing rows as records and reading them back gives the rows stably
    sorted by (user_id, ts): tied rows keep their order, which profiles
    depend on."""

    def test_save_then_load_is_the_stable_sort(self, tmp_path_factory):
        @settings(derandomize=True, max_examples=80, deadline=None)
        @given(rows=behavior_rows(labelled=False))
        def check(rows):
            path = tmp_path_factory.getbasetemp() / "round_trip_behaviors.jsonl"
            save_behaviors(str(path), user_records(*rows))
            loaded = [
                (events.user_id, item_id, ts, label)
                for events in load_behaviors(str(path))
                for item_id, ts, label in zip(events.item_ids, events.ts.tolist(), events.labels.tolist())
            ]
            want = sorted(rows, key=lambda row: (row[0], row[2]))  # sorted() is stable
            assert loaded == want

        check()

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(rows=behavior_rows(labelled=True), users=st.lists(st.sampled_from(USERS), max_size=4))
    def test_labels_load_as_the_json_reference_and_save_back(self, tmp_path_factory, rows, users):
        """Repeated items (last label wins), absent users and empty requests
        included; the map read back writes a file that reads as that map."""
        path = tmp_path_factory.getbasetemp() / "round_trip_labels.jsonl"
        by_user: dict = {}
        for user_id, item_id, _, label in rows:
            by_user.setdefault(user_id, {"user_id": user_id, "item_ids": [], "labels": []})
            by_user[user_id]["item_ids"].append(item_id)
            by_user[user_id]["labels"].append(label)
        path.write_text("".join(_dumps(doc) + "\n" for doc in by_user.values()), encoding="utf-8")
        assert load_labels(str(path), users) == label_lookups(str(path), users)
        everyone = load_labels(str(path), USERS)
        save_labels(str(path), everyone)
        assert load_labels(str(path), USERS) == everyone


class TestItemRoundTrip:
    def test_field_for_field(self, tmp_path, rng):
        path = tmp_path / "items.jsonl"
        table = EmbeddingTable(tuple(f"it{i}" for i in range(10)), rng.normal(size=(10, 6)))
        save_items(str(path), table)
        loaded = load_items(str(path))
        assert loaded.ids == table.ids
        assert np.array_equal(loaded.embeddings, table.embeddings)


def bits(arr: np.ndarray) -> tuple:
    """What bit-equality compares: dtype, shape and raw bytes (-0.0 included)."""
    return arr.dtype.str, arr.shape, arr.tobytes()


class TestEveryReaderReturnsWhatItsWriterTook:
    """Each line file has one in-memory form, the one its reader returns:
    reading back what a writer wrote gives it unchanged, arrays bit for bit."""

    def test_synth_world(self, tmp_path):
        spec = dict(clusters=3, items_per_cluster=6, dim=4, users=5, behaviors_per_user=7, candidates_per_user=9)
        argv = [f"--{name.replace('_', '-')}={value}" for name, value in spec.items()]
        assert cli.main(["synth", "--out", str(tmp_path), "--seed", "11", *argv]) == 0
        world = generate(SyntheticSpec(**spec, seed=11))

        items = load_items(str(tmp_path / "items.jsonl"))
        assert items.ids == world.items.ids and bits(items.embeddings) == bits(world.items.embeddings)
        columns = attrgetter("user_id", "item_ids")
        for got, want in zip(load_behaviors(str(tmp_path / "behaviors.jsonl")), world.behaviors, strict=True):
            assert columns(got) == columns(want)
            assert (bits(got.ts), bits(got.labels)) == (bits(want.ts), bits(want.labels))
        columns = attrgetter("user_id", "ids")
        for got, want in zip(load_candidates(str(tmp_path / "candidates.jsonl")), world.candidates, strict=True):
            assert columns(got) == columns(want)
            assert (bits(got.embeddings), bits(got.base_scores)) == (bits(want.embeddings), bits(want.base_scores))
        assert load_labels(str(tmp_path / "labels.jsonl"), world.labels) == world.labels

    def test_profiles(self, tmp_path):
        path = str(tmp_path / "profiles.jsonl")
        edge = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1])
        profiles = {"u2": InterestProfile("u2", edge, -edge), 'u"1': InterestProfile('u"1', np.zeros(4), edge[::-1])}
        save_profiles(path, profiles)
        loaded = load_profiles(path)
        assert sorted(loaded) == sorted(profiles)
        for user_id, want in profiles.items():
            got = loaded[user_id]
            assert got.user_id == user_id
            assert (bits(got.h_macro), bits(got.h_micro)) == (bits(want.h_macro), bits(want.h_micro))


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
            ExperimentConfig(b_l=0.0, k=0, b_s=-1.0)
        message = str(err.value)
        assert "b_l" in message
        assert "k" in message
        assert "b_s" in message

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig) if f.type == "float"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_named_as_such(self, name, value):
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(**{name: value})
        assert str(err.value) == f"{name} must be finite, got {value}"

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

    def test_readme_table_names_every_field_once(self):
        """README's Configuration table documents exactly the config fields."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        names = [name for cell in cells for name in re.findall(r"`(\w+)`", cell)]
        assert sorted(names) == sorted(f.name for f in fields(ExperimentConfig))


def float_bits(res):
    """Every number of a result as int64 bit patterns, so that -0.0 differs from 0.0."""
    return np.array([*res.scores, *res.log_d2, *res.marginals, res.objective]).view(np.int64).tolist()


class TestResultsIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "results.jsonl"
        results = [
            RerankResult(
                user_id="u1",
                item_ids=("a", "b"),
                scores=(0.9, 0.5),
                log_d2=(0.0, -0.3),
                marginals=(0.9, 0.2),
                objective=1.1,
                exhausted=False,
            )
        ]
        save_results(str(path), results)
        assert path.read_text() == (
            '{"exhausted":false,"item_ids":["a","b"],"log_d2":[0.0,-0.3],'
            '"marginals":[0.9,0.2],"objective":1.1,"scores":[0.9,0.5],"user_id":"u1"}\n'
        )
        loaded = load_results(str(path))
        assert loaded == results

    @settings(
        derandomize=True, max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(rerank_results(), max_size=3, unique_by=lambda res: res.user_id))
    @example([
        RerankResult('u"\\\x01', ('a"', "b\\", "\x1f", "\u00fc\u20ac"), EDGE_FLOATS[:4], EDGE_FLOATS[3:],
                     (0.0, *EDGE_FLOATS[1:4]), -0.0, True),
        RerankResult("\u00e9", ("x",), (-0.0,), (1.7976931348623157e308,), (-1.7976931348623157e308,), 5e-324),
    ])
    def test_save_then_load_is_the_identity(self, tmp_path, results):
        path = tmp_path / "results.jsonl"
        save_results(str(path), results)
        loaded = load_results(str(path))
        assert loaded == results
        assert [float_bits(res) for res in loaded] == [float_bits(res) for res in results]

    def test_columns_must_match_item_ids(self):
        with pytest.raises(ValidationError, match="one entry per item id"):
            RerankResult("u1", ("a", "b"), (0.5, 0.5), (0.0,), (0.5, 0.5), 1.0)


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


class TestCheckpoint:
    def test_round_trip_with_meta(self, tmp_path, rng):
        path = str(tmp_path / "ckpt.json")
        arrays = {
            "layer.w": rng.normal(size=(3, 4)),
            "layer.b": rng.normal(size=(1, 4)),
        }
        save_checkpoint(path, arrays, meta={"dim": 4, "note": "x"})
        loaded, meta = load_checkpoint(path)
        assert set(loaded) == {"layer.w", "layer.b"}
        np.testing.assert_array_equal(loaded["layer.w"], arrays["layer.w"])
        assert meta["dim"] == 4
        assert meta["note"] == "x"

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 999}\n')
        with pytest.raises(ValidationError):
            load_checkpoint(str(path))


def test_only_the_line_and_csv_helpers_open_files():
    """No code in `src/diverank` opens a file but the four IO helpers, so
    every file is read and written under one rule."""
    helpers = {"_load_lines", "_load_json_object", "_save_lines", "_save_csv"}
    file_methods = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
    found = []
    for path in sorted((Path(__file__).parents[1] / "src" / "diverank").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in file_methods:
                found.append((path.name, function, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
    assert found and all(function in helpers for _, function, _ in found), found
