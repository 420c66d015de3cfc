"""Core record types, validation, and the reading and writing of every file.

Item lines, candidate sets, behavior and label lines, experiment
configuration, re-ranking results and scorer checkpoints are read and
written here; candidates, behaviors, labels and results hold one line per
user, and each writer takes the form its reader returns.  The other
formats are built by their stage: cluster lines in `clustering`, profile
lines in `interests`, the training log in `accuracy`, and the
diagnostics, eval, sweep and kernel-dump CSVs in `cli`.  Every file,
theirs too, is read by `_load_lines`, whose errors name the file and,
where it is known, the line, and written by `_save_lines` (JSON, one
deterministic encoder) or `_save_csv`, so a pipeline re-run with the same
seed writes byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


class ValidationError(ValueError):
    """A record or configuration violates a documented constraint.

    `row` is the index of the offending row when a column check found one.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ParseError(ValueError):
    """An input file could not be parsed; the message starts with the file's
    path and the offending line number, where each is known."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(RuntimeError):
    """A numerical operation failed (singular kernel, non-finite values)."""


def _check_id(value, name: str, where: str = "", row: int | None = None) -> None:
    """Every id in every input format is a non-empty string."""
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{where}{name} must be a non-empty string, got {value!r}", row)


_NUMBER_TYPES = {int, float}  # what json parses a number to; a bool is a type of its own


def _finite_vector(values, name: str, size: int | None = None) -> np.ndarray:
    """A JSON list of numbers as a finite float64 vector.

    This is the one rule for a JSON number: an int or a float that
    converts to a finite float64, never a bool, string, null or nested
    list, although numpy would convert some of those.  The list holds
    exactly `size` numbers, or at least one when `size` is None.
    """
    if (
        not isinstance(values, list)
        or (len(values) != size if size is not None else not values)
        or not set(map(type, values)) <= _NUMBER_TYPES
    ):
        count = "a non-empty list" if size is None else f"a list of {size}"
        raise ValidationError(f"{name} must be {count} numbers")
    try:
        vec = np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValidationError(f"{name} has an integer too large for float64") from None
    if not np.isfinite(vec).all():
        raise ValidationError(f"{name} has non-finite values")
    return vec


def _finite_number(value, name: str) -> float:
    """One JSON number under the rule of `_finite_vector`."""
    if type(value) is float and math.isfinite(value):  # most fields; numpy costs more
        return value
    if type(value) not in _NUMBER_TYPES:
        raise ValidationError(f"{name} must be a number")
    return _finite_vector([value], name).item()


def _finite_rows(rows: list, ids: Sequence, where: str) -> np.ndarray:
    """Embedding rows as one (n, d) array under the rule of `_finite_vector`.

    Well-formed rows cost one type scan and one conversion.  Otherwise each
    row is read with d taken from the first, and the first bad one is named.
    """
    if not rows:
        return np.empty((0, 0))
    if set(map(type, rows)) == {list} and set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES:
        try:
            embs = np.array(rows, dtype=np.float64)
        except (ValueError, OverflowError):  # ragged rows, or an int too large
            pass
        else:
            if embs.ndim == 2 and embs.shape[1] and np.isfinite(embs).all():
                return embs
    dim = len(rows[0]) if type(rows[0]) is list and rows[0] else None
    vecs = []
    for row, values in enumerate(rows):
        try:
            vecs.append(_finite_vector(values, f"{where}item {ids[row]}: embedding", dim))
        except ValidationError as exc:
            raise ValidationError(str(exc), row) from None
    return np.array(vecs)


def _check_id_column(ids: Sequence, name: str, where: str = "") -> tuple[str, ...]:
    """The ids as a tuple, each checked to be a non-empty string as one column.

    A failure names the first offending row in `ValidationError.row`.
    """
    ids = tuple(ids)
    if not (set(map(type, ids)) <= {str} and "" not in ids):
        for row, value in enumerate(ids):
            _check_id(value, name, where, row)
    return ids


def _check_columns(
    ids: Sequence[str], embeddings, where: str = ""
) -> tuple[tuple[str, ...], np.ndarray]:
    """Validate an id column and its embedding rows once, as whole columns.

    Ids must be unique non-empty strings, and `embeddings` one finite
    float row of a single dimension d >= 1 per id.  Returns the ids as a
    tuple and a read-only float64 copy of the rows.  Errors start with
    `where` and name the offending row in `ValidationError.row`.
    """
    ids = _check_id_column(ids, "item_id", where)
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for row, item_id in enumerate(ids):
            if item_id in seen:
                raise ValidationError(f"{where}duplicate item {item_id!r}", row)
            seen.add(item_id)
    n = len(ids)
    embs = np.array(embeddings, dtype=np.float64)
    if embs.ndim != 2 or embs.shape[0] != n or (n and not embs.shape[1]):
        raise ValidationError(f"{where}embeddings must be ({n}, d) with d >= 1")
    bad = ~np.isfinite(embs).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValidationError(f"{where}item {ids[row]}: embedding contains non-finite values", row)
    embs.flags.writeable = False
    return ids, embs


NO_LABEL = -1


def _ts_column(values: Sequence) -> np.ndarray:
    """JSON `ts` values as int64: each must be an int (not a bool) in [0, 2**63)."""
    if set(map(type, values)) <= {int} and (not values or min(values) >= 0 and max(values) < 2**63):
        return np.array(values, dtype=np.int64)
    row = next(r for r, v in enumerate(values) if type(v) is not int or not 0 <= v < 2**63)
    raise ValidationError(f"ts must be an integer >= 0, got {values[row]!r}", row)


def _label_column(values: Sequence) -> np.ndarray:
    """JSON label values as int8 codes: null is NO_LABEL, else the int 0 or 1."""
    # Types first: a list label is unhashable, and True and 1.0 equal 1.
    if set(map(type, values)) <= {int, type(None)} and set(values) <= {None, 0, 1}:
        return np.array([NO_LABEL if v is None else v for v in values], dtype=np.int8)
    row = next(
        r for r, v in enumerate(values) if v is not None and (type(v) is not int or v not in (0, 1))
    )
    raise ValidationError(f"label must be null, 0 or 1, got {values[row]!r}", row)


@dataclass(frozen=True, eq=False)
class UserEvents:
    """One user's events, as one behavior line holds them, in columns.

    Row r says that the user met `item_ids[r]` at time `ts[r]` with label
    `labels[r]`.  The constructor takes the line's own lists, `ts` of ints
    >= 0 and `labels` of null, 0 or 1, checks each once by the reader's
    rule (ts, then labels, then item ids; a failure names its row in
    `ValidationError.row`) and holds them as read-only int64 and int8
    arrays, a null label as NO_LABEL, in the stable sort by `ts`.
    """

    user_id: str
    item_ids: tuple[str, ...]
    ts: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        _check_id(self.user_id, "user_id")
        ts, labels = _ts_column(self.ts), _label_column(self.labels)
        item_ids = _check_id_column(self.item_ids, "item_id")
        n = len(item_ids)
        if ts.shape != (n,) or labels.shape != (n,):
            raise ValidationError(f"event columns must all hold {n} rows")
        if (ts[1:] < ts[:-1]).any():
            order = np.argsort(ts, kind="stable")
            item_ids = tuple(item_ids[r] for r in order.tolist())
            ts, labels = ts[order], labels[order]
        ts.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "item_ids", item_ids)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.item_ids)


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """The item catalog, held as columns like a candidate set.

    Row r of `embeddings` (n, d) belongs to `ids[r]`; the array is a
    read-only float64 copy, validated once as a whole.  An empty table
    has no dimension.
    """

    ids: tuple[str, ...]
    embeddings: np.ndarray
    _row_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        ids, embs = _check_columns(self.ids, self.embeddings)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "embeddings", embs)
        object.__setattr__(self, "_row_of", {item_id: row for row, item_id in enumerate(ids)})

    @property
    def dim(self) -> int:
        if not self.ids:
            raise ValidationError("embedding table is empty")
        return self.embeddings.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._row_of

    def rows(self, ids: Iterable[str]) -> np.ndarray:
        """The (m, d) embedding rows of `ids`, in the order given."""
        try:
            return self.embeddings[[self._row_of[i] for i in ids]]
        except KeyError as exc:
            raise ValidationError(f"unknown item_id {exc.args[0]!r}") from None


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """The per-user input to re-ranking, held as columns.

    Row r of `embeddings` (n, d) and of `base_scores` (n,) belongs to
    `ids[r]`.  Both arrays are read-only float64 copies, validated once
    as whole arrays; ids and embeddings pass the same `_check_columns` as
    the item catalog.
    """

    user_id: str
    ids: tuple[str, ...]
    embeddings: np.ndarray
    base_scores: np.ndarray

    def __post_init__(self):
        _check_id(self.user_id, "user_id")
        where = f"candidate set {self.user_id}: "
        ids, embs = _check_columns(self.ids, self.embeddings, where)
        n = len(ids)
        if not n:
            raise ValidationError(f"{where}needs >= 1 item")
        scores = np.array(self.base_scores, dtype=np.float64)
        if scores.shape != (n,):
            raise ValidationError(f"{where}base_scores must be ({n},)")
        bad = ~((scores >= 0.0) & (scores <= 1.0))  # NaN fails both sides
        if bad.any():
            raise ValidationError(
                f"{where}item {ids[int(np.argmax(bad))]}: base_score must lie in [0, 1]"
            )
        scores.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "embeddings", embs)
        object.__setattr__(self, "base_scores", scores)

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @classmethod
    def from_dict(cls, doc: dict) -> "CandidateSet":
        """Build the columns straight from one parsed candidates line; a
        missing field is a KeyError."""
        user_id, items = doc["user_id"], doc["items"]
        where = f"candidate set {user_id}: "
        if not isinstance(items, list) or not all(isinstance(it, dict) for it in items):
            raise ValidationError(f"{where}items must be a list of objects")
        ids = [it["item_id"] for it in items]
        rows = [it["embedding"] for it in items]
        scores = [it["base_score"] for it in items]
        embs = _finite_rows(rows, ids, where)
        if not set(map(type, scores)) <= _NUMBER_TYPES:  # name the first item without one
            for item_id, score in zip(ids, scores):
                _finite_number(score, f"{where}item {item_id}: base_score")
        base_scores = _finite_vector(scores, f"{where}base_score", len(scores))
        return cls(user_id=user_id, ids=tuple(ids), embeddings=embs, base_scores=base_scores)


_RESULT_COLUMNS = ("scores", "log_d2", "marginals")


@dataclass(frozen=True)
class RerankResult:
    """Ordered re-ranked list plus each pick's numbers, held as columns.

    Pick t chose `item_ids[t]` at context-aware score `scores[t]` and
    diversity increment `log_d2[t]`; its joint value is `marginals[t]`.
    The three are tuples of floats aligned with `item_ids`.  `objective`
    is the left-to-right sum of `marginals`, whose diversity part
    telescopes to alpha * log det of the selected principal submatrix.
    `exhausted` flags lists cut short because every remaining candidate
    fell at or below the numerical exclusion threshold.
    """

    user_id: str
    item_ids: tuple[str, ...]
    scores: tuple[float, ...]
    log_d2: tuple[float, ...]
    marginals: tuple[float, ...]
    objective: float
    exhausted: bool = False

    def __post_init__(self):
        _check_id(self.user_id, "user_id")
        _check_id_column(self.item_ids, "item_id", f"result {self.user_id}: ")
        if not len(self.item_ids) == len(self.scores) == len(self.log_d2) == len(self.marginals):
            raise ValidationError("result columns must hold one entry per item id")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValidationError("result contains duplicate item ids")

    @classmethod
    def from_dict(cls, doc: dict) -> "RerankResult":
        """Read one parsed results line; a missing field is a KeyError."""
        user_id, item_ids = doc["user_id"], doc["item_ids"]
        if not isinstance(item_ids, list):
            raise ValidationError("item_ids must be a list")
        exhausted = doc.get("exhausted", False)
        if type(exhausted) is not bool:
            raise ValidationError("exhausted must be true or false")
        columns = {
            name: tuple(_finite_vector(doc[name], name, len(item_ids)).tolist()) for name in _RESULT_COLUMNS
        }
        return cls(
            user_id=user_id,
            item_ids=tuple(item_ids),
            **columns,
            objective=_finite_number(doc["objective"], "objective"),
            exhausted=exhausted,
        )


# Field annotation -> accepted runtime types; bools never count as numbers.
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "bool": bool}


@dataclass(frozen=True)
class ExperimentConfig:
    """All re-ranking knobs.

    Field names are the canonical config-file keys.  Every instance is
    checked when it is built, `dataclasses.replace` included: types and
    finiteness first, then ranges, with one ValidationError naming each
    violation.
    """

    alpha: float = 1.0
    beta1: float = 0.5
    beta2: float = 0.5
    b_l: float = 1.0
    b_s: float = 1.0
    b_item: float = 1.0
    epsilon: float = 1e-10
    k: int = 10
    top_m: int = 5
    jitter: float = 1e-6
    recent_window: int = 50
    normalize_embeddings: bool = True
    diversity_only_init: bool = False

    def __post_init__(self):
        problems: list[str] = []
        for f in fields(self):
            kind = f.type
            val = getattr(self, f.name)
            if not isinstance(val, _FIELD_TYPES[kind]) or (kind != "bool" and isinstance(val, bool)):
                problems.append(f"{f.name} must be of type {kind}, got {type(val).__name__}")
            elif kind == "float" and type(val) is int:  # as a JSON number: within float64
                try:
                    _finite_number(val, f.name)
                except ValidationError as exc:
                    problems.append(str(exc))
            elif kind == "float" and not math.isfinite(val):
                problems.append(f"{f.name} must be finite, got {val}")
        if problems:  # range checks below assume the declared types and finite floats
            raise ValidationError("; ".join(problems))
        if self.alpha < 0:
            problems.append("alpha must be >= 0")
        problems += [f"{name} must be >= 0" for name in ("beta1", "beta2") if getattr(self, name) < 0]
        problems += [f"{name} must be positive" for name in ("b_l", "b_s", "b_item") if getattr(self, name) <= 0]
        if self.epsilon <= 0:
            problems.append("epsilon must be positive")
        if self.k < 1:
            problems.append("k must be >= 1")
        if self.top_m < 1:
            problems.append("top_m must be >= 1")
        if self.jitter < 0:
            problems.append("jitter must be >= 0")
        if self.recent_window < 1:
            problems.append("recent_window must be >= 1")
        if problems:
            raise ValidationError("; ".join(problems))


# ----- line-delimited JSON IO -----


_raw_decode = json.JSONDecoder().raw_decode


def _load_lines(
    path: str, what: str, build: Callable[[dict], object], key: Callable | None = None
) -> Iterator[tuple[int, object]]:
    """Yield (line number, build(object)) per non-blank line.  The one place a
    line's failure becomes a ParseError naming `path` and the line: bad JSON,
    a KeyError or ValidationError from `build`, or a `key` of its value that
    an earlier line had (`build` checks the key first, so it is hashable).
    `raw_decode` is `json.loads` without its per-call overhead."""
    seen: set = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip(" \t\r\n")  # JSON whitespace only, as json.loads allows
                if not line:
                    continue
                try:
                    doc, end = _raw_decode(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"malformed JSON ({exc.msg})", lineno, path) from exc
                except RecursionError as exc:
                    raise ParseError("malformed JSON (nested too deeply)", lineno, path) from exc
                if end != len(line):  # text after the object, as json.loads refuses
                    raise ParseError("malformed JSON (Extra data)", lineno, path)
                if not isinstance(doc, dict):
                    raise ParseError("expected a JSON object", lineno, path)
                try:
                    value = build(doc)
                except KeyError as exc:
                    raise ParseError(f"{what} missing field {exc}", lineno, path) from exc
                except ValidationError as exc:
                    entry = "" if exc.row is None else f"entry {exc.row}: "
                    raise ParseError(entry + str(exc), lineno, path) from exc
                if key is not None:
                    k = key(value)
                    if k in seen:
                        raise ParseError(f"duplicate {what} for {k!r}", lineno, path)
                    seen.add(k)
                yield lineno, value
    except UnicodeDecodeError as exc:  # decoded a block at a time, so the line is not known
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from exc


def _load_json_object(path: str, what: str) -> dict:
    """The one JSON object a whole file holds; anything else is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {what} JSON ({exc.msg})", path=path) from exc
    except RecursionError as exc:
        raise ParseError(f"malformed {what} JSON (nested too deeply)", path=path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object", path=path)
    return doc


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _save_lines(path: str, records: Iterable, encode: Callable[[object], str] = _encode) -> None:
    """Write one line, `encode(record)`, per record: the one place a JSON file is
    opened for writing.  `_encode` is `json.dumps` with sorted keys and no spaces."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(record) + "\n" for record in records)


def _save_csv(path: str, rows: Iterable[Sequence]) -> None:
    """Write rows, a header first where the file has one: the one place a CSV is opened for writing."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def load_items(path: str) -> EmbeddingTable:
    """Read an item file into an EmbeddingTable; errors cite the bad line.

    Fields other than `item_id` and `embedding`, such as `cluster_id` or
    `base_score`, are accepted and ignored: no stage reads them.
    """
    lines = list(_load_lines(path, "item record", itemgetter("item_id", "embedding")))
    ids = [item_id for _, (item_id, _) in lines]
    try:
        return EmbeddingTable(tuple(ids), _finite_rows([row for _, (_, row) in lines], ids, ""))
    except ValidationError as exc:  # a column check: map its row back to its line
        raise ParseError(str(exc), None if exc.row is None else lines[exc.row][0], path) from exc


def save_items(path: str, table: EmbeddingTable) -> None:
    rows = zip(table.ids, table.embeddings.tolist())
    _save_lines(path, ({"item_id": item_id, "embedding": emb} for item_id, emb in rows))


def _user_line(doc: dict, columns: tuple[str, ...]) -> tuple[str, list, list]:
    """A behavior or label line's user id, item ids and `columns` lists, checked as both kinds
    are: a missing field is a KeyError (columns after the first default to nulls), and the
    lists must be aligned."""
    user_id, ids, first = doc["user_id"], doc["item_ids"], doc[columns[0]]
    _check_id(user_id, "user_id")
    if not isinstance(ids, list):
        raise ValidationError("item_ids must be a list")
    lists = [first, *(doc.get(name, [None] * len(ids)) for name in columns[1:])]
    for name, values in zip(columns, lists):
        if not isinstance(values, list) or len(values) != len(ids):
            raise ValidationError(f"{name} must be a list of {len(ids)} entries, one per item id")
    return user_id, ids, lists


def _behavior_line(doc: dict) -> UserEvents:
    user_id, ids, (ts, labels) = _user_line(doc, ("ts", "labels"))
    return UserEvents(user_id, ids, ts, labels)


def load_behaviors(path: str) -> list[UserEvents]:
    """Read a behavior file into one UserEvents per line, sorted by user id.

    A line holds one user's rows as aligned lists `item_ids`, `ts` and an
    optional `labels`, checked whole as columns.  The first faulty line
    raises, its error citing the line and the entry's index.
    """
    by_user = attrgetter("user_id")
    records = [events for _, events in _load_lines(path, "behavior line", _behavior_line, by_user)]
    return sorted(records, key=by_user)


def _label_line(doc: dict) -> tuple[str, list, list]:
    user_id, ids, (labels,) = _user_line(doc, ("labels",))
    if not (set(map(type, labels)) <= {int} and set(labels) <= {0, 1}):
        _label_column(labels)  # names an entry that is not null, 0 or 1
        row = labels.index(None)
        _check_id_column(ids, "item_id")
        raise ValidationError(f"label line for ({user_id}, {ids[row]}) lacks a label", row)
    _check_id_column(ids, "item_id")
    return user_id, ids, labels


def load_labels(path: str, users: Iterable[str]) -> dict[str, dict[str, int]]:
    """Each of `users`' item labels (0 or 1) from a label file, a repeated
    item keeping its last; a user without a line gets no entry.  Every line
    is checked, and an error cites the line and the index of its entry."""
    wanted = set(users)
    return {
        user_id: dict(zip(ids, labels))
        for _, (user_id, ids, labels) in _load_lines(path, "label line", _label_line, itemgetter(0))
        if user_id in wanted
    }


def save_behaviors(path: str, records: Iterable[UserEvents]) -> None:
    """Write one line per record, users sorted and each record's rows in
    its order.  A NO_LABEL row's label is null, and a line without labels
    leaves `labels` out.  Two records for one user are refused, as
    `load_behaviors` refuses their lines."""
    records = sorted(records, key=lambda events: events.user_id)
    for a, b in zip(records, records[1:]):
        if a.user_id == b.user_id:
            raise ValidationError(f"two records for user {a.user_id!r}")

    def line(events: UserEvents) -> dict:
        doc = {"user_id": events.user_id, "item_ids": list(events.item_ids), "ts": events.ts.tolist()}
        labels = [None if label == NO_LABEL else label for label in events.labels.tolist()]
        if labels.count(None) != len(labels):
            doc["labels"] = labels
        return doc

    _save_lines(path, map(line, records))


def save_labels(path: str, labels: dict[str, dict[str, int]]) -> None:
    """Write the `{user: {item: label}}` map `load_labels` returns, users sorted.  The
    sort key is the user id `_label_line` returns, so every line passes the reader's
    check before the file is opened: this refuses what `load_labels` refuses."""
    docs = [
        {"user_id": user_id, "item_ids": list(by_item), "labels": list(by_item.values())}
        for user_id, by_item in labels.items()
    ]
    _save_lines(path, sorted(docs, key=lambda doc: _label_line(doc)[0]))


def load_candidates(path: str, limit: int | None = None) -> list[CandidateSet]:
    """Read candidate sets in file order, at most one per user; with
    `limit`, stop after that many lines."""
    lines = _load_lines(path, "candidate set", CandidateSet.from_dict, attrgetter("user_id"))
    return [cs for _, cs in islice(lines, limit)]


def save_candidates(path: str, sets: Iterable[CandidateSet]) -> None:
    """Write one line per set.  Candidate rows are mostly copies of catalog
    rows, so each distinct row's text is rendered once, keyed by its bytes;
    a line's text is the one `_encode` gives for its dict."""
    rendered: dict[bytes, str] = {}

    def line(cs: CandidateSet) -> str:
        items = []
        for item_id, row, score in zip(cs.ids, cs.embeddings, cs.base_scores.tolist()):
            key = row.tobytes()
            if key not in rendered:
                rendered[key] = _encode(row.tolist())
            emb, item_id = rendered[key], _encode(item_id)
            items.append(f'{{"base_score":{score!r},"embedding":{emb},"item_id":{item_id}}}')
        return f'{{"items":[{",".join(items)}],"user_id":{_encode(cs.user_id)}}}'

    _save_lines(path, sets, line)


def load_results(path: str) -> list[RerankResult]:
    """Read result lists in file order, at most one per user."""
    return [res for _, res in _load_lines(path, "result", RerankResult.from_dict, attrgetter("user_id"))]


def save_results(path: str, results: Iterable[RerankResult]) -> None:
    def line(res: RerankResult) -> dict:
        doc = {name: getattr(res, name) for name in ("user_id", "item_ids", *_RESULT_COLUMNS)}
        return dict(doc, objective=float(res.objective), exhausted=bool(res.exhausted))

    _save_lines(path, map(line, results))


def load_config(path: str) -> ExperimentConfig:
    """Read a JSON config document whose keys mirror ExperimentConfig; an
    error in its content names the file."""
    doc = _load_json_object(path, "config")
    unknown = sorted(set(doc) - {f.name for f in fields(ExperimentConfig)})
    try:
        if unknown:
            raise ValidationError(f"unknown config fields: {', '.join(unknown)}")
        return ExperimentConfig(**doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ----- checkpoint IO -----

CHECKPOINT_VERSION = 1


def save_checkpoint(path: str, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named 2-D arrays as versioned JSON with shapes and row-major data."""
    entries = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"checkpoint tensor {name!r} must be 2-D")
        entries.append(
            {"name": name, "shape": [int(arr.shape[0]), int(arr.shape[1])], "data": arr.reshape(-1).tolist()}
        )
    _save_lines(path, [{"version": CHECKPOINT_VERSION, "meta": meta or {}, "tensors": entries}])


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read named finite 2-D arrays; a malformed document is a ParseError."""
    doc = _load_json_object(path, "checkpoint")
    version = doc.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # True == 1 == 1.0 in Python
        raise ValidationError(f"{path}: unsupported checkpoint version {version!r}")
    arrays: dict[str, np.ndarray] = {}
    try:
        for entry in doc["tensors"]:
            name, (rows, cols), data = entry["name"], entry["shape"], entry["data"]
            _check_id(name, "tensor name")
            if name in arrays:
                raise ValueError(f"{name} appears twice")
            if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
                raise ValueError(f"{name} shape must be two integers >= 0, got {entry['shape']!r}")
            arrays[name] = _finite_vector(data, f"{name} data", rows * cols).reshape(rows, cols)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed checkpoint tensor ({exc})", path=path) from exc
    return arrays, doc.get("meta", {})
