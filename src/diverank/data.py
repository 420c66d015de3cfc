"""Core record types, validation, and line-delimited JSON persistence.

Every on-disk format used by the pipeline lives here: item and behavior
lines, candidate sets, experiment configuration, and re-ranking results.
Loaders fail fast with line numbers; serializers are deterministic so a
pipeline re-run with the same seed writes byte-identical files.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

import numpy as np


class ValidationError(ValueError):
    """A record or configuration violates a documented constraint.

    `row` is the index of the offending row when a column check found one.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ParseError(ValueError):
    """An input file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
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


@dataclass(frozen=True, eq=False)
class BehaviorLog:
    """User interactions held as columns, one row per event.

    Row r says that `user_ids[r]` interacted with `item_ids[r]` at time
    `ts[r]` (int64 seconds, >= 0); `labels[r]` (int8) is 0, 1, or
    NO_LABEL.  Both arrays are read-only copies, validated once as whole
    columns; a failure names its row in `ValidationError.row`.
    """

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    ts: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        user_ids = _check_id_column(self.user_ids, "user_id")
        item_ids = _check_id_column(self.item_ids, "item_id")
        n = len(user_ids)
        ts = np.array(self.ts, dtype=np.int64)
        labels = np.array(self.labels, dtype=np.int8)
        if len(item_ids) != n or ts.shape != (n,) or labels.shape != (n,):
            raise ValidationError(f"behavior columns must all hold {n} rows")
        bad = ts < 0
        if bad.any():
            row = int(np.argmax(bad))
            raise ValidationError(f"ts must be >= 0, got {ts[row]}", row)
        bad = (labels != 0) & (labels != 1) & (labels != NO_LABEL)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValidationError(f"label must be 0, 1 or {NO_LABEL}, got {labels[row]}", row)
        ts.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "user_ids", user_ids)
        object.__setattr__(self, "item_ids", item_ids)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.user_ids)

    def take(self, rows: Sequence[int]) -> "BehaviorLog":
        """The log of `rows`, in the order given."""
        rows = np.asarray(rows, dtype=np.intp)
        idx = rows.tolist()
        return BehaviorLog(
            tuple(self.user_ids[r] for r in idx),
            tuple(self.item_ids[r] for r in idx),
            self.ts[rows],
            self.labels[rows],
        )

    def by_user(self) -> Iterator[tuple[str, "BehaviorLog"]]:
        """Each user's rows as a log of its own, users in sorted order."""
        rows: dict[str, list[int]] = {}
        for row, user_id in enumerate(self.user_ids):
            rows.setdefault(user_id, []).append(row)
        for user_id in sorted(rows):
            yield user_id, self.take(rows[user_id])


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

    def to_json(self) -> str:
        items = [
            {"base_score": score, "embedding": emb, "item_id": item_id}
            for item_id, emb, score in zip(
                self.ids, self.embeddings.tolist(), self.base_scores.tolist()
            )
        ]
        doc = {"items": items, "user_id": self.user_id}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict) -> "CandidateSet":
        """Build the columns straight from one parsed candidates line."""
        try:
            user_id, items = doc["user_id"], doc["items"]
        except KeyError as exc:
            raise ValidationError(f"candidate set missing field {exc}") from exc
        where = f"candidate set {user_id}: "
        if not isinstance(items, list) or not all(isinstance(it, dict) for it in items):
            raise ValidationError(f"{where}items must be a list of objects")
        try:
            ids = [it["item_id"] for it in items]
            rows = [it["embedding"] for it in items]
            scores = [it["base_score"] for it in items]
        except KeyError as exc:
            raise ValidationError(f"{where}item record missing field {exc}") from exc
        embs = _finite_rows(rows, ids, where)
        if not set(map(type, scores)) <= _NUMBER_TYPES:  # name the first item without one
            for item_id, score in zip(ids, scores):
                _finite_number(score, f"{where}item {item_id}: base_score")
        base_scores = _finite_vector(scores, f"{where}base_score", len(scores))
        return cls(user_id=user_id, ids=tuple(ids), embeddings=embs, base_scores=base_scores)


@dataclass(frozen=True)
class SelectionStep:
    """One greedy pick: score, diversity increment, and their combination."""

    item_id: str
    score: float
    log_d2: float
    marginal: float

    def to_dict(self) -> dict:
        return {
            "item_id": self.item_id,
            "score": float(self.score),
            "log_d2": float(self.log_d2),
            "marginal": float(self.marginal),
        }


@dataclass(frozen=True)
class RerankResult:
    """Ordered re-ranked list plus per-step diagnostics.

    `objective` is the accumulated joint value: the sum over steps of
    score + alpha * log d^2, whose diversity part telescopes to
    alpha * log det of the selected principal submatrix.  `exhausted`
    flags lists cut short because every remaining candidate fell at or
    below the numerical exclusion threshold.
    """

    user_id: str
    item_ids: tuple[str, ...]
    steps: tuple[SelectionStep, ...]
    objective: float
    exhausted: bool = False

    def __post_init__(self):
        _check_id(self.user_id, "user_id")
        _check_id_column(self.item_ids, "item_id", f"result {self.user_id}: ")
        if len(self.item_ids) != len(self.steps):
            raise ValidationError("result steps and item_ids must align")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValidationError("result contains duplicate item ids")

    def to_json(self) -> str:
        doc = {
            "user_id": self.user_id,
            "item_ids": list(self.item_ids),
            "steps": [s.to_dict() for s in self.steps],
            "objective": float(self.objective),
            "exhausted": bool(self.exhausted),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict) -> "RerankResult":
        steps, item_ids = doc["steps"], doc["item_ids"]
        if not isinstance(steps, list) or not all(isinstance(s, dict) for s in steps):
            raise ValidationError("steps must be a list of objects")
        if not isinstance(item_ids, list):
            raise ValidationError("item_ids must be a list")
        exhausted = doc.get("exhausted", False)
        if type(exhausted) is not bool:
            raise ValidationError("exhausted must be true or false")
        try:
            steps = tuple(
                SelectionStep(
                    item_id=s["item_id"],
                    score=_finite_number(s["score"], "score"),
                    log_d2=_finite_number(s["log_d2"], "log_d2"),
                    marginal=_finite_number(s["marginal"], "marginal"),
                )
                for s in steps
            )
        except KeyError as exc:
            raise ValidationError(f"step missing field {exc}") from exc
        return cls(
            user_id=doc["user_id"],
            item_ids=tuple(item_ids),
            steps=steps,
            objective=_finite_number(doc["objective"], "objective"),
            exhausted=exhausted,
        )


# Field annotation -> accepted runtime types; bools never count as numbers.
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "bool": bool}


@dataclass(frozen=True)
class ExperimentConfig:
    """All re-ranking knobs.

    Field names are the canonical config-file keys.  `a_item` and `b_item`
    default to the short-term kernel amplitudes when left unset.  Every
    instance is checked when it is built, `dataclasses.replace` included:
    types first, then ranges, with one ValidationError naming each
    violation.
    """

    alpha: float = 1.0
    beta1: float = 0.5
    beta2: float = 0.5
    a_l: float = 1.0
    b_l: float = 1.0
    a_s: float = 1.0
    b_s: float = 1.0
    a_item: float | None = None
    b_item: float | None = None
    epsilon: float = 1e-10
    k: int = 10
    top_m: int = 5
    jitter: float = 1e-6
    recent_window: int = 50
    normalize_embeddings: bool = True
    diversity_only_init: bool = False

    def __post_init__(self):
        if self.a_item is None:
            object.__setattr__(self, "a_item", self.a_s)
        if self.b_item is None:
            object.__setattr__(self, "b_item", self.b_s)
        problems: list[str] = []
        for f in fields(self):
            kind = f.type.removesuffix(" | None")
            val = getattr(self, f.name)
            if not isinstance(val, _FIELD_TYPES[kind]) or (kind != "bool" and isinstance(val, bool)):
                problems.append(f"{f.name} must be of type {kind}, got {type(val).__name__}")
            elif kind == "float" and type(val) is int:  # as a JSON number: within float64
                try:
                    _finite_number(val, f.name)
                except ValidationError as exc:
                    problems.append(str(exc))
        if problems:  # range checks below assume the declared types
            raise ValidationError("; ".join(problems))
        if not (self.alpha >= 0.0) or not math.isfinite(self.alpha):
            problems.append("alpha must be >= 0")
        for name in ("beta1", "beta2"):
            val = getattr(self, name)
            if not (val >= 0.0) or not math.isfinite(val):
                problems.append(f"{name} must be >= 0")
        for name in ("a_l", "b_l", "a_s", "b_s", "a_item", "b_item"):
            val = getattr(self, name)
            if not (val > 0.0) or not math.isfinite(val):
                problems.append(f"{name} must be positive")
        if not (self.epsilon > 0.0) or not math.isfinite(self.epsilon):
            problems.append("epsilon must be positive")
        if self.k < 1:
            problems.append("k must be >= 1")
        if self.top_m < 1:
            problems.append("top_m must be >= 1")
        if not (self.jitter >= 0.0) or not math.isfinite(self.jitter):
            problems.append("jitter must be >= 0")
        if self.recent_window < 1:
            problems.append("recent_window must be >= 1")
        if problems:
            raise ValidationError("; ".join(problems))


# ----- line-delimited JSON IO -----


_raw_decode = json.JSONDecoder().raw_decode


def _iter_json_lines(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per non-blank line.  `raw_decode` is the
    scanner of `json.loads` without its per-call overhead; as there, text
    after the object is an error."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                doc, end = _raw_decode(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"malformed JSON ({exc.msg})", line=lineno) from exc
            if end != len(line):
                raise ParseError("malformed JSON (Extra data)", line=lineno)
            if not isinstance(doc, dict):
                raise ParseError("expected a JSON object", line=lineno)
            yield lineno, doc


def load_items(path: str) -> EmbeddingTable:
    """Read an item file into an EmbeddingTable; errors cite the bad line.

    Fields other than `item_id` and `embedding`, such as `cluster_id` or
    `base_score`, are accepted and ignored: no stage reads them.
    """
    linenos: list[int] = []
    ids: list = []
    rows: list = []
    for lineno, doc in _iter_json_lines(path):
        try:
            item_id, row = doc["item_id"], doc["embedding"]
        except KeyError as exc:
            raise ParseError(f"item record missing field {exc}", line=lineno) from exc
        linenos.append(lineno)
        ids.append(item_id)
        rows.append(row)
    try:
        return EmbeddingTable(tuple(ids), _finite_rows(rows, ids, ""))
    except ValidationError as exc:
        line = None if exc.row is None else linenos[exc.row]
        raise ParseError(str(exc), line=line) from exc


def save_items(path: str, table: EmbeddingTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item_id, emb in zip(table.ids, table.embeddings.tolist()):
            doc = {"embedding": emb, "item_id": item_id}
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _ts_column(values: Sequence) -> np.ndarray:
    """JSON `ts` values as int64: each must be an int (not a bool) in [0, 2**63)."""
    if set(map(type, values)) <= {int} and (not values or min(values) >= 0 and max(values) < 2**63):
        return np.array(values, dtype=np.int64)
    row = next(r for r, v in enumerate(values) if type(v) is not int or not 0 <= v < 2**63)
    raise ValidationError(f"ts must be an integer >= 0, got {values[row]!r}", row)


def _label_column(values: Sequence) -> np.ndarray:
    """JSON `label` values as int8 codes: absent or null is NO_LABEL, else the int 0 or 1."""
    # Types first: a list label is unhashable, and True and 1.0 equal 1.
    if set(map(type, values)) <= {int, type(None)} and set(values) <= {None, 0, 1}:
        return np.array([NO_LABEL if v is None else v for v in values], dtype=np.int8)
    row = next(
        r for r, v in enumerate(values) if v is not None and (type(v) is not int or v not in (0, 1))
    )
    raise ValidationError(f"label must be absent, null, 0 or 1, got {values[row]!r}", row)


def load_behaviors(path: str, labelled: bool = False) -> BehaviorLog:
    """Read a behavior file into one BehaviorLog sorted by (user_id, ts).

    The file is read in one streaming pass into columns, which are then
    checked whole; an error cites the line of its row.  With `labelled`,
    as for a label file, every line must carry a label.  The sort is
    stable, so equal timestamps keep their input order.
    """
    linenos: list[int] = []
    rows: list[tuple] = []
    for lineno, doc in _iter_json_lines(path):
        try:
            rows.append((doc["user_id"], doc["item_id"], doc["ts"], doc.get("label")))
        except KeyError as exc:
            raise ParseError(f"behavior record missing field {exc}", line=lineno) from exc
        linenos.append(lineno)
    user_ids, item_ids, ts, labels = zip(*rows) if rows else ((), (), (), ())
    try:
        log = BehaviorLog(user_ids, item_ids, _ts_column(ts), _label_column(labels))
        if labelled and (log.labels == NO_LABEL).any():
            row = int(np.argmax(log.labels == NO_LABEL))
            raise ValidationError(
                f"label line for ({log.user_ids[row]}, {log.item_ids[row]}) lacks a label", row
            )
    except ValidationError as exc:
        line = None if exc.row is None else linenos[exc.row]
        raise ParseError(str(exc), line=line) from exc
    rank = {user_id: r for r, user_id in enumerate(sorted(set(log.user_ids)))}
    user_rank = np.fromiter(map(rank.__getitem__, log.user_ids), np.int64, len(log))
    order = np.lexsort((log.ts, user_rank))  # stable: last key sorts first
    return log.take(order)


def save_behaviors(path: str, log: BehaviorLog) -> None:
    """Write one line per row; `label` is left out for NO_LABEL rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for user_id, item_id, stamp, label in zip(
            log.user_ids, log.item_ids, log.ts.tolist(), log.labels.tolist()
        ):
            doc = {"user_id": user_id, "item_id": item_id, "ts": stamp}
            if label != NO_LABEL:
                doc["label"] = label
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_candidates(path: str, limit: int | None = None) -> list[CandidateSet]:
    """Read candidate sets in file order; with `limit`, stop after that many."""
    sets: list[CandidateSet] = []
    seen_users: set[str] = set()
    for lineno, doc in islice(_iter_json_lines(path), limit):
        try:
            cs = CandidateSet.from_dict(doc)
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if cs.user_id in seen_users:
            raise ParseError(f"duplicate candidate set for user {cs.user_id!r}", lineno)
        seen_users.add(cs.user_id)
        sets.append(cs)
    return sets


def save_candidates(path: str, sets: Iterable[CandidateSet]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cs in sets:
            fh.write(cs.to_json() + "\n")


def load_results(path: str) -> list[RerankResult]:
    """Read result lists in file order, at most one per user."""
    out: list[RerankResult] = []
    seen_users: set[str] = set()
    for lineno, doc in _iter_json_lines(path):
        try:
            res = RerankResult.from_dict(doc)
        except (ValidationError, KeyError, ValueError, TypeError) as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if res.user_id in seen_users:
            raise ParseError(f"duplicate result for user {res.user_id!r}", lineno)
        seen_users.add(res.user_id)
        out.append(res)
    return out


def save_results(path: str, results: Iterable[RerankResult]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for res in results:
            fh.write(res.to_json() + "\n")


def load_config(path: str) -> ExperimentConfig:
    """Read a JSON config document whose keys mirror ExperimentConfig."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed config JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValidationError(f"unknown config fields: {', '.join(unknown)}")
    return ExperimentConfig(**doc)
