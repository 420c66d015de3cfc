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
from dataclasses import dataclass, field, fields, replace
from itertools import islice
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


def _check_columns(
    ids: Sequence[str], embeddings, where: str = ""
) -> tuple[tuple[str, ...], np.ndarray]:
    """Validate an id column and its embedding rows once, as whole columns.

    Ids must be unique non-empty strings, and `embeddings` one finite
    float row of a single dimension d >= 1 per id.  Returns the ids as a
    tuple and a read-only float64 copy of the rows.  Errors start with
    `where` and name the offending row in `ValidationError.row`.
    """
    ids = tuple(ids)
    seen: set[str] = set()
    for row, item_id in enumerate(ids):
        _check_id(item_id, "item_id", where, row)
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


def _stack_rows(ids: list, rows: list, where: str) -> np.ndarray:
    """Stack parsed embedding rows into one (n, d) float64 array.

    When they do not form one, the error names the first row that is bad
    on its own, else the first whose length differs from the first row's.
    """
    if not rows:
        return np.empty((0, 0))
    try:
        embs = np.array(rows, dtype=np.float64)
        if embs.ndim == 2 and embs.shape[1]:
            return embs
    except (TypeError, ValueError):
        pass
    dim = None
    for row, values in enumerate(rows):
        try:
            vec = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValidationError(
                f"{where}item {ids[row]}: embedding must hold numbers only", row
            ) from None
        if vec.ndim != 1 or not vec.size:
            raise ValidationError(
                f"{where}item {ids[row]}: embedding must be a non-empty 1-D float vector", row
            )
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ValidationError(
                f"{where}item {ids[row]}: mixed embedding dims ({vec.size} != {dim})", row
            )
    raise ValidationError(f"{where}embedding rows do not form an (n, d) matrix")


@dataclass(frozen=True)
class BehaviorEvent:
    """One user interaction: user, item, timestamp, optional binary label."""

    user_id: str
    item_id: str
    ts: int
    label: int | None = None

    def __post_init__(self):
        _check_id(self.user_id, "user_id")
        _check_id(self.item_id, "item_id")
        if self.ts < 0:
            raise ValidationError(
                f"behavior ({self.user_id}, {self.item_id}): ts must be >= 0"
            )
        if self.label is not None and self.label not in (0, 1):
            raise ValidationError(
                f"behavior ({self.user_id}, {self.item_id}): label must be 0 or 1"
            )

    def to_json(self) -> str:
        doc = {"user_id": self.user_id, "item_id": self.item_id, "ts": int(self.ts)}
        if self.label is not None:
            doc["label"] = int(self.label)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict) -> "BehaviorEvent":
        try:
            return cls(
                user_id=doc["user_id"],
                item_id=doc["item_id"],
                ts=int(doc["ts"]),
                label=doc.get("label"),
            )
        except KeyError as exc:
            raise ValidationError(f"behavior record missing field {exc}") from exc


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
        except KeyError as exc:
            raise ValidationError(f"{where}item record missing field {exc}") from exc
        scores = [it.get("base_score") for it in items]
        if None in scores:
            raise ValidationError(f"{where}item {ids[scores.index(None)]} lacks base_score")
        embs = _stack_rows(ids, rows, where)
        try:
            base_scores = np.array(scores, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValidationError(f"{where}base_score must be a number") from None
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
        for item_id in self.item_ids:
            _check_id(item_id, "item_id", f"result {self.user_id}: ")
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
        steps = tuple(
            SelectionStep(
                item_id=s["item_id"],
                score=float(s["score"]),
                log_d2=float(s["log_d2"]),
                marginal=float(s["marginal"]),
            )
            for s in doc["steps"]
        )
        return cls(
            user_id=doc["user_id"],
            item_ids=tuple(doc["item_ids"]),
            steps=steps,
            objective=float(doc["objective"]),
            exhausted=bool(doc.get("exhausted", False)),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """All re-ranking knobs.

    Field names are the canonical config-file keys.  `a_item` and `b_item`
    default to the short-term kernel amplitudes when left unset.
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
    time_buckets: int = 16
    jitter: float = 1e-6
    recent_window: int = 50
    normalize_embeddings: bool = True
    scalar_interest_projection: bool = False
    diversity_only_init: bool = False
    negative_exponent_kernels: bool = False

    def __post_init__(self):
        if self.a_item is None:
            object.__setattr__(self, "a_item", self.a_s)
        if self.b_item is None:
            object.__setattr__(self, "b_item", self.b_s)

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# Field annotation -> accepted runtime types; bools never count as numbers.
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "bool": bool}


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check every constraint; the error message names each violation."""
    problems: list[str] = []
    for f in fields(cfg):
        kind = f.type.removesuffix(" | None")
        val = getattr(cfg, f.name)
        if not isinstance(val, _FIELD_TYPES[kind]) or (kind != "bool" and isinstance(val, bool)):
            problems.append(f"{f.name} must be of type {kind}, got {type(val).__name__}")
    if problems:  # range checks below assume the declared types
        raise ValidationError("; ".join(problems))
    if not (cfg.alpha >= 0.0) or not math.isfinite(cfg.alpha):
        problems.append("alpha must be >= 0")
    for name in ("beta1", "beta2"):
        val = getattr(cfg, name)
        if not (val >= 0.0) or not math.isfinite(val):
            problems.append(f"{name} must be >= 0")
    for name in ("a_l", "b_l", "a_s", "b_s", "a_item", "b_item"):
        val = getattr(cfg, name)
        if not (val > 0.0) or not math.isfinite(val):
            problems.append(f"{name} must be positive")
    if not (cfg.epsilon > 0.0) or not math.isfinite(cfg.epsilon):
        problems.append("epsilon must be positive")
    if cfg.k < 1:
        problems.append("k must be >= 1")
    if cfg.top_m < 1:
        problems.append("top_m must be >= 1")
    if cfg.time_buckets < 1:
        problems.append("time_buckets must be >= 1")
    if not (cfg.jitter >= 0.0) or not math.isfinite(cfg.jitter):
        problems.append("jitter must be >= 0")
    if cfg.recent_window < 1:
        problems.append("recent_window must be >= 1")
    if problems:
        raise ValidationError("; ".join(problems))
    return cfg


def config_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Return a validated copy with non-None overrides applied."""
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValidationError(f"unknown config fields: {', '.join(unknown)}")
    applied = {k: v for k, v in overrides.items() if v is not None}
    return validate_config(replace(cfg, **applied))


# ----- line-delimited JSON IO -----


def _iter_json_lines(path: str) -> Iterator[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"malformed JSON ({exc.msg})", line=lineno) from exc
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
        return EmbeddingTable(tuple(ids), _stack_rows(ids, rows, ""))
    except ValidationError as exc:
        line = None if exc.row is None else linenos[exc.row]
        raise ParseError(str(exc), line=line) from exc


def save_items(path: str, table: EmbeddingTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item_id, emb in zip(table.ids, table.embeddings.tolist()):
            doc = {"embedding": emb, "item_id": item_id}
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_behaviors(path: str) -> list[BehaviorEvent]:
    """Read behavior events sorted by (user_id, ts); sort is stable, so
    equal timestamps keep their input order."""
    events: list[BehaviorEvent] = []
    for lineno, doc in _iter_json_lines(path):
        try:
            events.append(BehaviorEvent.from_dict(doc))
        except (ValidationError, ValueError, TypeError) as exc:
            raise ParseError(str(exc), line=lineno) from exc
    events.sort(key=lambda e: (e.user_id, e.ts))
    return events


def save_behaviors(path: str, events: Iterable[BehaviorEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(ev.to_json() + "\n")


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
    out: list[RerankResult] = []
    for lineno, doc in _iter_json_lines(path):
        try:
            out.append(RerankResult.from_dict(doc))
        except (ValidationError, KeyError, ValueError, TypeError) as exc:
            raise ParseError(str(exc), line=lineno) from exc
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
    return validate_config(ExperimentConfig(**doc))


def save_config(path: str, cfg: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_json() + "\n")
