"""Output digests and correctness checks for the benchmark's CLI calls.

Only the standard library is used here, so checking never touches the
code under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

# Columns that hold timings rather than results; left out of digests.
TIMING_COLUMNS = {"wall_time_s"}


def _read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def digest(path: str) -> str:
    """sha256 of a file's bytes; a CSV with timing columns is hashed without them."""
    if path.endswith(".csv"):
        rows = _read_csv(path)
        if rows and TIMING_COLUMNS.intersection(rows[0]):
            keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
            text = "\n".join(",".join(row[i] for i in keep) for row in rows)
            return hashlib.sha256(text.encode("utf-8")).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def csv_numbers_finite(path: str, text_columns: set[str], blank_ok: set[str]) -> list[str]:
    """Problems with a CSV whose cells, outside `text_columns`, are finite numbers.

    A cell may be blank only in a column of `blank_ok` or on the
    `__mean__` summary row.
    """
    rows = _read_csv(path)
    if len(rows) < 2:
        return [f"{path}: no data rows"]
    header, problems = rows[0], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            problems.append(f"{path}:{lineno}: {len(row)} cells, header has {len(header)}")
            continue
        for name, cell in zip(header, row):
            if name in text_columns:
                continue
            if cell == "" and (name in blank_ok or row[0] == "__mean__"):
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                problems.append(f"{path}:{lineno}: {name}={cell!r} is not a finite number")
    return problems


def candidate_ids(path: str) -> dict[str, set[str]]:
    """User id -> the item ids of that user's candidate set."""
    out: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            out[doc["user_id"]] = {item["item_id"] for item in doc["items"]}
    return out


def results_problems(path: str, candidates: dict[str, set[str]], k: int) -> list[str]:
    """Each user's list holds distinct ids from its own candidates, k of them
    unless it is marked exhausted; every candidate user gets one list."""
    problems, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            doc = json.loads(line)
            user, ids = doc["user_id"], doc["item_ids"]
            seen.add(user)
            where = f"{path}:{lineno} ({user})"
            if user not in candidates:
                problems.append(f"{where}: user has no candidate set")
                continue
            if len(set(ids)) != len(ids):
                problems.append(f"{where}: repeated item ids")
            if not set(ids) <= candidates[user]:
                problems.append(f"{where}: ids outside the user's candidates")
            want = min(k, len(candidates[user]))
            if len(ids) > want or (len(ids) < want and not doc["exhausted"]):
                problems.append(f"{where}: {len(ids)} ids, expected {want}")
            if not math.isfinite(doc["objective"]):
                problems.append(f"{where}: objective {doc['objective']} is not finite")
    missing = set(candidates) - seen
    if missing:
        problems.append(f"{path}: no list for {len(missing)} users")
    return problems


def eval_means(path: str) -> tuple[float, float]:
    """(mean nDCG@k, mean ILAD) from the `__mean__` row of eval.csv."""
    for row in _read_csv(path):
        if row and row[0] == "__mean__":
            return float(row[2]), float(row[3])
    raise ValueError(f"{path}: no __mean__ row")


def final_auc(path: str) -> float:
    """AUC of the last epoch in training_log.csv."""
    rows = _read_csv(path)
    return float(rows[-1][rows[0].index("auc")])
