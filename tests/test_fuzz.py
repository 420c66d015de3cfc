"""Bounded fuzzing of the behaviour and label readers through `cli.main`.

Each case draws one well-formed line, then breaks it: a field dropped, a
value put where a field or one entry belongs (null, a bool, a float, a
string, a nested list, NaN, Infinity, 2**63 or -1), or one column made
longer or shorter than `item_ids`.  `valid_line` restates each line's
rule plainly, and only lines it refuses are run.  Every case must exit 1
with exactly one stderr line, `error: <path>: line 1: ...`.
"""

import contextlib
import io
import json
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diverank import cli

BAD_VALUES = (None, True, False, 1.5, "x", "", [], [1], [[0]], {}, math.nan, math.inf, -math.inf, 2**63, -1)
IDS = st.text(min_size=1, max_size=3)

# Per line kind: the stage and flag that read it, and each column's rule for one entry.
KINDS = {
    "behavior": ("cluster --behaviors", {"ts": lambda v: type(v) is int and 0 <= v < 2**63,
                                         "labels": lambda v: v is None or (type(v) is int and v in (0, 1))}),
    "label": ("eval --labels", {"labels": lambda v: type(v) is int and v in (0, 1)}),
}


def is_id(value) -> bool:
    return type(value) is str and value != ""


def valid_line(kind: str, doc: dict) -> bool:
    """Whether the reader accepts `doc`: ids are non-empty strings, and each
    column is a list of one good entry per item id.  A behaviour line's
    `labels` may be absent; every other field is required."""
    rules = KINDS[kind][1]
    required = {"user_id", "item_ids", *rules} - ({"labels"} if kind == "behavior" else set())
    if not required <= doc.keys() or not is_id(doc["user_id"]):
        return False
    ids = doc["item_ids"]
    if type(ids) is not list or not all(map(is_id, ids)):
        return False
    columns = [(doc.get(name, [None] * len(ids)), ok) for name, ok in rules.items()]
    return all(type(values) is list and len(values) == len(ids) and all(map(ok, values)) for values, ok in columns)


@st.composite
def good_lines(draw, kind: str) -> dict:
    n = draw(st.integers(1, 4))
    doc = {"user_id": draw(IDS), "item_ids": draw(st.lists(IDS, min_size=n, max_size=n))}
    if kind == "behavior":
        doc["ts"] = draw(st.lists(st.sampled_from((0, 2**63 - 1)) | st.integers(0, 10**6), min_size=n, max_size=n))
        doc["labels"] = draw(st.lists(st.sampled_from((0, 1, None)), min_size=n, max_size=n))
    else:
        doc["labels"] = draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
    return doc


def faults(kind: str) -> list[tuple[str, str, object]]:
    """Every (how, field, value) fault of one line kind, so that each is drawn about equally often."""
    columns = ["item_ids", *KINDS[kind][1]]
    return [
        *(("drop", name, None) for name in ["user_id", *columns]),
        *(("field", name, value) for name in ["user_id", *columns] for value in BAD_VALUES),
        *(("entry", name, value) for name in columns for value in BAD_VALUES),
        *((how, name, None) for name in columns for how in ("shorten", "lengthen")),
    ]


@st.composite
def broken_lines(draw, kind: str) -> dict:
    """A good line with one or two faults; a fault that finds its field
    gone or empty is skipped, and a line the faults leave valid is not run."""
    doc = draw(good_lines(kind))
    for how, name, value in draw(st.lists(st.sampled_from(faults(kind)), min_size=1, max_size=2)):
        if how == "field":
            doc[name] = value
        elif name not in doc:
            continue
        elif how == "drop":
            del doc[name]
        elif type(doc[name]) is list and doc[name]:
            values = doc[name]
            if how == "entry":
                values[draw(st.integers(0, len(values) - 1))] = value
            elif how == "shorten":
                values.pop()
            else:
                values.append(values[-1])
    assume(not valid_line(kind, doc))
    return doc


def run_on(kind: str, doc: dict, root) -> tuple[int, str]:
    """Exit code and stderr of the stage reading `doc` as line 1 of its file;
    every other input is an empty file."""
    stage, flag = KINDS[kind][0].split()
    bad, empty = root / f"{kind}.jsonl", root / "empty.jsonl"
    bad.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    empty.write_text("")
    inputs = {
        "cluster": {"--items": empty, "--behaviors": empty, "--out": root / "clusters.jsonl"},
        "eval": {"--results": empty, "--labels": empty, "--items": empty, "--out": root / "eval.csv"},
    }[stage]
    inputs[flag] = bad
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([stage, *(str(part) for pair in inputs.items() for part in pair)])
    return code, err.getvalue()


def check_one_error_line(kind: str, tmp_path_factory):
    root = tmp_path_factory.mktemp(f"fuzz_{kind}")

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(doc=broken_lines(kind))
    def check(doc):
        code, err = run_on(kind, doc, root)
        lines = err.splitlines()
        assert code == 1, err
        assert len(lines) == 1, err
        assert lines[0].startswith(f"error: {root / kind}.jsonl: line 1: "), err

    check()


def test_good_lines_are_read(tmp_path_factory):
    """The generator's lines pass `valid_line` and the reader, so a broken
    line's error comes from its fault, not from the base line."""
    root = tmp_path_factory.mktemp("fuzz_good")

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(KINDS)), data=st.data())
    def check(kind, data):
        doc = data.draw(good_lines(kind))
        assert valid_line(kind, doc)
        _, err = run_on(kind, doc, root)
        assert "line 1" not in err and "Traceback" not in err

    check()


def test_broken_behavior_line_is_one_error_line(tmp_path_factory):
    check_one_error_line("behavior", tmp_path_factory)


def test_broken_label_line_is_one_error_line(tmp_path_factory):
    check_one_error_line("label", tmp_path_factory)
