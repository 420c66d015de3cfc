"""End-to-end CLI coverage: pipeline stages, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diverank import cli
from diverank.accuracy import init_scorer_params
from diverank.autodiff import save_checkpoint
from diverank.data import CandidateSet, load_candidates, load_results, save_candidates
from diverank.interests import InterestProfile, save_profiles

SYNTH_ARGS = [
    "--seed", "0",
    "--clusters", "3",
    "--items-per-cluster", "10",
    "--dim", "8",
    "--users", "8",
    "--behaviors-per-user", "20",
    "--candidates-per-user", "15",
]


def run(*args) -> int:
    return cli.main(list(args))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pipeline run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    fix = root / "fix"
    model = root / "model"
    assert run("synth", "--out", str(fix), *SYNTH_ARGS) == 0
    assert (
        run(
            "cluster",
            "--items", str(fix / "items.jsonl"),
            "--behaviors", str(fix / "behaviors.jsonl"),
            "--out", str(fix / "clusters.jsonl"),
        )
        == 0
    )
    assert (
        run(
            "train-scorer",
            "--items", str(fix / "items.jsonl"),
            "--behaviors", str(fix / "behaviors.jsonl"),
            "--clusters", str(fix / "clusters.jsonl"),
            "--out", str(model),
            "--epochs", "5",
        )
        == 0
    )
    assert (
        run(
            "rerank",
            "--candidates", str(fix / "candidates.jsonl"),
            "--profiles", str(model / "profiles.jsonl"),
            "--checkpoint", str(model / "checkpoint.json"),
            "--out", str(root / "results.jsonl"),
        )
        == 0
    )
    assert (
        run(
            "eval",
            "--results", str(root / "results.jsonl"),
            "--labels", str(fix / "labels.jsonl"),
            "--items", str(fix / "items.jsonl"),
            "--out", str(root / "eval.csv"),
        )
        == 0
    )
    assert (
        run(
            "sweep",
            "--candidates", str(fix / "candidates.jsonl"),
            "--labels", str(fix / "labels.jsonl"),
            "--profiles", str(model / "profiles.jsonl"),
            "--checkpoint", str(model / "checkpoint.json"),
            "--out", str(root / "sweep.csv"),
            "--alphas", "0,1",
            "--runs", "4",
        )
        == 0
    )
    return {"root": root, "fix": fix, "model": model}


class TestPipelineArtifacts:
    def test_every_stage_wrote_its_files(self, pipeline):
        fix, model, root = pipeline["fix"], pipeline["model"], pipeline["root"]
        for path in (
            fix / "items.jsonl",
            fix / "behaviors.jsonl",
            fix / "candidates.jsonl",
            fix / "labels.jsonl",
            fix / "clusters.jsonl",
            model / "checkpoint.json",
            model / "profiles.jsonl",
            model / "training_log.csv",
            root / "results.jsonl",
            root / "results.jsonl.diag.csv",
            root / "eval.csv",
            root / "sweep.csv",
        ):
            assert path.exists(), path

    def test_rerank_selects_k_offered_items_per_user(self, pipeline):
        results = load_results(pipeline["root"] / "results.jsonl")
        assert len(results) == 8
        offered = {}
        with open(pipeline["fix"] / "candidates.jsonl") as fh:
            for line in fh:
                row = json.loads(line)
                offered[row["user_id"]] = {it["item_id"] for it in row["items"]}
        for res in results:
            assert len(res.item_ids) == 10  # default k
            assert len(set(res.item_ids)) == 10
            assert set(res.item_ids) <= offered[res.user_id]

    def test_diagnostics_cover_every_user_with_sane_d2(self, pipeline):
        with open(pipeline["root"] / "results.jsonl.diag.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for row in rows:
            assert int(row["n_selected"]) == 10
            assert float(row["min_d2"]) >= -1e-8

    def test_eval_emits_per_user_rows_and_mean(self, pipeline):
        with open(pipeline["root"] / "eval.csv") as fh:
            rows = list(csv.reader(fh))
        header, body, mean_row = rows[0], rows[1:-1], rows[-1]
        assert header[0] == "user_id"
        assert len(body) == 8
        assert mean_row[0] == "__mean__"
        assert 0.0 <= float(mean_row[2]) <= 1.0
        assert 0.0 <= float(mean_row[3]) <= 2.0

    def test_sweep_table_shape(self, pipeline):
        with open(pipeline["root"] / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3
        assert {r["method"] for r in rows} == {"bs_dpp", "fixed_dpp", "mmr"}
        for r in rows:
            if r["method"] == "mmr":
                alpha = float(r["alpha"])
                assert float(r["lambda"]) == pytest.approx(1.0 / (1.0 + alpha))
            else:
                assert r["lambda"] == ""
            assert 0.0 <= float(r["mean_ndcg"]) <= 1.0
            assert 0.0 <= float(r["mean_ilad"]) <= 2.0


class TestDeterminism:
    def test_rerank_reruns_byte_identical(self, pipeline, tmp_path):
        out2 = tmp_path / "results.jsonl"
        assert (
            run(
                "rerank",
                "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
                "--profiles", str(pipeline["model"] / "profiles.jsonl"),
                "--checkpoint", str(pipeline["model"] / "checkpoint.json"),
                "--out", str(out2),
            )
            == 0
        )
        original = pipeline["root"] / "results.jsonl"
        assert out2.read_bytes() == original.read_bytes()

    def test_stage_isolation_rebuilds_identical_intermediates(self, pipeline, tmp_path):
        # Deleting an intermediate and re-running its stage must reproduce
        # the same bytes: sub-seeds hang off (seed, stage), not run order.
        fix = pipeline["fix"]
        clusters2 = tmp_path / "clusters.jsonl"
        assert (
            run(
                "cluster",
                "--items", str(fix / "items.jsonl"),
                "--behaviors", str(fix / "behaviors.jsonl"),
                "--out", str(clusters2),
            )
            == 0
        )
        assert clusters2.read_bytes() == (fix / "clusters.jsonl").read_bytes()

        model2 = tmp_path / "model"
        assert (
            run(
                "train-scorer",
                "--items", str(fix / "items.jsonl"),
                "--behaviors", str(fix / "behaviors.jsonl"),
                "--clusters", str(clusters2),
                "--out", str(model2),
                "--epochs", "5",
            )
            == 0
        )
        for name in ("checkpoint.json", "profiles.jsonl", "training_log.csv"):
            assert (model2 / name).read_bytes() == (
                pipeline["model"] / name
            ).read_bytes()

    def test_sweep_reruns_byte_identical(self, pipeline, tmp_path):
        out2 = tmp_path / "sweep.csv"
        assert (
            run(
                "sweep",
                "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
                "--labels", str(pipeline["fix"] / "labels.jsonl"),
                "--profiles", str(pipeline["model"] / "profiles.jsonl"),
                "--checkpoint", str(pipeline["model"] / "checkpoint.json"),
                "--out", str(out2),
                "--alphas", "0,1",
                "--runs", "4",
            )
            == 0
        )
        a = [r[:6] for r in csv.reader(open(out2))]
        b = [r[:6] for r in csv.reader(open(pipeline["root"] / "sweep.csv"))]
        assert a == b  # wall-time column excluded, everything else exact


def write_duplicate_fixture(root):
    """Two identical high-score items plus one orthogonal low-score item."""
    cands = CandidateSet(
        user_id="u1",
        ids=("i1", "i2", "i3"),
        embeddings=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        base_scores=np.array([0.9, 0.9, 0.5]),
    )
    save_candidates(root / "candidates.jsonl", [cands])
    save_profiles(root / "profiles.jsonl", [])
    params = init_scorer_params(2, np.random.default_rng(0), requires_grad=False)
    for t in params.tensors().values():
        t.data[...] = 0.0
    tensors = {f"scorer.{k}": v for k, v in params.tensors().items()}
    save_checkpoint(root / "checkpoint.json", tensors, {"dim": 2})
    return root


class TestCraftedRerank:
    def test_duplicate_pair_yields_one_copy_plus_outsider(self, tmp_path):
        write_duplicate_fixture(tmp_path)
        out = tmp_path / "results.jsonl"
        assert (
            run(
                "rerank",
                "--candidates", str(tmp_path / "candidates.jsonl"),
                "--profiles", str(tmp_path / "profiles.jsonl"),
                "--checkpoint", str(tmp_path / "checkpoint.json"),
                "--out", str(out),
                "--alpha", "1",
                "--k", "2",
            )
            == 0
        )
        (result,) = load_results(out)
        assert result.item_ids == ("i1", "i3")

    def test_k_flag_beats_config_file(self, tmp_path):
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "alpha": 1.0}))
        out = tmp_path / "results.jsonl"
        assert (
            run(
                "rerank",
                "--candidates", str(tmp_path / "candidates.jsonl"),
                "--profiles", str(tmp_path / "profiles.jsonl"),
                "--checkpoint", str(tmp_path / "checkpoint.json"),
                "--out", str(out),
                "--config", str(cfg),
                "--k", "2",
            )
            == 0
        )
        (result,) = load_results(out)
        assert len(result.item_ids) == 2

    def test_dump_kernel_writes_symmetric_matrix(self, tmp_path):
        write_duplicate_fixture(tmp_path)
        prefix = str(tmp_path / "kern_")
        assert (
            run(
                "rerank",
                "--candidates", str(tmp_path / "candidates.jsonl"),
                "--profiles", str(tmp_path / "profiles.jsonl"),
                "--checkpoint", str(tmp_path / "checkpoint.json"),
                "--out", str(tmp_path / "results.jsonl"),
                "--dump-kernel", prefix,
            )
            == 0
        )
        values = np.loadtxt(f"{prefix}u1.csv", delimiter=",")
        assert values.shape == (3, 3)
        assert np.allclose(values, values.T, atol=1e-12)

    def test_diversity_only_init_runs_clean(self, tmp_path):
        write_duplicate_fixture(tmp_path)
        out = tmp_path / "results.jsonl"
        assert (
            run(
                "rerank",
                "--candidates", str(tmp_path / "candidates.jsonl"),
                "--profiles", str(tmp_path / "profiles.jsonl"),
                "--checkpoint", str(tmp_path / "checkpoint.json"),
                "--out", str(out),
                "--diversity-only-init",
                "--k", "2",
            )
            == 0
        )
        (result,) = load_results(out)
        assert len(result.item_ids) == 2


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run("rerank") == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        code = run(
            "rerank",
            "--candidates", str(tmp_path / "nope.jsonl"),
            "--profiles", str(tmp_path / "nope2.jsonl"),
            "--checkpoint", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out.jsonl"),
        )
        assert code == 2
        assert "io error:" in capsys.readouterr().err

    def test_malformed_jsonl_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "items.jsonl"
        bad.write_text('{"item_id": "a", "embedding": [1, 2]}\nnot json\n')
        code = run(
            "cluster",
            "--items", str(bad),
            "--behaviors", str(bad),
            "--out", str(tmp_path / "c.jsonl"),
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_degenerate_kernel_is_numerical_error(self, tmp_path, capsys):
        # Vanishing amplitudes with jitter off push every initial d_i^2
        # under epsilon, so selection cannot seed a list.
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"a_item": 1e-8, "beta1": 0.0, "beta2": 0.0, "jitter": 0.0})
        )
        code = run(
            "rerank",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--out", str(tmp_path / "results.jsonl"),
            "--config", str(cfg),
        )
        assert code == 3
        assert "numerical error:" in capsys.readouterr().err

    def test_kernel_overflow_is_one_numerical_error_line(self, tmp_path, capsys):
        # Unnormalized embeddings of norm 40 put 1600 / b^2 in the exponent.
        write_duplicate_fixture(tmp_path)
        (cands,) = load_candidates(tmp_path / "candidates.jsonl")
        scaled = CandidateSet("u1", cands.ids, 40.0 * cands.embeddings, cands.base_scores)
        save_candidates(tmp_path / "candidates.jsonl", [scaled])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"normalize_embeddings": False}))
        code = run(
            "rerank",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--out", str(tmp_path / "results.jsonl"),
            "--config", str(cfg),
        )
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical error:")
        assert "normalize the embeddings" in lines[0]

    def test_non_increasing_alphas_rejected(self, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        code = run(
            "sweep",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--labels", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--out", str(tmp_path / "sweep.csv"),
            "--alphas", "1,1",
        )
        assert code == 1
        assert "strictly increasing" in capsys.readouterr().err

    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("--version")
        assert err.value.code == 0
        assert "diverank" in capsys.readouterr().out


def _item(**overrides):
    doc = {"item_id": "i1", "embedding": [1.0, 0.0], "base_score": 0.5}
    doc.update(overrides)
    return doc


def _line(*items):
    return {"user_id": "u1", "items": list(items)}


def _result(**overrides):
    step = {"item_id": "a", "score": 0.5, "log_d2": 0.0, "marginal": 0.5}
    doc = {"user_id": "u1", "item_ids": ["a"], "steps": [step], "objective": 0.5}
    doc.update(overrides)
    return doc


def _event(**overrides):
    doc = {"user_id": "u1", "item_id": "i1", "ts": 1, "label": 1}
    doc.update(overrides)
    return doc


# (command and the flag reading the line, the line, a fragment its error must name)
MALFORMED_LINES = {
    "non-numeric embedding": ("rerank --candidates", _line(_item(embedding=["x", 0.0])),
                              "embedding"),
    "ragged dims": ("rerank --candidates", _line(_item(), _item(item_id="i2", embedding=[1.0])),
                    "mixed embedding dims"),
    "nan embedding": ("rerank --candidates", _line(_item(embedding=[float("nan"), 0.0])),
                      "non-finite"),
    "items not a list": ("rerank --candidates", {"user_id": "u1", "items": "x"}, "items"),
    "item not an object": ("rerank --candidates", _line(["i1", [1.0, 0.0], 0.5]), "items"),
    "missing base_score": ("rerank --candidates", _line(_item(base_score=None)), "base_score"),
    "base_score above one": ("rerank --candidates", _line(_item(base_score=1.5)), "base_score"),
    "duplicate id": ("rerank --candidates", _line(_item(), _item()), "duplicate"),
    "list id": ("rerank --candidates", _line(_item(item_id=["a"])), "item_id"),
    "int id": ("rerank --candidates", _line(_item(item_id=5)), "item_id"),
    "list user id": ("rerank --candidates", {"user_id": ["u1"], "items": [_item()]}, "user_id"),
    "catalog non-numeric embedding": ("eval --items", {"item_id": "i1", "embedding": ["x", 0.0]},
                                      "embedding"),
    "catalog list id": ("eval --items", {"item_id": ["a"], "embedding": [1.0, 0.0]}, "item_id"),
    "catalog int id": ("eval --items", {"item_id": 7, "embedding": [1.0, 0.0]}, "item_id"),
    "result list item id": ("eval --results", _result(item_ids=[["a"]]), "item_id"),
    "result empty item id": ("eval --results", _result(item_ids=[""]), "item_id"),
    "result list user id": ("eval --results", _result(user_id=["u1"]), "user_id"),
    "result steps not a list": ("eval --results", _result(steps=5), "not iterable"),
    "behavior list item id": ("cluster --behaviors", _event(item_id=["a"]), "item_id"),
    "behavior int user id": ("cluster --behaviors", _event(user_id=3), "user_id"),
    "behavior list ts": ("cluster --behaviors", _event(ts=[1]), "int()"),
    "label list item id": ("eval --labels", _event(item_id=["a"]), "item_id"),
    "label list user id": ("eval --labels", _event(user_id=["u1"]), "user_id"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
    def test_malformed_line_is_one_error_line(self, case, tmp_path, capsys):
        stage, doc, fragment = MALFORMED_LINES[case]
        write_duplicate_fixture(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(doc) + "\n")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        command, flag = stage.split()
        # Every other input is valid (or empty), so the bad line is the one error.
        inputs = {
            "rerank": {
                "--candidates": tmp_path / "candidates.jsonl",
                "--profiles": tmp_path / "profiles.jsonl",
                "--checkpoint": tmp_path / "checkpoint.json",
                "--out": tmp_path / "results.jsonl",
            },
            "eval": {
                "--results": empty,
                "--labels": empty,
                "--items": empty,
                "--out": tmp_path / "eval.csv",
            },
            "cluster": {
                "--items": empty,
                "--behaviors": empty,
                "--out": tmp_path / "clusters.jsonl",
            },
        }[command]
        inputs[flag] = bad
        argv = [command, *(part for pair in inputs.items() for part in pair)]
        assert run(*map(str, argv)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: line 1:")
        assert fragment in lines[0]

    @pytest.mark.parametrize("field", ["cluster_id", "base_score"])
    def test_unread_catalog_field_is_ignored(self, field, tmp_path, capsys):
        items = tmp_path / "items.jsonl"
        items.write_text(json.dumps({"item_id": "i1", "embedding": [1.0, 0.0], field: "x"}) + "\n")
        behaviors = tmp_path / "behaviors.jsonl"
        behaviors.write_text(json.dumps({"user_id": "u1", "item_id": "i1", "ts": 1}) + "\n")
        argv = ["cluster", "--items", items, "--behaviors", behaviors,
                "--out", tmp_path / "clusters.jsonl"]
        assert run(*map(str, argv)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("stage", ["rerank", "sweep"])
    @pytest.mark.parametrize("source", ["candidates", "profiles"])
    def test_dim_mismatch_with_checkpoint_is_one_error_line(self, source, stage, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)  # checkpoint dim 2
        if source == "candidates":
            cands = CandidateSet("u1", ("i1",), np.ones((1, 3)), np.array([0.5]))
            save_candidates(tmp_path / "candidates.jsonl", [cands])
            expected = "error: candidate set u1: embedding dim 3 != checkpoint dim 2"
        else:
            profile = InterestProfile("u1", np.ones(3), np.ones(3))
            save_profiles(tmp_path / "profiles.jsonl", [profile])
            expected = "error: profile u1: dim 3 != checkpoint dim 2"
        argv = [
            stage,
            "--candidates", tmp_path / "candidates.jsonl",
            "--profiles", tmp_path / "profiles.jsonl",
            "--checkpoint", tmp_path / "checkpoint.json",
            "--out", tmp_path / "out",
        ]
        if stage == "sweep":
            labels = tmp_path / "labels.jsonl"
            labels.write_text("")
            argv += ["--labels", labels]
        assert run(*map(str, argv)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [expected]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", "10"),
            ("k", True),
            ("k", 2.0),
            ("alpha", "1"),
            ("alpha", False),
            ("jitter", None),
            ("normalize_embeddings", 1),
        ],
    )
    def test_wrong_config_type_is_one_error_line(self, field, value, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        code = run(
            "rerank",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--out", str(tmp_path / "results.jsonl"),
            "--config", str(cfg),
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {field} must be of type")


@pytest.mark.parametrize("module", ["diverank", "diverank.cli"])
def test_python_dash_m_entry_point(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", module, "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "diverank 0.1.0"
