"""End-to-end CLI coverage: pipeline stages, determinism, exit codes."""

import argparse
import csv
import gc
import inspect
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from diverank import cli
from diverank.accuracy import init_scorer_params
from diverank.data import (
    CandidateSet,
    ExperimentConfig,
    load_candidates,
    load_checkpoint,
    load_results,
    save_candidates,
    save_checkpoint,
)
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


class TestCheckpoint:
    def test_holds_only_scorer_tensors(self, pipeline):
        doc = json.loads((pipeline["model"] / "checkpoint.json").read_text())
        names = [entry["name"] for entry in doc["tensors"]]
        assert names and all(name.startswith("scorer.") for name in names)
        assert set(doc["meta"]) == {"dim", "reduction", "hidden"}

    def test_legacy_interest_tensors_are_ignored(self, pipeline, tmp_path):
        # Checkpoints written while train-scorer still saved its frozen
        # interest attention carry interest.* tensors and their meta keys.
        arrays, meta = load_checkpoint(pipeline["model"] / "checkpoint.json")
        dim = meta["dim"]
        legacy = dict(arrays)
        for scope, width in (("macro", dim), ("micro", dim + 8)):
            for h in range(2):
                for w in ("wq", "wk", "wv"):
                    legacy[f"interest.{scope}.h{h}.{w}"] = np.ones((width, dim // 2))
            legacy[f"interest.{scope}.wo"] = np.ones((dim, dim))
        legacy["interest.time_table"] = np.ones((16, 8))
        meta = dict(meta, heads=2, head_dim=dim // 2, time_dim=8, time_buckets=16)
        save_checkpoint(tmp_path / "legacy.json", legacy, meta)
        out = tmp_path / "results.jsonl"
        assert run(
            "rerank",
            "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
            "--profiles", str(pipeline["model"] / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "legacy.json"),
            "--out", str(out),
        ) == 0
        assert out.read_bytes() == (pipeline["root"] / "results.jsonl").read_bytes()


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

    def test_profiles_do_not_depend_on_the_seed(self, pipeline, tmp_path):
        # Pooling draws no random numbers; only the scorer reads --seed.
        fix = pipeline["fix"]
        for seed in ("1", "2"):
            assert run(
                "train-scorer",
                "--items", str(fix / "items.jsonl"),
                "--behaviors", str(fix / "behaviors.jsonl"),
                "--clusters", str(fix / "clusters.jsonl"),
                "--out", str(tmp_path / seed),
                "--epochs", "1",
                "--seed", seed,
            ) == 0
        profiles = [(tmp_path / seed / "profiles.jsonl").read_bytes() for seed in ("1", "2")]
        assert profiles[0] == profiles[1] == (pipeline["model"] / "profiles.jsonl").read_bytes()

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

    def test_sweep_holds_one_kernel_at_a_time(self, pipeline, tmp_path, monkeypatch):
        # Peak memory must not grow with --runs: when a user's n x n kernel
        # is built, at most the previous user's kernel may still be alive.
        built, alive_at_build = [], []
        composite_matrix = cli.composite_matrix

        def tracked_composite_matrix(*args, **kwargs):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in built))
            kernel = composite_matrix(*args, **kwargs)
            built.append(weakref.ref(kernel))
            return kernel

        monkeypatch.setattr(cli, "composite_matrix", tracked_composite_matrix)
        assert (
            run(
                "sweep",
                "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
                "--labels", str(pipeline["fix"] / "labels.jsonl"),
                "--profiles", str(pipeline["model"] / "profiles.jsonl"),
                "--checkpoint", str(pipeline["model"] / "checkpoint.json"),
                "--out", str(tmp_path / "sweep.csv"),
                "--alphas", "0,1",
                "--runs", "8",
            )
            == 0
        )
        assert len(built) == 8
        assert max(alive_at_build) <= 1

    def test_sweep_builds_scorer_and_similarity_once_per_user(self, pipeline, tmp_path, monkeypatch):
        # Neither depends on alpha; both stay looked up as cli globals.
        calls = {"profile_scorer": 0, "cosine_similarity_fn": 0}
        for name in calls:
            original = getattr(cli, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep",
            "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
            "--labels", str(pipeline["fix"] / "labels.jsonl"),
            "--profiles", str(pipeline["model"] / "profiles.jsonl"),
            "--checkpoint", str(pipeline["model"] / "checkpoint.json"),
            "--alphas", "0,0.5,1,2",
            "--runs", "3",
        ]
        assert run(*argv, "--out", str(out)) == 0
        assert calls == {"profile_scorer": 3, "cosine_similarity_fn": 3}


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
    params = init_scorer_params(2, np.random.default_rng(0))
    for w in params.arrays().values():
        w[...] = 0.0
    tensors = {f"scorer.{k}": v for k, v in params.arrays().items()}
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


def write_labels(root):
    labels = root / "labels.jsonl"
    labels.write_text(json.dumps({"user_id": "u1", "item_id": "i1", "ts": 0, "label": 1}) + "\n")
    return labels


class TestSingleItemLists:
    def test_eval_without_ilad_values_prints_blank_mean(self, tmp_path, capsys):
        # With k = 1 no list has two items, so ILAD has no values to average.
        write_duplicate_fixture(tmp_path)
        items = tmp_path / "items.jsonl"
        items.write_text(
            "".join(
                json.dumps({"item_id": i, "embedding": e}) + "\n"
                for i, e in (("i1", [1.0, 0.0]), ("i2", [1.0, 0.0]), ("i3", [0.0, 1.0]))
            )
        )
        labels = tmp_path / "labels.jsonl"
        labels.write_text(json.dumps({"user_id": "u1", "item_id": "i1", "ts": 0, "label": 1}))
        results, out = tmp_path / "results.jsonl", tmp_path / "eval.csv"
        argv = ["rerank", "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json", "--out", results, "--k", 1]
        assert run(*map(str, argv)) == 0
        capsys.readouterr()
        argv = ["eval", "--results", results, "--labels", labels, "--items", items,
                "--out", out, "--k", 1]
        assert run(*map(str, argv)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"mean ndcg@1=1, mean ilad= -> {out}" in captured.out
        mean_row = list(csv.reader(open(out)))[-1]
        assert mean_row == ["__mean__", "", "1", ""]

    def test_sweep_without_ilad_values_leaves_mean_blank(self, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        labels = write_labels(tmp_path)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--candidates", tmp_path / "candidates.jsonl", "--labels", labels,
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json", "--out", out,
                "--k", 1, "--runs", 3, "--alphas", "0,1"]
        assert run(*map(str, argv)) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 6
        assert all(row["mean_ilad"] == "" for row in rows)
        assert all(row["mean_ndcg"] != "" and row["mean_objective"] != "" for row in rows)


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

    @pytest.mark.filterwarnings("error")  # numpy may not print an overflow warning
    @pytest.mark.parametrize("command", ["rerank", "sweep"])
    def test_overflowing_joint_value_is_one_numerical_error_line(self, command, tmp_path, capsys):
        # log d^2 is about 1.3 on this fixture, so alpha * log d^2 passes float64's maximum.
        write_duplicate_fixture(tmp_path)
        out = tmp_path / "out"
        argv = [command, "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json", "--out", out]
        if command == "sweep":
            argv += ["--labels", write_labels(tmp_path), "--alphas", "0,1e308"]
        else:
            argv += ["--alpha", "1e308"]
        assert run(*map(str, argv)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical error:")
        assert "alpha=1e+308" in lines[0]
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["rerank", "sweep"])
    @pytest.mark.parametrize(
        "config, field",
        [
            ({"b_s": 1e-200}, "b_s"),  # b^2 underflows to 0
            ({"b_l": 1e-160}, "b_l"),  # 1/b^2 overflows
            ({"a_s": 1e200}, "a_s"),  # a^2 overflows
            ({"a_l": 1e160, "beta1": 1e10}, "a_l"),
        ],
    )
    def test_kernel_scale_factor_is_one_numerical_error_line(
        self, tmp_path, capsys, command, config, field
    ):
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [command, "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json", "--out", out, "--config", cfg]
        if command == "sweep":
            argv += ["--labels", write_labels(tmp_path)]
        assert run(*map(str, argv)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical error:")
        assert f"{field}=" in lines[0]
        assert not out.exists()

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


def _result_without(field):
    doc = _result()
    del doc[field]
    return doc


def _event(**overrides):
    doc = {"user_id": "u1", "item_id": "i1", "ts": 1, "label": 1}
    doc.update(overrides)
    return doc


def _cluster(**overrides):
    doc = {"item_id": "i1", "cluster_id": 1}
    doc.update(overrides)
    return doc


def _profile(**overrides):
    doc = {"user_id": "u1", "h_macro": [1.0, 0.0], "h_micro": [0.0, 1.0]}
    doc.update(overrides)
    return doc


HUGE = 10**400  # a JSON integer too large for float64
TS_RULE = "ts must be an integer >= 0"
CLUSTER_RULE = "cluster_id must be an integer >= 0"
LABEL_RULE = "label must be absent, null, 0 or 1"
STEPS_RULE = "steps must be a list of objects"

# (command and the flag reading the line, the line as an object or raw text,
#  a fragment its error must name)
MALFORMED_LINES = {
    "non-numeric embedding": ("rerank --candidates", _line(_item(embedding=["x", 0.0])),
                              "embedding"),
    "ragged dims": ("rerank --candidates", _line(_item(), _item(item_id="i2", embedding=[1.0])),
                    "item i2: embedding must be a list of 2 numbers"),
    "nan embedding": ("rerank --candidates", _line(_item(embedding=[float("nan"), 0.0])),
                      "non-finite"),
    "numeric string embedding": ("rerank --candidates", _line(_item(embedding=["0.5", 0.0])),
                                 "item i1: embedding"),
    "bool embedding": ("rerank --candidates", _line(_item(embedding=[True, 0.0])),
                       "item i1: embedding"),
    "huge int embedding": ("rerank --candidates", _line(_item(embedding=[HUGE, 0.0])),
                           "item i1: embedding"),
    "string base_score": ("rerank --candidates", _line(_item(base_score="0.5")),
                          "item i1: base_score"),
    "bool base_score": ("rerank --candidates", _line(_item(base_score=True)), "item i1: base_score"),
    "huge int base_score": ("rerank --candidates", _line(_item(base_score=HUGE)), "base_score"),
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
    "catalog numeric string embedding": ("eval --items", {"item_id": "i1", "embedding": ["0.5", 0.0]},
                                         "item i1: embedding"),
    "catalog bool embedding": ("eval --items", {"item_id": "i1", "embedding": [True, 0.0]},
                               "item i1: embedding"),
    "catalog huge int embedding": ("eval --items", {"item_id": "i1", "embedding": [HUGE, 0.0]},
                                   "item i1: embedding"),
    "catalog list id": ("eval --items", {"item_id": ["a"], "embedding": [1.0, 0.0]}, "item_id"),
    "catalog int id": ("eval --items", {"item_id": 7, "embedding": [1.0, 0.0]}, "item_id"),
    "result list item id": ("eval --results", _result(item_ids=[["a"]]), "item_id"),
    "result empty item id": ("eval --results", _result(item_ids=[""]), "item_id"),
    "result list user id": ("eval --results", _result(user_id=["u1"]), "user_id"),
    "result steps not a list": ("eval --results", _result(steps=5), STEPS_RULE),
    "result step not an object": ("eval --results", _result(steps=[5]), STEPS_RULE),
    "result step missing score": ("eval --results",
                                  _result(steps=[{"item_id": "a", "log_d2": 0.0, "marginal": 0.5}]),
                                  "step missing field 'score'"),
    "result string score": ("eval --results",
                            _result(steps=[{"item_id": "a", "score": "0.5", "log_d2": 0.0,
                                            "marginal": 0.5}]),
                            "score must be a number"),
    "result bool score": ("eval --results",
                          _result(steps=[{"item_id": "a", "score": True, "log_d2": 0.0,
                                          "marginal": 0.5}]),
                          "score must be a number"),
    "result huge objective": ("eval --results", _result(objective=HUGE), "objective"),
    "result missing user_id": ("eval --results", _result_without("user_id"),
                               "result missing field 'user_id'"),
    "result missing item_ids": ("eval --results", _result_without("item_ids"),
                                "result missing field 'item_ids'"),
    "result missing steps": ("eval --results", _result_without("steps"),
                             "result missing field 'steps'"),
    "result missing objective": ("eval --results", _result_without("objective"),
                                 "result missing field 'objective'"),
    "result string exhausted": ("eval --results", _result(exhausted="no"), "exhausted"),
    "behavior list item id": ("cluster --behaviors", _event(item_id=["a"]), "item_id"),
    "behavior int user id": ("cluster --behaviors", _event(user_id=3), "user_id"),
    "behavior list ts": ("cluster --behaviors", _event(ts=[1]), TS_RULE),
    "behavior float ts": ("cluster --behaviors", _event(ts=1.9), TS_RULE),
    "behavior bool ts": ("cluster --behaviors", _event(ts=True), TS_RULE),
    "behavior negative ts": ("cluster --behaviors", _event(ts=-1), TS_RULE),
    "behavior ts past int64": ("cluster --behaviors", _event(ts=2**63), TS_RULE),
    "behavior missing ts": ("cluster --behaviors", {"user_id": "u1", "item_id": "i1"},
                            "missing field 'ts'"),
    "behavior bool label": ("cluster --behaviors", _event(label=True), LABEL_RULE),
    "behavior float label": ("cluster --behaviors", _event(label=1.0), LABEL_RULE),
    "behavior list label": ("cluster --behaviors", _event(label=[1]), LABEL_RULE),
    "behavior two objects on one line": ("cluster --behaviors",
                                         json.dumps(_event()) + json.dumps(_event()),
                                         "Extra data"),
    "label list item id": ("eval --labels", _event(item_id=["a"]), "item_id"),
    "label list user id": ("eval --labels", _event(user_id=["u1"]), "user_id"),
    "label list ts": ("eval --labels", _event(ts=[1]), TS_RULE),
    "label float ts": ("eval --labels", _event(ts=0.5), TS_RULE),
    "label bool label": ("eval --labels", _event(label=False), LABEL_RULE),
    "label float label": ("eval --labels", _event(label=1.0), LABEL_RULE),
    "label minus one": ("eval --labels", _event(label=-1), LABEL_RULE),
    "label object label": ("eval --labels", _event(label={}), LABEL_RULE),
    "label absent": ("eval --labels", {"user_id": "u1", "item_id": "i1", "ts": 0},
                     "label line for (u1, i1) lacks a label"),
    "label null": ("eval --labels", _event(label=None), "lacks a label"),
    "cluster float id": ("train-scorer --clusters", _cluster(cluster_id=1.9), CLUSTER_RULE),
    "cluster bool id": ("train-scorer --clusters", _cluster(cluster_id=True), CLUSTER_RULE),
    "cluster string id": ("train-scorer --clusters", _cluster(cluster_id="3"), CLUSTER_RULE),
    "cluster negative id": ("train-scorer --clusters", _cluster(cluster_id=-1), CLUSTER_RULE),
    "cluster int item id": ("train-scorer --clusters", _cluster(item_id=7), "item_id"),
    "cluster missing id": ("train-scorer --clusters", {"item_id": "i1"},
                           "missing field 'cluster_id'"),
    "profile int user id": ("rerank --profiles", _profile(user_id=5), "user_id"),
    "profile bool entry": ("rerank --profiles", _profile(h_macro=[True, 0.0]), "h_macro"),
    "profile string vector": ("rerank --profiles", _profile(h_micro="ab"), "h_micro"),
    "profile nan entry": ("rerank --profiles", _profile(h_macro=[float("nan"), 0.0]), "finite"),
    "profile missing vector": ("rerank --profiles", {"user_id": "u1", "h_macro": [1.0, 0.0]},
                               "missing field 'h_micro'"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
    def test_malformed_line_is_one_error_line(self, case, tmp_path, capsys):
        stage, doc, fragment = MALFORMED_LINES[case]
        write_duplicate_fixture(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text((doc if isinstance(doc, str) else json.dumps(doc)) + "\n")
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
            "train-scorer": {
                "--items": empty,
                "--behaviors": empty,
                "--clusters": empty,
                "--out": tmp_path / "model",
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

    @pytest.mark.parametrize(
        "flag, lines, expected",
        [
            ("--results", [_result(), _result()], "error: line 2: duplicate result for user 'u1'"),
            # u1 sorts first, so its row index and its line number differ.
            ("--labels", [_event(user_id="u2"), _event(item_id="i2", label=None)],
             "error: line 2: label line for (u1, i2) lacks a label"),
        ],
        ids=["duplicate result", "unlabelled label line"],
    )
    def test_bad_later_line_cites_its_line(self, flag, lines, expected, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        inputs = {"--results": empty, "--labels": empty, "--items": empty}
        inputs[flag] = bad
        argv = ["eval", *(part for pair in inputs.items() for part in pair)]
        assert run(*map(str, argv), "--out", str(tmp_path / "eval.csv")) == 1
        assert capsys.readouterr().err.splitlines() == [expected]

    @pytest.mark.parametrize(
        "case",
        ["no tensors", "not json", "data length", "head width", "shape not a pair", "nan data"],
    )
    def test_malformed_checkpoint_is_one_error_line(self, case, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        entry = {e["name"]: e for e in doc["tensors"]}
        if case == "no tensors":
            doc = {"version": 1}
        elif case == "data length":
            entry["scorer.mlp_w1"]["data"].pop()
        elif case == "head width":  # (h, 1) instead of the two-logit (h, 2)
            w2 = entry["scorer.mlp_w2"]
            w2["shape"][1] = 1
            w2["data"] = w2["data"][: w2["shape"][0]]
        elif case == "shape not a pair":
            entry["scorer.mlp_b2"]["shape"] = [2]
        elif case == "nan data":
            entry["scorer.w1_prev"]["data"][0] = float("nan")
        path.write_text("not json" if case == "not json" else json.dumps(doc))
        code = run(
            "rerank",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(path),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")

    @pytest.mark.parametrize("stage", ["rerank", "sweep"])
    @pytest.mark.parametrize("case", ["string number", "boolean", "nested lists"])
    def test_non_number_tensor_data_is_one_error_line(self, case, stage, tmp_path, capsys):
        # numpy would read each of these as a float; the checkpoint must not.
        write_duplicate_fixture(tmp_path)
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        entry = next(e for e in doc["tensors"] if e["name"] == "scorer.mlp_b2")
        if case == "string number":
            entry["data"][0] = "0.5"
        elif case == "boolean":
            entry["data"][0] = True
        else:
            entry["data"] = [[v] for v in entry["data"]]
        path.write_text(json.dumps(doc))
        labels = tmp_path / "labels.jsonl"
        labels.write_text("")
        argv = [
            stage,
            "--candidates", tmp_path / "candidates.jsonl",
            "--profiles", tmp_path / "profiles.jsonl",
            "--checkpoint", path,
            "--out", tmp_path / "out",
        ] + (["--labels", labels] if stage == "sweep" else [])
        assert run(*map(str, argv)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: malformed checkpoint tensor (scorer.mlp_b2 data must be a list of 2 numbers)"
        ]

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

    def test_float_field_past_float64_is_one_error_line(self, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": HUGE}))
        argv = ["rerank", "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json",
                "--out", tmp_path / "results.jsonl", "--config", cfg]
        assert run(*map(str, argv)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: alpha ")
        assert not (tmp_path / "results.jsonl").exists()

    @pytest.mark.parametrize(
        "field, value", [("negative_exponent_kernels", True), ("time_buckets", 16)]
    )
    def test_removed_config_field_is_unknown(self, field, value, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        argv = ["rerank", "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json",
                "--out", tmp_path / "results.jsonl", "--config", cfg]
        assert run(*map(str, argv)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: unknown config fields: {field}"]
        assert not (tmp_path / "results.jsonl").exists()


class TestBadTrainingArguments:
    """Each bad value exits with one error line before any file is written."""

    @pytest.mark.parametrize(
        "flag, value, code, expected",
        [
            ("--hidden", "0", 1, "error: hidden must be >= 1, got 0"),
            ("--lr", "nan", 1, "error: lr must be finite and >= 0, got nan"),
            ("--lr", "inf", 1, "error: lr must be finite and >= 0, got inf"),
            ("--lr", "-1", 1, "error: lr must be finite and >= 0, got -1.0"),
            ("--lr", "1e308", 3, "numerical error: training diverged in epoch 0"),
            ("--epochs", "0", 1, "error: epochs must be >= 1"),
            ("--batch-size", "0", 1, "error: batch_size must be >= 1"),
            ("--reduction", "0", 1, "error: reduction must be >= 1"),
        ],
    )
    def test_train_scorer_flag(self, flag, value, code, expected, pipeline, tmp_path, capsys):
        fix = pipeline["fix"]
        out = tmp_path / "model"
        assert run(
            "train-scorer",
            "--items", str(fix / "items.jsonl"),
            "--behaviors", str(fix / "behaviors.jsonl"),
            "--clusters", str(fix / "clusters.jsonl"),
            "--out", str(out),
            "--epochs", "2",
            flag, value,
        ) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(expected)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--heads", "--time-dim"])
    def test_removed_interest_flag_is_one_error_line(self, flag, pipeline, tmp_path, capsys):
        fix = pipeline["fix"]
        out = tmp_path / "model"
        assert run(
            "train-scorer",
            "--items", str(fix / "items.jsonl"),
            "--behaviors", str(fix / "behaviors.jsonl"),
            "--clusters", str(fix / "clusters.jsonl"),
            "--out", str(out),
            flag, "2",
        ) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: unrecognized arguments: {flag} 2"]
        assert not out.exists()

    @pytest.mark.parametrize("alphas, bad", [("0,x", "'x'"), ("0, 1e ,2", "'1e'"), ("one", "'one'")])
    def test_sweep_alpha_that_is_not_a_number(self, alphas, bad, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        code = run(
            "sweep",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--labels", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--out", str(tmp_path / "sweep.csv"),
            "--alphas", alphas,
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: --alphas entry {bad} is not a number"]
        assert not (tmp_path / "sweep.csv").exists()


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


# Options a stage accepts without reading, each with the reason it stays.
IGNORED_OPTIONS = {
    ("cluster", "seed"): "bench/run.py passes --seed to every seeded stage, cluster included",
}


def test_every_option_is_read_by_its_stage():
    """A flag its stage never reads silently does nothing; only the listed
    exceptions may exist."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = set()
    for command, sub in subparsers.choices.items():
        func = sub.get_default("func")
        source = inspect.getsource(func)
        # Helpers handed the whole namespace, such as _load_experiment_config.
        for helper in re.findall(r"(\w+)\(args\)", source):
            source += inspect.getsource(getattr(cli, helper))
        read = set(re.findall(r"args\.(\w+)", source))
        read |= set(re.findall(r"getattr\(args, \"(\w+)\"", source))
        for action in sub._actions:
            if action.option_strings and action.dest not in ("help", "func"):
                if action.dest not in read:
                    unread.add((command, action.dest))
    assert unread == set(IGNORED_OPTIONS)


def test_every_config_field_is_read():
    """A config field no stage reads silently does nothing.  data.py only
    declares, checks and loads the fields, so its reads do not count."""
    package = Path(cli.__file__).parent
    source = "".join(
        path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py"))
        if path.name != "data.py"
    )
    read = set(re.findall(r"\bcfg\w*\.(\w+)", source))
    assert {f.name for f in fields(ExperimentConfig)} - read == set()
