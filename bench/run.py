#!/usr/bin/env python3
"""Benchmark of the diverank pipeline, driven through ``diverank.cli.main``.

    python3 bench/run.py --workload wide-pools --seed 1 --seconds 45 --trace 0

One workload runs in one process, in a closed loop: each CLI stage starts
when the previous one has returned, with BLAS pinned to one thread.  The
run is split into blocks; a block runs the workload's set-up stages into a
fresh directory, then passes over its timed stages, one after another,
until the block's share of ``--seconds`` is up.  Every call must exit 0,
must reproduce the bytes of its first run, and its outputs are checked.

Every timing is a median over the calls of its stage, each call's wall time
scaled to a nominal host speed by a fixed probe timed around it (see
host_probe): a shared host has phases of a second to a minute in which
every process runs up to 1.7 times slower, and the raw medians of runs that
fall in such a phase would differ by that much.  The raw times are kept in
the record line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs blocks for
half the time untraced, then rounds for the other half with every layer wrapped
(see layers.py), and prints the per-layer metrics; traced outputs must match
the untraced bytes.

The last line of stdout is the result; the line before it records the
environment, the workload shape and the sha256 of every input and output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import checks
from layers import PER_LAYER, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_BLOCKS = 3  # set-ups per untraced run, so that setup_s is a median
MIN_STAGE_SECONDS = 1.0  # a timed stage repeats within a pass until it has run this long
# A set-up stage runs once per block, so it repeats for longer to get
# as many samples as a timed stage.
SETUP_STAGE_SECONDS = 2.0
MAX_CALLS = 5
PROBE_REPEATS = 3
PROBE_WINDOW = 3  # probes on each side of a call that set its host speed
# host_probe() in a quiet phase of a 2-core Xeon at 2.1 GHz (the reference
# host).  A stage's time is scaled by PROBE_NOMINAL_S over the probe's time
# around the call (Runner.host_s), so that a phase in which a shared host runs every
# process slower does not read as a slower program.
PROBE_NOMINAL_S = 0.003


@dataclass(frozen=True)
class Workload:
    """The shape of one workload; the seed picks the inputs of that shape."""

    name: str
    users: int
    batch: int  # users per rerank call
    n: int  # candidates per user
    k: int  # list length
    d: int  # embedding dimension
    items_per_cluster: int  # six clusters, so the catalog holds 6x this
    epochs: int
    sweep_runs: int  # users the sweep covers
    sweep_alphas: str
    timed_training: bool  # cluster and train-scorer are timed, not set-up


# The shapes differ so that a planned optimisation shows more on one
# workload than on the other: parsing and the kernel (n*d and n^2*d per list)
# dominate wide-pools' rerank and the scorer (k*n*d^2) is a small share of it;
# in pipeline the scorer is the largest share of rerank, and only pipeline
# gives clustering, training and the sweep baselines real work.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("wide-pools", users=72, batch=12, n=800, k=5, d=16, items_per_cluster=150,
                 epochs=10, sweep_runs=2, sweep_alphas="1", timed_training=False),
        Workload("pipeline", users=200, batch=100, n=100, k=10, d=16, items_per_cluster=30,
                 epochs=3, sweep_runs=20, sweep_alphas="0,0.5,1,2,4", timed_training=True),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("rerank_lists_per_s", "lists/s"),
    ("train_s", "s"),
    ("eval_s", "s"),
    ("sweep_s", "s"),
    ("ndcg_at_k", "ratio"),
    ("ilad", "distance"),
    ("train_auc", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "share"),
)

OUTPUTS = {
    "synth": ("items.jsonl", "behaviors.jsonl", "candidates.jsonl", "labels.jsonl"),
    "cluster": ("clusters.jsonl",),
    "train-scorer": ("model/checkpoint.json", "model/profiles.jsonl", "model/training_log.csv"),
    "rerank": ("results.{part}.jsonl", "results.{part}.jsonl.diag.csv"),
    "eval": ("eval.csv",),
    "sweep": ("sweep.csv",),
}


def parts(wl: Workload) -> int:
    """Rerank calls per pass: one per batch of users."""
    return -(-wl.users // wl.batch)


def split_candidates(d: str, wl: Workload) -> None:
    """Write candidates.jsonl again as one candidates.<part>.jsonl per rerank batch."""
    with open(os.path.join(d, "candidates.jsonl"), encoding="utf-8") as fh:
        lines = fh.readlines()
    for part in range(parts(wl)):
        with open(os.path.join(d, f"candidates.{part}.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(lines[part * wl.batch:(part + 1) * wl.batch])


def join_results(d: str, wl: Workload) -> None:
    """Concatenate the rerank batches' results into results.jsonl, which eval reads."""
    with open(os.path.join(d, "results.jsonl"), "w", encoding="utf-8") as out:
        for part in range(parts(wl)):
            with open(os.path.join(d, f"results.{part}.jsonl"), encoding="utf-8") as fh:
                out.write(fh.read())


def stage_lists(wl: Workload) -> tuple[list[str], list[str]]:
    """(set-up stages, timed stages) in run order."""
    training = ["cluster", "train-scorer"]
    serving = ["rerank", "eval", "sweep"]
    if wl.timed_training:
        return ["synth"], training + serving
    return ["synth"] + training, serving


def stage_argv(stage: str, wl: Workload, seed: int, d: str, part: int | None) -> list[str]:
    def p(name: str) -> str:
        return os.path.join(d, name)

    items, behaviors, cands = p("items.jsonl"), p("behaviors.jsonl"), p("candidates.jsonl")
    labels, model = p("labels.jsonl"), p("model")
    profiles, ckpt = os.path.join(model, "profiles.jsonl"), os.path.join(model, "checkpoint.json")
    args = {
        "synth": ["--out", d, "--seed", seed, "--users", wl.users, "--candidates-per-user", wl.n,
                  "--dim", wl.d, "--items-per-cluster", wl.items_per_cluster],
        "cluster": ["--items", items, "--behaviors", behaviors, "--out", p("clusters.jsonl"),
                    "--seed", seed],
        "train-scorer": ["--items", items, "--behaviors", behaviors, "--clusters",
                         p("clusters.jsonl"), "--out", model, "--seed", seed,
                         "--epochs", wl.epochs],
        "rerank": ["--candidates", p(f"candidates.{part}.jsonl"), "--profiles", profiles,
                   "--checkpoint", ckpt, "--out", p(f"results.{part}.jsonl"), "--k", wl.k,
                   "--alpha", 1],
        "eval": ["--results", p("results.jsonl"), "--labels", labels, "--items", items,
                 "--out", p("eval.csv"), "--k", wl.k],
        "sweep": ["--candidates", cands, "--labels", labels, "--profiles", profiles,
                  "--checkpoint", ckpt, "--out", p("sweep.csv"), "--k", wl.k,
                  "--runs", wl.sweep_runs, "--alphas", wl.sweep_alphas],
    }[stage]
    return [stage] + [str(a) for a in args]


def host_probe() -> float:
    """Median seconds, over PROBE_REPEATS tries, of fixed work like the
    stages' own: building and sorting small Python objects, and small numpy
    products.  The code under test is not involved."""
    import numpy as np

    tries = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        rows = {str(i): [i, i * 0.5, (i,)] for i in range(3000)}
        sorted(rows.items(), key=lambda kv: -kv[1][1])
        a = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)
        for _ in range(40):
            a = np.tanh(a @ a.T / 48.0)
        b = np.linspace(-1.0, 1.0, 256 * 64).reshape(256, 64)
        for _ in range(10):
            b = np.tanh(b @ (b.T @ b) / 4096.0)
        tries.append(time.perf_counter() - t0)
    return statistics.median(tries)


class Runner:
    """Calls ``cli.main`` for one stage, times the call and checks its outputs.

    An operation fails when the call does not exit 0, when an output differs
    from the bytes of that output's first run, or when the first run's
    content is wrong.
    """

    def __init__(self, cli, wl: Workload, seed: int):
        self.cli, self.wl, self.seed = cli, wl, seed
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}  # output name -> sha256 of its first run
        # (stage, traced) -> (wall seconds, call number) of each call
        self.samples: dict[tuple[str, bool], list[tuple[float, int]]] = {}
        self.probes = [host_probe()]  # probes[i] runs before call i, probes[i + 1] after it
        self.tracer: Tracer | None = None
        self._checked: set[str] = set()  # outputs whose content was checked

    def call(self, stage: str, d: str, part: int | None = None) -> float:
        """One CLI call; `part` is the batch of users a rerank call serves."""
        argv = stage_argv(stage, self.wl, self.seed, d, part)
        gc.collect()
        if self.tracer is not None:
            self.tracer.stage = stage
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception:  # noqa: BLE001 - an escaping error is a failed op, not a dead run
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - t0
        self.probes.append(host_probe())
        problems = [f"exit code {rc}"] if rc != 0 else self._check(stage, d, part)
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check: {stage}: {problem}", file=sys.stderr)
        key = stage if part is None else f"{stage}.{part}"
        self.samples.setdefault((key, self.tracer is not None), []).append(
            (seconds, len(self.probes) - 2))
        return seconds

    def host_s(self, call: int) -> float:
        """The host's probe time around a call: the median of the PROBE_WINDOW
        probes on each side of it, which evens out the jitter of one probe
        but still follows a phase of a second or more."""
        return statistics.median(
            self.probes[max(0, call + 1 - PROBE_WINDOW):call + 1 + PROBE_WINDOW])

    def _keys(self, stage: str, traced: bool) -> list[tuple[str, bool]]:
        if stage != "rerank":
            return [(stage, traced)]
        return [(f"rerank.{part}", traced) for part in range(parts(self.wl))]

    def median(self, stage: str, traced: bool = False) -> float:
        """Wall time of one call of the stage at nominal host speed: the
        median over its calls, summed over the batches of a rerank pass."""
        return sum(statistics.median(wall * PROBE_NOMINAL_S / self.host_s(call)
                                     for wall, call in self.samples[key])
                   for key in self._keys(stage, traced))

    def wall_total(self, stage: str, traced: bool) -> float:
        """Wall seconds of every call of the stage."""
        return sum(wall for key in self._keys(stage, traced) for wall, _ in self.samples[key])

    def _check(self, stage: str, d: str, part: int | None) -> list[str]:
        problems = []
        for name in (out.format(part=part) for out in OUTPUTS[stage]):
            path = os.path.join(d, name)
            if not os.path.isfile(path):
                problems.append(f"{name} was not written")
                continue
            sha = checks.digest(path)
            first = self.digests.setdefault(name, sha)
            if sha != first:
                problems.append(f"{name} sha256 {sha[:16]} differs from first run {first[:16]}")
            elif name not in self._checked:
                self._checked.add(name)
                problems.extend(self._content_problems(name, path, d))
        return problems

    def _content_problems(self, name: str, path: str, d: str) -> list[str]:
        if name.startswith("results.") and name.endswith(".jsonl"):
            part = name[len("results."):-len(".jsonl")]
            candidates = checks.candidate_ids(os.path.join(d, f"candidates.{part}.jsonl"))
            return checks.results_problems(path, candidates, self.wl.k)
        if name == "eval.csv":
            return checks.csv_numbers_finite(path, {"user_id"}, set())
        if name == "sweep.csv":
            return checks.csv_numbers_finite(path, {"method"}, {"lambda"})
        if name == "model/training_log.csv":
            return checks.csv_numbers_finite(path, set(), set())
        return []


def run_stage(runner: Runner, stage: str, d: str, min_seconds: float) -> None:
    """One stage of a pass.  Rerank is one call per batch of users, so that
    no sample spans more than about a second; the batches' results are then
    joined for eval.  Another stage is called again until it has run for
    `min_seconds`, up to MAX_CALLS calls, so that a cheap stage's median
    rests on many samples."""
    if stage != "rerank":
        spent, calls = 0.0, 0
        while calls == 0 or (calls < MAX_CALLS and spent < min_seconds):
            spent += runner.call(stage, d)
            calls += 1
        if stage == "synth":
            split_candidates(d, runner.wl)
        return
    for part in range(parts(runner.wl)):
        runner.call(stage, d, part)
    join_results(d, runner.wl)


def run_blocks(runner: Runner, wl: Workload, work: str, seconds: float) -> str:
    """Untraced: split `seconds` into SETUP_BLOCKS equal blocks.  Each block
    runs the set-up stages into a fresh directory, then passes over the
    timed stages (see run_stage) while at least half a pass fits in its
    time, and at least once.
    Returns the last block's directory, the only one left.

    Passing over the stages in turn, rather than running each for a long
    stretch, lets every stage sample the host's fast and slow phases alike;
    the set-up samples are spread over the run for the same reason.
    """
    setup, timed = stage_lists(wl)
    start, previous = time.perf_counter(), None
    for block in range(SETUP_BLOCKS):
        d = os.path.join(work, f"block-{block}")
        for stage in setup:
            run_stage(runner, stage, d, SETUP_STAGE_SECONDS)
        block_end = start + seconds * (block + 1) / SETUP_BLOCKS
        pass_s = 0.0  # the latest pass's length; a pass starts if half of it fits
        while pass_s == 0.0 or time.perf_counter() + pass_s / 2 < block_end:
            t0 = time.perf_counter()
            for stage in timed:
                run_stage(runner, stage, d, MIN_STAGE_SECONDS)
            pass_s = time.perf_counter() - t0
        if previous is not None:
            shutil.rmtree(previous)
        previous = d
    return previous


def run_traced_rounds(runner: Runner, wl: Workload, work: str, seconds: float,
                      tracer: Tracer) -> None:
    """Traced: run every stage once, set-up first, into a fresh directory
    per round until `seconds` have passed (at least one round).  One round
    is one tracer pass, so per-layer numbers count one call of each stage.
    """
    deadline = time.perf_counter() + seconds
    rounds, previous = 0, None
    while rounds == 0 or time.perf_counter() < deadline:
        d = os.path.join(work, f"traced-{rounds}")
        tracer.begin_pass(rounds)
        for stage in sum(stage_lists(wl), []):
            run_stage(runner, stage, d, 0.0)
        if previous is not None:
            shutil.rmtree(previous)
        previous = d
        rounds += 1


def end_to_end_metrics(runner: Runner, setup_s: float, d: str) -> dict[str, float]:
    """From the untraced rounds; `d` is the last round's directory."""
    ndcg, ilad = checks.eval_means(os.path.join(d, "eval.csv"))
    return {
        "setup_s": setup_s,
        "rerank_lists_per_s": runner.wl.users / runner.median("rerank"),
        # Building the model: clustering, then training the scorer.  Louvain's
        # work varies with the seed's graph, by a fifth across seeds on the
        # small graph of wide-pools, too much for a metric of its own;
        # clustering is 5-15% of this sum.
        "train_s": runner.median("cluster") + runner.median("train-scorer"),
        "eval_s": runner.median("eval"),
        "sweep_s": runner.median("sweep"),
        "ndcg_at_k": ndcg,
        "ilad": ilad,
        "train_auc": checks.final_auc(os.path.join(d, "model", "training_log.csv")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": 1.0 - runner.failed / runner.attempted,
    }


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(runner: Runner, tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers for one round of the workload: the median over the
    traced rounds."""

    def per_pass(name: str) -> float:
        return statistics.median(p.get(name, 0.0) for p in tracer.passes.values())

    special = {
        "rerank.list_ms.p50": lambda: _percentile(tracer.list_ms, 50),
        "rerank.list_ms.p90": lambda: _percentile(tracer.list_ms, 90),
        "rerank.list_ms.samples": lambda: len(tracer.list_ms),
        "trace.overhead_frac": lambda: (runner.median("rerank", traced=True)
                                        / runner.median("rerank") - 1.0),
    }
    out = {}
    for metric in PER_LAYER:
        if tracer.absent.intersection(metric.needs):
            continue
        out[metric.name] = special.get(metric.name, lambda: per_pass(metric.name))()
    return out


def git_revision() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_vendor = None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas_vendor": blas_vendor,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: str) -> tuple[dict, dict]:
    """Run one workload; returns (record line, result line)."""
    t0 = time.perf_counter()
    from diverank import cli

    import_s = time.perf_counter() - t0
    runner = Runner(cli, wl, seed)
    tracer = None
    if not trace:
        last = run_blocks(runner, wl, work, seconds)
        setup_s = import_s + sum(runner.median(stage) for stage in stage_lists(wl)[0])
        values = end_to_end_metrics(runner, setup_s, last)
        units = dict(END_TO_END)
    else:
        run_blocks(runner, wl, work, seconds / 2)
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        try:
            run_traced_rounds(runner, wl, work, seconds / 2, tracer)
        finally:
            tracer.uninstall()
            runner.tracer = None
        values = layer_metrics(runner, tracer)
        units = {m.name: m.unit for m in PER_LAYER}

    record = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "shape": asdict(wl),
        "env": environment(),
        "digests": runner.digests,
        # [wall seconds, host probe seconds] of every call
        "stage_seconds": {
            f"{stage}{'.traced' if t else ''}": [[round(wall, 6), round(runner.host_s(call), 6)]
                                                  for wall, call in v]
            for (stage, t), v in runner.samples.items()
        },
        "probe_nominal_s": PROBE_NOMINAL_S,
        "absent_layers": sorted(tracer.absent) if tracer else [],
        # Share of each traced stage's wall time spent in each layer's own code.
        "layer_shares": {
            stage: {layer: round(t / runner.wall_total(stage, True), 4)
                    for layer, t in sorted(by_layer.items())}
            for stage, by_layer in tracer.stage_self.items()
        } if tracer else {},
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diverank", "cli.py")):
        print(f"error: no diverank sources under {SRC}", file=sys.stderr)
        return 2
    # Pinned before numpy is first imported, which happens inside run().
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        record, result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
