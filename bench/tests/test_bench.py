"""Tests of the benchmark itself, on shrunken copies of its workloads."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

harness = run.import_program()


def tiny(name: str, seed: int = 3) -> list[dict]:
    """The workload's configs with 3 rounds, or 2 queue points of 500k jobs."""
    raws = copy.deepcopy(workloads.configs(name, seed))
    if name == "queue_plan":
        raws = raws[:2]
        for raw in raws:
            raw["queue"]["n_jobs"] = 500_000
    for raw in raws:
        if "federation" in raw:
            raw["federation"]["global_epochs"] = 3
    return raws


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced repetitions of every tiny workload."""
    home = Path.cwd()
    os.chdir(tmp_path_factory.mktemp("reps"))
    try:
        return {
            name: [run.run_rep(harness, tiny(name), None, traced=True) for _ in range(2)]
            for name in workloads.WORKLOADS
        }
    finally:
        os.chdir(home)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(traced, name):
    for rep in traced[name]:
        assert rep.errors and all(error is None for error in rep.errors.values()), rep.errors
        assert rep.run_s > 0.0


def test_every_listed_span_fires(traced):
    fired = {span for reps in traced.values() for span, s in reps[0].tracer.stats.items() if s.calls}
    assert set(spans.SPANS) <= fired, sorted(set(spans.SPANS) - fired)
    assert all(not reps[0].tracer.absent for reps in traced.values())
    assert traced["queue_plan"][0].tracer.counters["netqueue.jobs_simulated"] == 2 * 500_000


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly(traced, name):
    first, second = traced[name]
    assert first.tracer.counts() == second.tracer.counts()
    assert (first.uploads_delivered, first.artifact_bytes) == (second.uploads_delivered, second.artifact_bytes)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_fit_in_run_s(traced, name):
    for rep in traced[name]:
        inside_run = [s for span, s in rep.tracer.stats.items() if span != "harness.parse_config"]
        assert 0.0 < sum(s.self_s for s in inside_run) <= rep.run_s
        assert rep.tracer.stats["harness.run"].total_s <= rep.run_s


def test_tracer_restores_every_binding():
    from vhfl_lab import datagen, fedcore, nnet, rng

    before = (fedcore.substream, datagen.substream, rng.substream, fedcore.batches, nnet.DenseLayer.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fedcore.substream is not before[0] and fedcore.batches is not before[3]
    finally:
        tracer.uninstall()
    assert (fedcore.substream, datagen.substream, rng.substream, fedcore.batches, nnet.DenseLayer.__init__) == before


def test_work_units_match_generated_shards():
    from vhfl_lab.datagen import SynthConfig, generate

    for name in ("vhfl_dense", "lossy_wide", "cloud_pooled"):
        for raw in workloads.configs(name, 1):
            fed = raw["federation"]
            shards = generate(SynthConfig(**raw["synth"])).clients
            n_train = {shard.n for shard in shards}
            assert len(n_train) == 1
            trained = fed["k"] if raw["mode"] in ("vhfl", "hfl") else len(shards)
            per_seed = fed["global_epochs"] * fed["local_epochs"] * trained * n_train.pop()
            assert workloads.work_units(raw) == len(raw["seeds"]) * per_seed


def test_wrong_reference_fails_the_op(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    raws = tiny("cloud_pooled")[:1]
    good = run.run_rep(harness, raws, None)
    assert all(error is None for error in good.errors.values())
    reference = {key: [1.0, 1.0] for key in good.errors}
    bad = run.run_rep(harness, raws, reference)
    assert all(error and "reference" in error for error in bad.errors.values())


def test_raising_run_fails_every_op_of_its_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    raws = tiny("lossy_wide")
    raws[0]["federation"]["combine"] = "additive"  # needs u0_dim == d_label, so vhfl raises
    rep = run.run_rep(harness, raws, None)
    failed = {key for key, error in rep.errors.items() if error is not None}
    assert failed == set(workloads.op_keys(raws[0]))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queue_plan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reported_metrics_are_those_benchmark_json_lists(traced):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    reps = traced["lossy_wide"]
    e2e = run.end_to_end("lossy_wide", tiny("lossy_wide"), reps, ([0.1], [1.0]))
    layers = run.per_layer(reps, reps)
    assert list(e2e.metrics) == [m["name"] for m in spec["end_to_end"]]
    assert list(layers.metrics) == [m["name"] for m in spec["per_layer"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert (e2e.metrics | layers.metrics)[m["name"]][1] == m["unit"]


def test_times_are_divided_by_the_host_slowdown(traced):
    reps = traced["vhfl_dense"]
    slow = [dataclasses.replace(r, slowdowns=[2.0] * len(r.slowdowns)) for r in reps]
    e2e = run.end_to_end("vhfl_dense", tiny("vhfl_dense"), slow, ([0.4, 0.2, 0.3], [4.0, 1.0, 2.0]))
    assert e2e.metrics["run_s"][0] == pytest.approx(sum(r.run_s for r in reps) / len(reps) / 2.0)
    assert e2e.metrics["setup_s"][0] == pytest.approx(0.15)
    assert all(len(r.slowdowns) == len(tiny("vhfl_dense")) + 1 for r in reps)
    assert all(run.host_slowdown(kind) > 0.0 for kind in run.REFERENCE_WORK)
