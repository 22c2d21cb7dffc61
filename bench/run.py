"""Benchmark of the vhfl_lab experiment harness.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload vhfl_dense --seed 1 --seconds 28 --trace 0

Each repetition parses the workload's configs with ``harness.parse_config``
and runs them with ``harness.run`` into a scratch directory under
``.bench_work/``, then checks every artifact. Before each config, and after
the last, it times a fixed kernel with :func:`host_slowdown` to measure how
fast the host runs at that moment; ``run_s`` is divided by the mean slowdown.
``setup_s`` is divided likewise by the time of a process that imports numpy.
Repetitions continue while the next one is expected to end within
``--seconds``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates plain and traced repetitions and reports the per-layer metrics. The last line of output is one JSON object;
the lines before it are for people. The exit code is 1 when any op failed
and 2 when the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 11  # fresh processes timed for setup_s, after one warm-up


# The shared host's speed swings by up to 1.7x within seconds and drifts
# over minutes, and process CPU time swings with it. The kernels below are
# part of the benchmark and never change, so the time one takes, against
# its median on the baseline host, measures the host's slowdown at the
# moment it runs. Each kernel mimics the resource use of one kind of op.


def _layers_kernel() -> None:
    """Tiny tanh layers, SGD and per-row Python: the mix of local and pooled training."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((16, 8)), rng.standard_normal((16, 1))
    w1, b1 = rng.standard_normal((16, 8)) * 0.3, np.zeros(16)
    w2, b2 = rng.standard_normal((1, 16)) * 0.3, np.zeros(1)
    per_row: dict[int, float] = {}
    for _ in range(1200):
        h = np.tanh(x @ w1.T + b1)
        err = h @ w2.T + b2 - y
        g2 = 2.0 * err / len(x)
        gz = (g2 @ w2) * (1.0 - h * h)
        if not np.all(np.isfinite(gz)):
            raise ArithmeticError("reference kernel diverged")
        w1, b1 = w1 - 0.01 * (gz.T @ x), b1 - 0.01 * gz.sum(axis=0)
        w2, b2 = w2 - 0.01 * (g2.T @ h), b2 - 0.01 * g2.sum(axis=0)
        for k in range(len(x)):
            per_row[k] = per_row.get(k, 0.0) + float(gz[k, 0])


def _arrays_kernel() -> None:
    """Passes over arrays of 400k draws: the memory-bound mix of the queue simulator."""
    draws = np.random.default_rng(1).exponential(1.0, 400_000)
    np.maximum(np.cumsum(draws) - 3.0, 0.0).mean()


# kind -> (kernel, about its median wall time in s between ops on the 2-vCPU
# Xeon host of the baseline)
REFERENCE_WORK = {"layers": (_layers_kernel, 0.04), "arrays": (_arrays_kernel, 0.009)}


# The reference of set-up probes, and about its median wall time in s on the
# baseline host. The program cannot change it, as it never imports vhfl_lab.
REFERENCE_STARTUP = [sys.executable, "-c", "import numpy"]
REFERENCE_STARTUP_S = 0.13


def op_kind(raw: dict) -> str:
    return "arrays" if raw["mode"] == "queue_simulate" else "layers"


def host_slowdown(kind: str) -> float:
    """Run the reference kernel of ``kind``; its wall time over its baseline time."""
    kernel, reference_s = REFERENCE_WORK[kind]
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) / reference_s


def import_program():
    """Import ``vhfl_lab.harness`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from vhfl_lab import harness
    except ImportError as err:
        print(f"error: cannot import vhfl_lab from {src}: {err}", file=sys.stderr)
        raise SystemExit(2) from None
    if src.resolve() not in Path(harness.__file__).resolve().parents:
        print(f"error: vhfl_lab was imported from {harness.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return harness


@dataclass
class Rep:
    """One repetition of a workload: every config parsed, run and checked."""

    run_s: float
    cpu_s: float
    slowdowns: list[float]  # host_slowdown() before each config and after the last
    errors: dict[str, str | None]
    uploads_delivered: int
    artifact_bytes: int
    tracer: spans.Tracer | None = None


def run_rep(harness, raws: list[dict], reference: dict | None, traced: bool = False) -> Rep:
    """Run one repetition in the current directory, which must be empty scratch space.

    Output directories are relative, so the resolved configs written as
    artifacts, and hence ``artifact_bytes``, do not depend on where the
    checkout lives.
    """
    tracer = spans.Tracer() if traced else None
    outcomes = []
    run_s = cpu_s = 0.0
    slowdowns = []
    if tracer is not None:
        tracer.install()
    try:
        for j, raw in enumerate(raws):
            paths, error = [], None
            slowdowns.append(host_slowdown(op_kind(raw)))
            try:
                config = harness.parse_config({**raw, "out_dir": f"c{j}"})
                wall0, cpu0 = time.perf_counter(), time.process_time()
                try:
                    paths = harness.run(config)
                finally:
                    run_s += time.perf_counter() - wall0
                    cpu_s += time.process_time() - cpu0
            except Exception as err:  # an op failure, reported and counted
                error = f"{type(err).__name__}: {err}"
            outcomes.append((raw, Path(f"c{j}"), paths, error))
        slowdowns.append(host_slowdown(op_kind(raws[-1])))
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors: dict[str, str | None] = {}
    delivered = artifact_bytes = 0
    for raw, out_dir, paths, error in outcomes:
        if error is None:
            result = workloads.check(raw, out_dir, reference)
            errors.update(result.errors)
            delivered += result.uploads_delivered
            artifact_bytes += sum(Path(p).stat().st_size for p in paths)
        else:
            errors.update({key: error for key in workloads.op_keys(raw)})
        shutil.rmtree(out_dir, ignore_errors=True)
    return Rep(run_s, cpu_s, slowdowns, errors, delivered, artifact_bytes, tracer)


def load_reference(workload: str, seed: int) -> dict | None:
    """Committed final losses of the default seed; other seeds are checked without them."""
    if seed != workloads.DEFAULT_SEED:
        return None
    data = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    if data["seed"] != seed:
        raise SystemExit("error: reference.json was made for another seed")
    return data["final_mse"].get(workload, {})


def _wall(cmd: list[str]) -> float:
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import vhfl_lab and parse the workload's configs.

    Before each, a reference process starts Python and imports numpy. The
    second list holds its wall time over REFERENCE_STARTUP_S: the host's
    slowdown for starting processes and importing modules.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    times, slowdowns = [], []
    for i in range(SETUP_PROBES + 1):
        slowdown = _wall(REFERENCE_STARTUP) / REFERENCE_STARTUP_S
        probe_s = _wall(cmd)
        if i:  # the first probe may compile bytecode; users pay that once
            times.append(probe_s)
            slowdowns.append(slowdown)
    return times, slowdowns


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "load1": os.getloadavg()[0],
    }


def repeat(seconds: float, body) -> list:
    """Call ``body`` until the next call is expected to end after ``seconds``; at least once."""
    start = time.perf_counter()
    results = [body()]
    while True:
        last = time.perf_counter() - start
        per_call = last / len(results)
        if last + per_call > seconds:
            return results
        results.append(body())


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g} min={min(values):.4g} max={max(values):.4g}"


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        self.notes[name] = note


def end_to_end(workload: str, raws: list[dict], reps: list[Rep], setup: tuple[list[float], list[float]]) -> Result:
    """Times in seconds of the baseline host: wall times divided by the host's slowdown.

    ``setup_s`` is the median over probes of each probe's wall time divided
    by the slowdown measured just before it. ``run_s`` is the mean wall time
    over all repetitions, which uses every second of the run, divided by the
    mean slowdown measured between its ops. The set of runs gives the median.
    """
    units = sum(workloads.work_units(raw) for raw in raws)
    setup_times, setup_slowdowns = setup
    setup_s = statistics.median(t / x for t, x in zip(setup_times, setup_slowdowns))
    run_s = [r.run_s for r in reps]
    run_host = statistics.fmean(x for r in reps for x in r.slowdowns)
    adjusted = statistics.fmean(run_s) / run_host
    result = Result()
    result.add("setup_s", setup_s, "s", f"wall {_quartiles(setup_times)}, host_factor {statistics.fmean(setup_slowdowns):.4f}")
    result.add("run_s", adjusted, "s", f"wall {_quartiles(run_s)}, host_factor {run_host:.4f}")
    unit = "queue jobs" if workload == "queue_plan" else "sample gradients"
    result.add("work_per_s", units / adjusted, "1/s", f"{units} {unit} per repetition")
    result.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss")
    return result


def _span_metrics(prefix: str, stats: list[spans.SpanStats], fields: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    out = {}
    for name in fields:
        if name == "calls":
            out[f"{prefix}.calls"] = (float(stats[0].calls if stats else 0), "count")
        else:
            out[f"{prefix}.{name}"] = (statistics.median(getattr(s, name) for s in stats) if stats else 0.0, "s")
    return out


def per_layer(plain: list[Rep], traced: list[Rep]) -> Result:
    tracers = [r.tracer for r in traced]
    result = Result()
    for span, fields in spans.SPANS.items():
        stats = [t.stats[span] for t in tracers if span in t.stats]
        for name, (value, unit) in _span_metrics(span, stats, fields).items():
            result.add(name, value, unit)
    first = tracers[0]
    result.add("nnet.layer_builds", float(first.calls("nnet.DenseLayer.__init__")), "count", "DenseLayer constructions")
    result.add("netqueue.jobs_simulated", float(first.counters.get("netqueue.jobs_simulated", 0)), "count")
    trained = first.calls("fedcore.client_update")
    delivered = traced[0].uploads_delivered
    result.add("fedcore.uploads_trained", float(trained), "count", "client_update calls")
    result.add("fedcore.uploads_delivered", float(delivered), "count", "sum of k_received in vhfl/hfl traces")
    result.add("fedcore.wasted_update_ratio", 1.0 - delivered / trained if trained else 0.0, "ratio")
    result.add("harness.artifact_bytes", float(traced[0].artifact_bytes), "bytes")
    plain_s = statistics.median(r.run_s for r in plain)
    traced_s = statistics.median(r.run_s for r in traced)
    result.add("trace.overhead_ratio", traced_s / plain_s - 1.0, "ratio", f"traced run_s {traced_s:.4g} s / plain {plain_s:.4g} s")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness = import_program()
    facts = machine_facts()
    raws = workloads.configs(args.workload, args.seed)
    reference = load_reference(args.workload, args.seed)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    home = Path.cwd()
    try:
        if args.trace:
            os.chdir(work_dir)
            pairs = repeat(args.seconds, lambda: (run_rep(harness, raws, reference), run_rep(harness, raws, reference, traced=True)))
            plain = [p for p, _ in pairs]
            traced = [t for _, t in pairs]
            reps = [rep for pair in pairs for rep in pair]
            result = per_layer(plain, traced)
            counts = [t.tracer.counts() for t in traced]
            deterministic = all(c == counts[0] for c in counts)
            if not deterministic:
                print("error: per-layer call counts differ between traced repetitions", file=sys.stderr)
        else:
            setup = measure_setup(args.workload, args.seed)
            os.chdir(work_dir)
            reps = repeat(args.seconds, lambda: run_rep(harness, raws, reference))
            result = end_to_end(args.workload, raws, reps, setup)
            deterministic = True
    finally:
        os.chdir(home)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    attempted = sum(len(r.errors) for r in reps)
    failed = 0
    for i, rep in enumerate(reps):
        for key, error in rep.errors.items():
            if error is not None:
                failed += 1
                print(f"FAILED rep {i} op {key}: {error}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  repetitions {len(reps)}")
    print(f"facts {json.dumps(facts, sort_keys=True)}")
    if args.trace:
        print("  repetitions alternate plain and traced")
    print(f"  run_s per repetition   {' '.join(f'{r.run_s:.4f}' for r in reps)}")
    print(f"  cpu_s per repetition   {' '.join(f'{r.cpu_s:.4f}' for r in reps)}")
    print(f"  host_factor per repetition {' '.join(f'{statistics.fmean(r.slowdowns):.4f}' for r in reps)}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:6s} {result.notes.get(name, '')}")
    for name in traced[0].tracer.absent if args.trace else []:
        print(f"  {name:36s} absent from the program; its metrics read 0")
    print(f"  {'failed_ratio':36s} {failed / attempted:14.6g} ratio  {failed} of {attempted} ops")
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if failed == 0 and deterministic else 1


if __name__ == "__main__":
    raise SystemExit(main())
