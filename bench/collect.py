"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage, from the root of a source checkout:

    python3 bench/collect.py --workloads vhfl_dense,queue_plan --seeds 1-10 [--trace 1] [--out FILE]
    python3 bench/collect.py --write-reference

Each (workload, seed) is one ``bench/run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``. For every metric the table shows the
median over seeds, the quartiles as ``statistics.quantiles(n=4)`` gives them,
and the spread (q3 - q1) / median next to a third of the metric's bound.
``--out`` also writes every run, with its machine facts, as JSON.
``--write-reference`` rewrites ``bench/reference.json``, the final losses of
the default seed that every default-seed run is checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    facts = next((json.loads(line[6:]) for line in lines if line.startswith("facts ")), {})
    per_rep = {
        line.split()[0]: [float(v) for v in line.split()[3:]]
        for line in lines
        if line.lstrip().startswith(("run_s per repetition", "cpu_s per repetition", "host_factor per repetition"))
    }
    return {"seed": seed, "result": json.loads(lines[-1]), "facts": facts, "repetitions": per_rep}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict[str, dict]:
    names = runs[0]["result"]["metrics"]
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def write_reference() -> None:
    """Record the final train and test MSE of every training op at the default seed."""
    sys.path.insert(0, str(ROOT / "src"))
    from vhfl_lab import harness

    seed = workloads.DEFAULT_SEED
    final: dict[str, dict[str, list[float]]] = {}
    for name in workloads.WORKLOADS:
        for raw in workloads.configs(name, seed):
            if raw["mode"] == "queue_simulate":
                continue
            with tempfile.TemporaryDirectory(dir=ROOT) as out:
                harness.run(harness.parse_config({**raw, "out_dir": out}))
                for row in workloads.csv_rows(Path(out) / "summary.csv"):
                    key = f"{row['mode']}/{row['seed']}"
                    final.setdefault(name, {})[key] = [float(row["final_train_mse"]), float(row["final_test_mse"])]
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps({"seed": seed, "final_mse": final}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 1,4,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        write_reference()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['result']['metrics'])}", file=sys.stderr, flush=True)
        summary = summarise(runs, bounds)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"== {workload}: {len(runs)} runs, {sum(r['result']['failed'] for r in runs)} failed ops")
        for name, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            limit = "" if s["bound"] is None else f"  (a third of the bound: {s['bound'] / 3:.4f})"
            print(f"  {name:36s} median {s['median']:12.6g} {s['unit']:6s} q1 {s['q1']:10.6g} q3 {s['q3']:10.6g} spread {spread}{limit}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
